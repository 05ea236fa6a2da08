(* Order statistics and the naming rules of the benchmark's output. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median = function
  | [] -> 0.
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the [p]-th percentile of [n] samples is the sample of
   rank ceil(p * n / 100), so exactly n - rank samples lie beyond it.
   Integer arithmetic keeps the rank exact (0.9 * 100 is not). *)
let rank ~p n = ((p * n) + 99) / 100

let beyond ~p n = n - rank ~p n

let percentile ~p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = sorted xs in
      a.(max 0 (rank ~p (Array.length a) - 1))

let min_beyond = 10

(* The tail a run may report: the highest of p99, p95 and p90 that has at
   least [min_beyond] samples beyond it, or [None] below 100 samples. *)
let tail_percentile n = List.find_opt (fun p -> beyond ~p n >= min_beyond) [ 99; 95; 90 ]

(* Metric and workload names: a letter or digit, then up to 63 letters,
   digits, '_', '.' or '-'. Units: 1 to 16 letters, digits, '_', '/',
   '%', '.' or '-'. *)
let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_alnum c || String.contains "_/%.-" c) s
