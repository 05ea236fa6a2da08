(* Log-linear buckets: octaves [2^e, 2^(e+1)) for e in [min_exp,
   max_exp), each cut into [sub_buckets] linear slices. Observation is
   a frexp, an index computation and two atomic adds — no lock — so
   concurrent domains merge exactly (atomic increments never lose
   counts; the bucket totals always sum to the observation count). *)

let sub_buckets = 8

(* 2^-20 s ~ 0.95 us up to 2^12 s = 4096 s: brackets protocol
   round-trips on the low end and any sane request wall on the high. *)
let min_exp = -20
let max_exp = 12
let num_buckets = (max_exp - min_exp) * sub_buckets

type t = {
  (* Empty until the first observation: most registered series of a
     process (every timed section of the tree is registered up front)
     are never observed, and 256 atomics each add up. *)
  cells : int Atomic.t array Atomic.t;
  (* Nanoseconds, accumulated with fetch_and_add: 2^62 ns ~ 146 years
     of accumulated latency before overflow. *)
  sum_ns : int Atomic.t;
}

let create () = { cells = Atomic.make [||]; sum_ns = Atomic.make 0 }

(* The bucket cells, allocated by the first observer; a racing
   allocation loses the compare-and-set and uses the winner's. *)
let cells t =
  let c = Atomic.get t.cells in
  if Array.length c > 0 then c
  else begin
    let fresh = Array.init num_buckets (fun _ -> Atomic.make 0) in
    if Atomic.compare_and_set t.cells c fresh then fresh else Atomic.get t.cells
  end

(* Bucket counts as plain ints: all zero before the first observation. *)
let counts t =
  match Atomic.get t.cells with
  | [||] -> Array.make num_buckets 0
  | c -> Array.map Atomic.get c

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* frexp v = (m, e) with v = m * 2^e and m in [0.5, 1), i.e. v in
   [2^(e-1), 2^e): octave e-1, sub-slice by the mantissa's position in
   [0.5, 1). *)
let bucket_of v =
  if v <= 0. then 0
  else begin
    let m, e = Float.frexp v in
    let octave = e - 1 - min_exp in
    if octave < 0 then 0
    else if octave >= max_exp - min_exp then num_buckets - 1
    else
      let s = clamp 0 (sub_buckets - 1) (int_of_float ((m -. 0.5) *. 2. *. float_of_int sub_buckets)) in
      (octave * sub_buckets) + s
  end

let lower_bound i =
  let octave = i / sub_buckets and s = i mod sub_buckets in
  Float.ldexp (1. +. (float_of_int s /. float_of_int sub_buckets)) (min_exp + octave)

let upper_bound i =
  if i + 1 >= num_buckets then Float.ldexp 1. max_exp else lower_bound (i + 1)

let observe t v =
  Atomic.incr (cells t).(bucket_of v);
  (* Negative observations clamp to bucket 0 but must not walk the sum
     backwards. *)
  if v > 0. then ignore (Atomic.fetch_and_add t.sum_ns (int_of_float (v *. 1e9)))

let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 (Atomic.get t.cells)
let sum t = float_of_int (Atomic.get t.sum_ns) *. 1e-9

(* The bucket holding the ceil(q * count)-th smallest observation —
   exactly the bucket the same-rank order statistic of the raw stream
   falls in, which is the "within one bucket" quantile bound. *)
let quantile_bucket t q =
  let counts = counts t in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then -1
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let acc = ref 0 and found = ref (num_buckets - 1) and i = ref 0 in
    while !i < num_buckets && !acc < rank do
      acc := !acc + counts.(!i);
      if !acc >= rank then found := !i;
      incr i
    done;
    !found
  end

let quantile t q =
  match quantile_bucket t q with
  | -1 -> 0.
  | i -> (lower_bound i +. upper_bound i) /. 2.

let snapshot = counts

let reset t =
  Array.iter (fun c -> Atomic.set c 0) (Atomic.get t.cells);
  Atomic.set t.sum_ns 0
