type t = Bitvec.t

let full d = Bitvec.full (Domain.width d)
let empty_cube d = Bitvec.create (Domain.width d)

(* The per-variable field tests below run off the (word, mask) layout
   precomputed in [Domain]: a flat single-word fast path covering almost
   every variable, with a general multi-word fallback. The innermost
   loops are pure word arithmetic with no division. *)

let var_empty_slow d c v =
  let ws = Domain.var_words d v and ms = Domain.var_masks d v in
  let n = Array.length ws in
  let rec loop i = i = n || (Bitvec.word c ws.(i) land ms.(i) = 0 && loop (i + 1)) in
  loop 0

let var_empty d c v =
  let w = (Domain.var_word1 d).(v) in
  if w >= 0 then Bitvec.word c w land (Domain.var_mask1 d).(v) = 0 else var_empty_slow d c v

let var_full_slow d c v =
  let ws = Domain.var_words d v and ms = Domain.var_masks d v in
  let n = Array.length ws in
  let rec loop i = i = n || (Bitvec.word c ws.(i) land ms.(i) = ms.(i) && loop (i + 1)) in
  loop 0

let var_full d c v =
  let w = (Domain.var_word1 d).(v) in
  if w >= 0 then
    let m = (Domain.var_mask1 d).(v) in
    Bitvec.word c w land m = m
  else var_full_slow d c v

let var_cardinal_slow d c v =
  let ws = Domain.var_words d v and ms = Domain.var_masks d v in
  let acc = ref 0 in
  for i = 0 to Array.length ws - 1 do
    acc := !acc + Bitvec.popcount_word (Bitvec.word c ws.(i) land ms.(i))
  done;
  !acc

let var_cardinal d c v =
  let w = (Domain.var_word1 d).(v) in
  if w >= 0 then Bitvec.popcount_word (Bitvec.word c w land (Domain.var_mask1 d).(v))
  else var_cardinal_slow d c v

let is_full _d c = Bitvec.is_full c

let var_bits d c v =
  let off = Domain.offset d v in
  let sz = Domain.size d v in
  let rec loop p acc = if p < 0 then acc else loop (p - 1) (if Bitvec.get c (off + p) then p :: acc else acc) in
  loop (sz - 1) []

let set_var d c v parts =
  let c' = Bitvec.copy c in
  let off = Domain.offset d v in
  Bitvec.clear_range c' off (Domain.size d v);
  List.iter (fun p -> Bitvec.set c' (off + p)) parts;
  c'

let literal d v parts = set_var d (full d) v parts

let of_minterm d values =
  let c = empty_cube d in
  Array.iteri (fun v value -> Bitvec.set c (Domain.offset d v + value)) values;
  c

(* The intersection of two cubes is empty iff some variable's fields are
   disjoint; checking field by field needs no intermediate vector. *)
let var_intersects_slow d a b v =
  let ws = Domain.var_words d v and ms = Domain.var_masks d v in
  let n = Array.length ws in
  let rec loop i =
    i < n
    && (Bitvec.word a ws.(i) land Bitvec.word b ws.(i) land ms.(i) <> 0 || loop (i + 1))
  in
  loop 0

let var_intersects d a b v =
  let w = (Domain.var_word1 d).(v) in
  if w >= 0 then Bitvec.word a w land Bitvec.word b w land (Domain.var_mask1 d).(v) <> 0
  else var_intersects_slow d a b v

(* Word by word for the 2-part fields: a field whose low bit is [p] is
   non-empty in [x] iff bit [p] of [x lor (x lsr 1)] is set, so one mask
   test per word decides every 2-part field in it. The other fields
   ([Domain.other_vars]) take the per-variable path. *)
let pairs_nonempty low x w =
  let m = low.(w) in
  (x lor (x lsr 1)) land m = m

let is_empty d c =
  let low = Domain.pair_low d in
  let nw = Array.length low in
  let rec words w = w < nw && ((not (pairs_nonempty low (Bitvec.word c w) w)) || words (w + 1)) in
  words 0
  ||
  let others = Domain.other_vars d in
  let rec loop j = j < Array.length others && (var_empty d c others.(j) || loop (j + 1)) in
  loop 0

let intersects d a b =
  let low = Domain.pair_low d in
  let nw = Array.length low in
  let rec words w =
    w = nw || (pairs_nonempty low (Bitvec.word a w land Bitvec.word b w) w && words (w + 1))
  in
  words 0
  &&
  let others = Domain.other_vars d in
  let rec loop j = j = Array.length others || (var_intersects d a b others.(j) && loop (j + 1)) in
  loop 0

let inter d a b = if intersects d a b then Some (Bitvec.inter a b) else None

let contains a b = Bitvec.subset b a
let supercube a b = Bitvec.union a b

let cofactor d c ~wrt =
  if intersects d c wrt then Some (Bitvec.union c (Bitvec.complement wrt)) else None

(* With [x = a ∩ b], a 2-part field is disjoint iff its low bit of
   [x lor (x lsr 1)] is clear (see [pairs_nonempty]); one popcount per
   word counts them all. The other fields take the per-variable path. *)
let distance d a b =
  let low = Domain.pair_low d in
  let count = ref 0 in
  for w = 0 to Array.length low - 1 do
    let m = low.(w) in
    if m <> 0 then begin
      let x = Bitvec.word a w land Bitvec.word b w in
      count := !count + Bitvec.popcount_word (lnot (x lor (x lsr 1)) land m)
    end
  done;
  let others = Domain.other_vars d in
  for j = 0 to Array.length others - 1 do
    if not (var_intersects d a b others.(j)) then incr count
  done;
  !count

(* Saturates at [max_int], as [Cover.space_size] does: a wrapped count
   would misorder the smallest-first and largest-first cube orders of
   IRREDUNDANT and REDUCE. *)
let num_minterms d c =
  let n = Domain.num_vars d in
  let total = ref 1 in
  for v = 0 to n - 1 do
    let k = var_cardinal d c v in
    total := if k <> 0 && !total > max_int / k then max_int else !total * k
  done;
  !total

let num_literal_bits d c =
  let n = Domain.num_vars d in
  let total = ref 0 in
  for v = 0 to n - 1 do
    if not (var_full d c v) then total := !total + var_cardinal d c v
  done;
  !total

let pp d ppf c =
  let n = Domain.num_vars d in
  for v = 0 to n - 1 do
    if v > 0 then Format.pp_print_char ppf '|';
    let off = Domain.offset d v in
    for p = 0 to Domain.size d v - 1 do
      Format.pp_print_char ppf (if Bitvec.get c (off + p) then '1' else '0')
    done
  done

let equal = Bitvec.equal
