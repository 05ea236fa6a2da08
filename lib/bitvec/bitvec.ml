(* Dense bit vectors over int-array words.

   Invariant: unused bits of the last word are always zero, so [equal],
   [compare], [is_empty] and [hash] can work word-wise without masking. *)

let bits_per_word = Sys.int_size

type t = { len : int; words : int array }

let nwords len = if len = 0 then 0 else (len - 1) / bits_per_word + 1

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; words = Array.make (nwords len) 0 }

let length t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of range"

let get t i =
  check_index t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set t i =
  check_index t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let clear t i =
  check_index t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* Mask selecting the valid bits of the last word. *)
let last_mask len =
  let r = len mod bits_per_word in
  if r = 0 then -1 else (1 lsl r) - 1

let full len =
  let t = create len in
  let n = Array.length t.words in
  for w = 0 to n - 1 do
    t.words.(w) <- -1
  done;
  if n > 0 then t.words.(n - 1) <- t.words.(n - 1) land last_mask len;
  t

let check_same a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Hashtbl.hash (t.len, t.words)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let is_full t =
  let n = Array.length t.words in
  if n = 0 then true
  else
    let rec loop w =
      if w = n - 1 then t.words.(w) = last_mask t.len
      else t.words.(w) = -1 && loop (w + 1)
    in
    loop 0

let map2 f a b =
  check_same a b;
  { len = a.len; words = Array.init (Array.length a.words) (fun w -> f a.words.(w) b.words.(w)) }

let inter a b = map2 ( land ) a b
let union a b = map2 ( lor ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement t =
  let n = Array.length t.words in
  let words = Array.init n (fun w -> lnot t.words.(w)) in
  if n > 0 then words.(n - 1) <- words.(n - 1) land last_mask t.len;
  { len = t.len; words }

let subset a b =
  check_same a b;
  let n = Array.length a.words in
  let rec loop w = w = n || (a.words.(w) land lnot b.words.(w) = 0 && loop (w + 1)) in
  loop 0

let disjoint a b =
  check_same a b;
  let n = Array.length a.words in
  let rec loop w = w = n || (a.words.(w) land b.words.(w) = 0 && loop (w + 1)) in
  loop 0

(* SWAR popcount. The masks are built from 32-bit literals so they stay
   inside OCaml's int literal range; shifting left by 32 truncates to the
   native int width, which is exactly the pattern we need. *)
let swar_m1 = 0x55555555 lor (0x55555555 lsl 32)
let swar_m2 = 0x33333333 lor (0x33333333 lsl 32)
let swar_m4 = 0x0F0F0F0F lor (0x0F0F0F0F lsl 32)

let popcount_word x =
  let x = x - ((x lsr 1) land swar_m1) in
  let x = (x land swar_m2) + ((x lsr 2) land swar_m2) in
  let x = (x + (x lsr 4)) land swar_m4 in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  let x = if bits_per_word > 32 then x + (x lsr 32) else x in
  x land 0xff

(* Number of trailing zeros of a one-bit word [b]: the bits below it. *)
let ntz_bit b = popcount_word (b - 1)

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let inter_into dst src =
  check_same dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let union_into dst src =
  check_same dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let base = wi * bits_per_word in
    let w = ref t.words.(wi) in
    while !w <> 0 do
      let b = !w land - !w in
      f (base + ntz_bit b);
      w := !w land lnot b
    done
  done

let fold f acc t =
  let r = ref acc in
  iter (fun i -> r := f !r i) t;
  !r

let to_list t = List.rev (fold (fun acc i -> i :: acc) [] t)

let of_list len l =
  let t = create len in
  List.iter (fun i -> set t i) l;
  t

let first_set t =
  let n = Array.length t.words in
  let rec loop w =
    if w = n then None
    else if t.words.(w) = 0 then loop (w + 1)
    else Some ((w * bits_per_word) + ntz_bit (t.words.(w) land - t.words.(w)))
  in
  loop 0

let range_check t lo len =
  if lo < 0 || len < 0 || lo + len > t.len then invalid_arg "Bitvec: range out of bounds"

(* The range operations below work word-parallel: the range [lo, lo+len)
   spans words w0..w1, with [first]/[last] masking the partial words at
   each end (collapsed into one mask when w0 = w1). *)
let ones n = if n >= bits_per_word then -1 else (1 lsl n) - 1

let range_full t lo len =
  range_check t lo len;
  len = 0
  ||
  let w0 = lo / bits_per_word and w1 = (lo + len - 1) / bits_per_word in
  let b0 = lo mod bits_per_word and b1 = (lo + len - 1) mod bits_per_word in
  if w0 = w1 then
    let m = ones (b1 - b0 + 1) lsl b0 in
    t.words.(w0) land m = m
  else
    let first = -1 lsl b0 and last = ones (b1 + 1) in
    t.words.(w0) land first = first
    && t.words.(w1) land last = last
    &&
    let rec mid w = w >= w1 || (t.words.(w) = -1 && mid (w + 1)) in
    mid (w0 + 1)

let range_empty t lo len =
  range_check t lo len;
  len = 0
  ||
  let w0 = lo / bits_per_word and w1 = (lo + len - 1) / bits_per_word in
  let b0 = lo mod bits_per_word and b1 = (lo + len - 1) mod bits_per_word in
  if w0 = w1 then t.words.(w0) land (ones (b1 - b0 + 1) lsl b0) = 0
  else
    t.words.(w0) land (-1 lsl b0) = 0
    && t.words.(w1) land ones (b1 + 1) = 0
    &&
    let rec mid w = w >= w1 || (t.words.(w) = 0 && mid (w + 1)) in
    mid (w0 + 1)

let range_cardinal t lo len =
  range_check t lo len;
  if len = 0 then 0
  else
    let w0 = lo / bits_per_word and w1 = (lo + len - 1) / bits_per_word in
    let b0 = lo mod bits_per_word and b1 = (lo + len - 1) mod bits_per_word in
    if w0 = w1 then popcount_word (t.words.(w0) land (ones (b1 - b0 + 1) lsl b0))
    else begin
      let acc = ref (popcount_word (t.words.(w0) land (-1 lsl b0))) in
      for w = w0 + 1 to w1 - 1 do
        acc := !acc + popcount_word t.words.(w)
      done;
      !acc + popcount_word (t.words.(w1) land ones (b1 + 1))
    end

(* Raw word access for the mask-based field operations of the cube
   layer, which precomputes per-variable (word, mask) pairs to avoid
   index arithmetic in its innermost loops. *)
let word t i = t.words.(i)

let or_word t i m = t.words.(i) <- t.words.(i) lor m

let set_range t lo len =
  range_check t lo len;
  if len > 0 then begin
    let w0 = lo / bits_per_word and w1 = (lo + len - 1) / bits_per_word in
    let b0 = lo mod bits_per_word and b1 = (lo + len - 1) mod bits_per_word in
    if w0 = w1 then t.words.(w0) <- t.words.(w0) lor (ones (b1 - b0 + 1) lsl b0)
    else begin
      t.words.(w0) <- t.words.(w0) lor (-1 lsl b0);
      for w = w0 + 1 to w1 - 1 do
        t.words.(w) <- -1
      done;
      t.words.(w1) <- t.words.(w1) lor ones (b1 + 1)
    end
  end

let clear_range t lo len =
  range_check t lo len;
  if len > 0 then begin
    let w0 = lo / bits_per_word and w1 = (lo + len - 1) / bits_per_word in
    let b0 = lo mod bits_per_word and b1 = (lo + len - 1) mod bits_per_word in
    if w0 = w1 then t.words.(w0) <- t.words.(w0) land lnot (ones (b1 - b0 + 1) lsl b0)
    else begin
      t.words.(w0) <- t.words.(w0) land lnot (-1 lsl b0);
      for w = w0 + 1 to w1 - 1 do
        t.words.(w) <- 0
      done;
      t.words.(w1) <- t.words.(w1) land lnot (ones (b1 + 1))
    end
  end

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done

(* The bytes of [pp], built directly: tables keyed by [to_string] sit
   in hot loops, where a formatter per call dominated their cost. *)
let to_string t =
  String.init t.len (fun i ->
      if t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0 then '1' else '0')

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> set t i
      | '0' -> ()
      | _ -> invalid_arg "Bitvec.of_string: expected only '0' and '1'")
    s;
  t
