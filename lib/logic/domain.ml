type t = {
  sizes : int array;
  offsets : int array;
  width : int;
  (* Word-level layout of each variable's field, precomputed so the hot
     cube operations need no per-call division: variable [v]'s field is
     the union over [i] of the bits [var_masks.(v).(i)] of word
     [var_words.(v).(i)] (in Bitvec's word layout). *)
  var_words : int array array;
  var_masks : int array array;
  (* Flat fast path for the (overwhelmingly common) variables whose field
     lies in a single word: [var_word1.(v)] is that word's index and
     [var_mask1.(v)] the field mask, or -1/0 when the field straddles a
     word boundary and callers must fall back to [var_words]/[var_masks]. *)
  var_word1 : int array;
  var_mask1 : int array;
  (* Word-parallel layout of the 2-part (binary) variables:
     [pair_low.(w)] has the low bit of every 2-part field lying in word
     [w]; [other_vars] lists the variables it leaves out (fields of
     other sizes, and 2-part fields straddling a word boundary). *)
  pair_low : int array;
  other_vars : int array;
}

let bpw = Bitvec.bits_per_word
let ones n = if n >= bpw then -1 else (1 lsl n) - 1

let create sizes =
  if Array.exists (fun s -> s < 1) sizes then
    invalid_arg "Domain.create: every variable needs at least one part";
  let n = Array.length sizes in
  let offsets = Array.make n 0 in
  let w = ref 0 in
  for v = 0 to n - 1 do
    offsets.(v) <- !w;
    w := !w + sizes.(v)
  done;
  let var_words = Array.make n [||] and var_masks = Array.make n [||] in
  for v = 0 to n - 1 do
    let lo = offsets.(v) and hi = offsets.(v) + sizes.(v) - 1 in
    let w0 = lo / bpw and w1 = hi / bpw in
    var_words.(v) <- Array.init (w1 - w0 + 1) (fun i -> w0 + i);
    var_masks.(v) <-
      Array.init
        (w1 - w0 + 1)
        (fun i ->
          let w = w0 + i in
          let first = max lo (w * bpw) - (w * bpw) in
          let last = min hi ((w * bpw) + bpw - 1) - (w * bpw) in
          ones (last - first + 1) lsl first)
  done;
  let var_word1 = Array.make n (-1) and var_mask1 = Array.make n 0 in
  for v = 0 to n - 1 do
    if Array.length var_words.(v) = 1 then begin
      var_word1.(v) <- var_words.(v).(0);
      var_mask1.(v) <- var_masks.(v).(0)
    end
  done;
  let pair_low = Array.make ((!w + bpw - 1) / bpw) 0 and other = ref [] in
  for v = n - 1 downto 0 do
    if sizes.(v) = 2 && var_word1.(v) >= 0 then
      pair_low.(var_word1.(v)) <- pair_low.(var_word1.(v)) lor (1 lsl (offsets.(v) mod bpw))
    else other := v :: !other
  done;
  {
    sizes = Array.copy sizes;
    offsets;
    width = !w;
    var_words;
    var_masks;
    var_word1;
    var_mask1;
    pair_low;
    other_vars = Array.of_list !other;
  }

let num_vars d = Array.length d.sizes
let size d v = d.sizes.(v)
let offset d v = d.offsets.(v)
let width d = d.width
let var_words d v = d.var_words.(v)
let var_masks d v = d.var_masks.(v)
let var_word1 d = d.var_word1
let var_mask1 d = d.var_mask1
let pair_low d = d.pair_low
let other_vars d = d.other_vars
let equal a b = a.sizes = b.sizes

let num_minterms d =
  Array.fold_left
    (fun acc s ->
      let m = acc * s in
      if acc <> 0 && m / acc <> s then invalid_arg "Domain.num_minterms: overflow";
      m)
    1 d.sizes

let pp ppf d =
  Format.fprintf ppf "domain(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list d.sizes)
