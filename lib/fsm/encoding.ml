type t = { nbits : int; codes : int array }

let make ~nbits codes =
  if nbits < 1 || nbits > Sys.int_size - 2 then invalid_arg "Encoding.make: bad code length";
  let limit = 1 lsl nbits in
  Array.iter
    (fun c -> if c < 0 || c >= limit then invalid_arg "Encoding.make: code out of range")
    codes;
  let sorted = Array.copy codes in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then invalid_arg "Encoding.make: duplicate code"
  done;
  { nbits; codes = Array.copy codes }

let ceil_log2 n =
  let rec bits k acc = if acc >= n then k else bits (k + 1) (acc * 2) in
  bits 0 1

let min_code_length n = max 1 (ceil_log2 n)

let num_states e = Array.length e.codes
let code e s = e.codes.(s)

let one_hot n =
  if n < 1 then invalid_arg "Encoding.one_hot";
  make ~nbits:n (Array.init n (fun s -> 1 lsl s))

let random rng ~num_states ~nbits =
  if num_states > 1 lsl nbits then invalid_arg "Encoding.random: not enough codes";
  let limit = 1 lsl nbits in
  let taken = Hashtbl.create num_states in
  let codes =
    Array.init num_states (fun _ ->
        let rec draw () =
          let c = Random.State.int rng limit in
          if Hashtbl.mem taken c then draw ()
          else begin
            Hashtbl.add taken c ();
            c
          end
        in
        draw ())
  in
  make ~nbits codes

let bit e s b = (e.codes.(s) lsr b) land 1

let used_codes e = List.sort compare (Array.to_list e.codes)

let code_string e s =
  String.init e.nbits (fun i -> if bit e s (e.nbits - 1 - i) = 1 then '1' else '0')
