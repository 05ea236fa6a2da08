type step = {
  input : string;
  state_before : int;
  state_after : int option;
  outputs : string;
}

let run (m : Fsm.t) ~from trace =
  let rec go s acc = function
    | [] -> List.rev acc
    | input :: rest -> (
        match Fsm.next m ~input ~src:s with
        | None -> List.rev ({ input; state_before = s; state_after = None; outputs = String.make m.Fsm.num_outputs '-' } :: acc)
        | Some (dst, outputs) -> (
            let step = { input; state_before = s; state_after = dst; outputs } in
            match dst with
            | None -> List.rev (step :: acc)
            | Some d -> go d (step :: acc) rest))
  in
  go from [] trace

type verdict =
  | Equivalent
  | Mismatch of { state : int; input : string; detail : string }

let outputs_agree spec actual =
  let ok = ref true in
  String.iteri
    (fun j ch ->
      match ch with
      | '1' -> if not actual.(j) then ok := false
      | '0' -> if actual.(j) then ok := false
      | _ -> ())
    spec;
  !ok

(* One comparison step of the don't-care policy documented in the mli:
   unspecified behaviour (no matching row, [dst = None], output ['-'])
   never counts as a mismatch. *)
let check_step (enc : Encoded.t) cover s input =
  let m = enc.Encoded.machine and e = enc.Encoded.encoding in
  match Fsm.next m ~input ~src:s with
  | None -> None
  | Some (dst, out) -> (
      let next_code, outputs = Encoded.eval enc cover ~input ~code:(Encoding.code e s) in
      let bad detail = Some (Mismatch { state = s; input; detail }) in
      match dst with
      | Some d when next_code <> Encoding.code e d ->
          bad
            (Printf.sprintf "next code %d, expected %d (state %s)" next_code (Encoding.code e d)
               m.Fsm.states.(d))
      | Some _ | None ->
          if outputs_agree out outputs then None
          else bad (Printf.sprintf "outputs disagree with %s" out))

let check_cover (enc : Encoded.t) cover =
  let m = enc.Encoded.machine in
  if m.Fsm.num_inputs > 16 then invalid_arg "Simulate.check_cover: too many inputs";
  let n = Array.length m.Fsm.states in
  let verdict = ref Equivalent in
  for s = 0 to n - 1 do
    for v = 0 to (1 lsl m.Fsm.num_inputs) - 1 do
      if !verdict = Equivalent then begin
        let input =
          String.init m.Fsm.num_inputs (fun i -> if v land (1 lsl i) <> 0 then '1' else '0')
        in
        match check_step enc cover s input with
        | Some bad -> verdict := bad
        | None -> ()
      end
    done
  done;
  !verdict

let check_at enc cover ~state ~input =
  Option.value (check_step enc cover state input) ~default:Equivalent

let check_encoding (m : Fsm.t) e =
  let enc = Encoded.build m e in
  check_cover enc (Encoded.minimize enc)
