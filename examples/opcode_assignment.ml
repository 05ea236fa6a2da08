(* Opcode assignment — the paper's canonical class-A encoding problem
   ("the optimal assignment of opcodes for a microprocessor",
   Section 2.1).

   Run with:  dune exec examples/opcode_assignment.exe

   A toy CPU decoder maps each instruction mnemonic to control signals.
   The mnemonics are values of one symbolic input variable; minimizing
   the decoder's multiple-valued cover groups the instructions that share
   control signals, and those groups are exactly the input constraints of
   face hypercube embedding. NOVA's class-A algorithms then choose the
   opcodes. Note there is no state here at all: the encoding machinery
   works on any symbolic variable.

   We model the decoder as a "machine" whose present-state variable is
   the instruction (a pure combinational table: next state unspecified,
   outputs = control signals). *)

let instructions =
  [|
    "ADD"; "ADC"; "SUB"; "SBC"; "AND"; "OR"; "XOR"; "NOT";
    "LD"; "LDI"; "ST"; "STI"; "JMP"; "JZ"; "JC"; "HLT";
  |]

(* Control signals: alu_en, reg_wr, mem_rd, mem_wr, pc_load, flag_use,
   imm_sel, halt. Whole instruction families share a pattern — the
   structure the encoding should exploit. *)
let control = function
  | "ADD" | "ADC" | "SUB" | "SBC" | "AND" | "OR" | "XOR" | "NOT" -> "11000000"
  | "LD" -> "01100000"
  | "LDI" -> "01100010"
  | "ST" -> "00010000"
  | "STI" -> "00010010"
  | "JMP" -> "00001000"
  | "JZ" | "JC" -> "00001100"
  | "HLT" -> "00000001"
  | _ -> assert false

let decoder =
  let transitions =
    Array.to_list
      (Array.mapi
         (fun i name -> { Fsm.input = ""; src = Some i; dst = None; output = control name })
         instructions)
  in
  Fsm.create ~name:"decoder" ~num_inputs:0 ~num_outputs:8 ~states:instructions ~transitions ()

let () =
  let n = Array.length instructions in
  let sym = Symbolic.of_fsm decoder in
  let ics = Constraints.of_symbolic sym in
  Printf.printf "instruction groups sharing control signals (input constraints):\n";
  List.iter
    (fun (ic : Constraints.input_constraint) ->
      Printf.printf "  {%s} weight %d\n"
        (String.concat ", " (List.map (fun s -> instructions.(s)) (Bitvec.to_list ic.Constraints.states)))
        ic.Constraints.weight)
    ics;

  (* Exact encoding when it completes, hybrid otherwise. *)
  let groups = List.map (fun (ic : Constraints.input_constraint) -> ic.Constraints.states) ics in
  let encoding =
    match Iexact.iexact_code ~num_states:n ~max_work:500_000 groups with
    | Iexact.Sat { k; codes; proven } ->
        Printf.printf "\niexact: all groups embeddable in %d bits%s\n" k
          (if proven then "" else " (minimality not proven)");
        Encoding.make ~nbits:k codes
    | Iexact.Exhausted ->
        Printf.printf "\niexact exhausted; falling back to ihybrid\n";
        (Ihybrid.ihybrid_code ~num_states:n ics).Ihybrid.encoding
  in
  Printf.printf "\nopcode assignment:\n";
  Array.iteri
    (fun i name -> Printf.printf "  %-4s %s\n" name (Encoding.code_string encoding i))
    instructions;

  (* The payoff: decoder PLA sizes under this assignment vs naive ones. *)
  let report label e =
    let r = Encoded.implement decoder e in
    Printf.printf "  %-14s %d bits %2d product terms  area %4d\n" label e.Encoding.nbits
      r.Encoded.num_cubes r.Encoded.area
  in
  Printf.printf "\ndecoder implementations:\n";
  report "iexact" encoding;
  report "ihybrid(min)" (Ihybrid.ihybrid_code ~num_states:n ics).Ihybrid.encoding;
  report "sequential" (Encoding.make ~nbits:(Encoding.min_code_length n) (Array.init n (fun i -> i)));
  report "1-hot" (Encoding.one_hot n);
  let rng = Random.State.make [| 2 |] in
  report "random" (Encoding.random rng ~num_states:n ~nbits:(Encoding.min_code_length n))
