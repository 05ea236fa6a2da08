(* Fine-grained tests of the symbolic cover construction: exactly which
   cubes land in the on-set and the don't-care set. *)

open Logic

let check = Alcotest.(check bool)

(* m: 1 input, 2 outputs, 2 states.
   row1: 0 a b 1-   (output 1 asserted, output 2 unknown)
   row2: 1 a a 00
   (state b entirely unspecified)                                     *)
let m =
  Fsm.create ~name:"detail" ~num_inputs:1 ~num_outputs:2
    ~states:[| "a"; "b" |]
    ~transitions:
      [
        { Fsm.input = "0"; src = Some 0; dst = Some 1; output = "1-" };
        { Fsm.input = "1"; src = Some 0; dst = Some 0; output = "00" };
      ]
    ()

let sym = Symbolic.of_fsm m
let dom = sym.Symbolic.dom

(* Domain: input var (2), state var (2), output var (2 next + 2 outs). *)
let out_off = Domain.offset dom sym.Symbolic.output_var

let minterm ~input ~state ~col =
  let c = Cube.full dom in
  let c = Cube.set_var dom c 0 [ input ] in
  let c = Cube.set_var dom c sym.Symbolic.state_var [ state ] in
  let c' = Bitvec.copy c in
  Bitvec.clear_range c' out_off 4;
  Bitvec.set c' (out_off + col);
  c'

let covered cover pt = Cover.covers_cube cover pt

let test_on_set_columns () =
  (* Row 1 asserts next state b (col 1) and output 1 (col 2). *)
  check "next-state column asserted" true (covered sym.Symbolic.on (minterm ~input:0 ~state:0 ~col:1));
  check "output-1 column asserted" true (covered sym.Symbolic.on (minterm ~input:0 ~state:0 ~col:2));
  (* Row 2 asserts next state a (col 0) and no outputs. *)
  check "row2 next-state" true (covered sym.Symbolic.on (minterm ~input:1 ~state:0 ~col:0));
  check "row2 outputs off" false (covered sym.Symbolic.on (minterm ~input:1 ~state:0 ~col:2));
  check "row2 output2 off" false (covered sym.Symbolic.on (minterm ~input:1 ~state:0 ~col:3))

let test_dc_set_columns () =
  (* Output 2 of row 1 is '-'. *)
  check "dash output in dc" true (covered (Symbolic.dc sym) (minterm ~input:0 ~state:0 ~col:3));
  check "dash output not in on" false (covered sym.Symbolic.on (minterm ~input:0 ~state:0 ~col:3));
  (* State b is never specified: everything about it is dc. *)
  List.iter
    (fun col ->
      check
        (Printf.sprintf "state b col %d in dc" col)
        true
        (covered (Symbolic.dc sym) (minterm ~input:0 ~state:1 ~col)))
    [ 0; 1; 2; 3 ];
  check "state b not in on" false (covered sym.Symbolic.on (minterm ~input:0 ~state:1 ~col:0))

let test_specified_behaviour_not_dc () =
  (* Row 1's asserted next state must not be a don't care. *)
  check "row1 next not dc" false (covered (Symbolic.dc sym) (minterm ~input:0 ~state:0 ~col:1));
  check "row2 next not dc" false (covered (Symbolic.dc sym) (minterm ~input:1 ~state:0 ~col:0))

let test_constraint_extraction_none () =
  (* With 2 states there is no non-trivial group. *)
  Alcotest.(check int) "no constraints" 0 (List.length (Constraints.of_symbolic sym))

(* A 4-state machine engineered so exactly one group appears. *)
let m4 =
  let t input src dst output = { Fsm.input; src = Some src; dst = Some dst; output } in
  Fsm.create ~name:"grp" ~num_inputs:1 ~num_outputs:1
    ~states:[| "a"; "b"; "c"; "d" |]
    ~transitions:
      [
        (* a, b, c behave identically under 0 *)
        t "0" 0 3 "1"; t "0" 1 3 "1"; t "0" 2 3 "1";
        (* but differ under 1 *)
        t "1" 0 0 "0"; t "1" 1 2 "0"; t "1" 2 1 "1";
        t "0" 3 0 "0"; t "1" 3 3 "0";
      ]
    ()

let test_group_found () =
  let ics = Constraints.of_symbolic (Symbolic.of_fsm m4) in
  check "found {a,b,c}" true
    (List.exists
       (fun (ic : Constraints.input_constraint) ->
         Bitvec.equal ic.Constraints.states (Bitvec.of_string "1110"))
       ics)

let suite =
  [
    Alcotest.test_case "on-set columns" `Quick test_on_set_columns;
    Alcotest.test_case "dc-set columns" `Quick test_dc_set_columns;
    Alcotest.test_case "specified behaviour not dc" `Quick test_specified_behaviour_not_dc;
    Alcotest.test_case "no trivial constraints" `Quick test_constraint_extraction_none;
    Alcotest.test_case "group extraction" `Quick test_group_found;
  ]
