(* Tests for constraint extraction and satisfaction semantics. *)

let check = Alcotest.(check bool)

let enc codes nbits = Encoding.make ~nbits (Array.of_list codes)

let test_face_of_states () =
  (* states 0,1 at codes 00,01 span face 0x: mask=0b10 (bit1 fixed to 0) *)
  let e = enc [ 0b00; 0b01; 0b10; 0b11 ] 2 in
  let mask, value = Constraints.face_of_states e (Bitvec.of_string "1100") in
  Alcotest.(check int) "mask keeps bit 1" 0b10 mask;
  Alcotest.(check int) "value 0" 0 value;
  let mask2, _ = Constraints.face_of_states e (Bitvec.of_string "1111") in
  Alcotest.(check int) "universe spans whole cube" 0 mask2;
  Alcotest.check_raises "empty group"
    (Invalid_argument "Constraints.face_of_states: empty constraint") (fun () ->
      ignore (Constraints.face_of_states e (Bitvec.create 4)))

let test_satisfied () =
  let e = enc [ 0b00; 0b01; 0b10; 0b11 ] 2 in
  (* {0,1} spans 0x which contains only codes 00,01: satisfied. *)
  check "adjacent pair" true (Constraints.satisfied e (Bitvec.of_string "1100"));
  (* {0,3} spans xx which contains 01 and 10: violated. *)
  check "diagonal pair" false (Constraints.satisfied e (Bitvec.of_string "1001"));
  (* singleton is always satisfied *)
  check "singleton" true (Constraints.satisfied e (Bitvec.of_string "0100"));
  (* universe is always satisfied *)
  check "universe" true (Constraints.satisfied e (Bitvec.of_string "1111"))

let test_satisfied_with_unused_codes () =
  (* 3 states in 2 bits: group {0,1} at 00,01 spans 0x; code 10 is state
     2's, 11 unused. Unused codes inside a face are fine. *)
  let e = enc [ 0b00; 0b10; 0b01 ] 2 in
  (* codes: s0=00 s1=10 s2=01; group {0,1} = codes 00,10 spans x0;
     x0 contains 00 and 10 only; s2=01 outside: satisfied. *)
  check "face with unused vertex" true (Constraints.satisfied e (Bitvec.of_string "110"));
  (* group {0,2} = codes 00,01 spans 0x; contains no other state code:
     satisfied. *)
  check "other pair" true (Constraints.satisfied e (Bitvec.of_string "101"));
  (* group {1,2} = codes 10,01 spans xx which contains s0: violated. *)
  check "spanning pair" false (Constraints.satisfied e (Bitvec.of_string "011"))

let test_weights () =
  let e = enc [ 0b00; 0b01; 0b10; 0b11 ] 2 in
  let ics =
    [
      { Constraints.states = Bitvec.of_string "1100"; weight = 3 };
      { Constraints.states = Bitvec.of_string "1001"; weight = 5 };
    ]
  in
  Alcotest.(check int) "weight of satisfied" 3 (Constraints.satisfied_weight e ics);
  Alcotest.(check int) "count of satisfied" 1 (Constraints.num_satisfied e ics)

let test_extraction_merges_duplicates () =
  (* Machine where states a and b behave identically: the minimized
     cover groups them, producing the constraint {a, b}. *)
  let t input src dst output = { Fsm.input; src = Some src; dst = Some dst; output } in
  let m =
    Fsm.create ~name:"merge" ~num_inputs:1 ~num_outputs:1
      ~states:[| "a"; "b"; "c"; "d" |]
      ~transitions:
        [
          t "0" 0 2 "1"; t "0" 1 2 "1";  (* a,b -0-> c / 1 *)
          t "1" 0 3 "0"; t "1" 1 3 "0";  (* a,b -1-> d / 0 *)
          t "0" 2 0 "0"; t "1" 2 1 "0";
          t "0" 3 1 "1"; t "1" 3 0 "1";
        ]
      ()
  in
  let ics = Constraints.of_symbolic (Symbolic.of_fsm m) in
  check "found the {a,b} group" true
    (List.exists
       (fun (ic : Constraints.input_constraint) ->
         Bitvec.equal ic.Constraints.states (Bitvec.of_string "1100"))
       ics);
  let ab =
    List.find
      (fun (ic : Constraints.input_constraint) ->
        Bitvec.equal ic.Constraints.states (Bitvec.of_string "1100"))
      ics
  in
  check "merged weight >= 2" true (ab.Constraints.weight >= 2)

let test_output_constraints () =
  let e = enc [ 0b00; 0b01; 0b11 ] 2 in
  check "1 covers 0" true (Constraints.oc_satisfied e { Constraints.covering = 1; covered = 0 });
  check "2 covers 1" true (Constraints.oc_satisfied e { Constraints.covering = 2; covered = 1 });
  check "0 does not cover 1" false
    (Constraints.oc_satisfied e { Constraints.covering = 0; covered = 1 });
  check "self covering is strict" false
    (Constraints.oc_satisfied e { Constraints.covering = 1; covered = 1 });
  let cluster =
    {
      Constraints.next_state = 0;
      edges = [ { Constraints.covering = 1; covered = 0 }; { Constraints.covering = 2; covered = 0 } ];
      oc_weight = 2;
      companion = [];
    }
  in
  check "cluster satisfied" true (Constraints.cluster_satisfied e cluster);
  let bad =
    { cluster with Constraints.edges = { Constraints.covering = 0; covered = 2 } :: cluster.Constraints.edges }
  in
  check "cluster violated" false (Constraints.cluster_satisfied e bad)

(* Property: satisfaction is monotone under the projection construction
   of Proposition 4.2.1 — padding a satisfied group with 1s and the rest
   with 0s preserves satisfaction of all previously satisfied groups. *)
let prop_projection_preserves =
  QCheck.Test.make ~name:"padding preserves satisfied constraints (Prop 4.2.1)" ~count:200
    QCheck.(triple (int_bound 1000) (int_range 4 8) (int_bound 1000))
    (fun (seed, n, gseed) ->
      let rng = Random.State.make [| seed |] in
      let nbits = Encoding.min_code_length n in
      let e = Encoding.random rng ~num_states:n ~nbits in
      let grng = Random.State.make [| gseed |] in
      let group = Bitvec.create n in
      for s = 0 to n - 1 do
        if Random.State.bool grng then Bitvec.set group s
      done;
      if Bitvec.is_empty group then true
      else begin
        (* collect satisfied groups among some random ones, then project *)
        let groups =
          List.init 6 (fun i ->
              let g = Bitvec.create n in
              let r = Random.State.make [| gseed; i |] in
              for s = 0 to n - 1 do
                if Random.State.bool r then Bitvec.set g s
              done;
              g)
          |> List.filter (fun g -> not (Bitvec.is_empty g))
        in
        let sat = List.filter (Constraints.satisfied e) groups in
        let codes' =
          Array.mapi
            (fun s c -> if Bitvec.get group s then c lor (1 lsl nbits) else c)
            e.Encoding.codes
        in
        let e' = Encoding.make ~nbits:(nbits + 1) codes' in
        List.for_all (Constraints.satisfied e') sat
        && Constraints.satisfied e' group
      end)

let suite =
  [
    Alcotest.test_case "face_of_states" `Quick test_face_of_states;
    Alcotest.test_case "satisfied" `Quick test_satisfied;
    Alcotest.test_case "satisfied with unused codes" `Quick test_satisfied_with_unused_codes;
    Alcotest.test_case "weights" `Quick test_weights;
    Alcotest.test_case "extraction merges duplicates" `Quick test_extraction_merges_duplicates;
    Alcotest.test_case "output constraints" `Quick test_output_constraints;
    QCheck_alcotest.to_alcotest prop_projection_preserves;
  ]
