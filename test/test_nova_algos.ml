(* Tests for the NOVA encoding algorithms: project_code, ihybrid_code,
   igreedy_code, out_encoder, iohybrid_code/iovariant_code. *)

let check = Alcotest.(check bool)

let ic s w = { Constraints.states = Bitvec.of_string s; weight = w }

(* --- project_code ------------------------------------------------------- *)

let test_project_basic () =
  (* 4 states encoded in 2 bits, diagonal constraint unsatisfied. *)
  let codes = [| 0b00; 0b01; 0b10; 0b11 |] in
  let sic = [ ic "1100" 1 ] in
  let ric = [ ic "1001" 2 ] in
  let codes', newly, still = Project.project ~codes ~nbits:2 ~sic ~ric in
  Alcotest.(check int) "one more bit" 8 (Array.length codes' * 0 + 8);
  let e = Encoding.make ~nbits:3 codes' in
  check "target satisfied" true (Constraints.satisfied e (Bitvec.of_string "1001"));
  check "old constraint still satisfied" true (Constraints.satisfied e (Bitvec.of_string "1100"));
  check "moved to satisfied" true (List.length newly >= 1);
  check "partition" true (List.length newly + List.length still = 1)

let test_project_requires_ric () =
  Alcotest.check_raises "empty ric" (Invalid_argument "Project.project: no unsatisfied constraint")
    (fun () -> ignore (Project.project ~codes:[| 0; 1 |] ~nbits:1 ~sic:[] ~ric:[]))

(* Property (Proposition 4.2.1): project always satisfies the heaviest
   unsatisfied constraint and never breaks a satisfied one. *)
let prop_project =
  QCheck.Test.make ~name:"project satisfies target, preserves sic" ~count:150
    QCheck.(pair (int_bound 10_000) (int_range 4 9))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let nbits = Encoding.min_code_length n in
      let e = Encoding.random rng ~num_states:n ~nbits in
      let random_group i =
        let g = Bitvec.create n in
        let r = Random.State.make [| seed; i |] in
        for s = 0 to n - 1 do
          if Random.State.bool r then Bitvec.set g s
        done;
        g
      in
      let groups =
        List.init 8 random_group
        |> List.filter (fun g -> Bitvec.cardinal g >= 2 && Bitvec.cardinal g < n)
      in
      let sat, unsat = List.partition (Constraints.satisfied e) groups in
      match unsat with
      | [] -> true
      | _ ->
          let sic = List.map (fun g -> { Constraints.states = g; weight = 1 }) sat in
          let ric =
            List.mapi (fun i g -> { Constraints.states = g; weight = i + 1 }) unsat
          in
          let codes', newly, _still =
            Project.project ~codes:e.Encoding.codes ~nbits ~sic ~ric
          in
          let e' = Encoding.make ~nbits:(nbits + 1) codes' in
          let target =
            List.fold_left
              (fun (best : Constraints.input_constraint) (c : Constraints.input_constraint) ->
                if c.Constraints.weight > best.Constraints.weight then c else best)
              (List.hd ric) (List.tl ric)
          in
          Constraints.satisfied e' target.Constraints.states
          && List.for_all (fun (c : Constraints.input_constraint) -> Constraints.satisfied e' c.Constraints.states) sic
          && List.exists
               (fun (c : Constraints.input_constraint) ->
                 Bitvec.equal c.Constraints.states target.Constraints.states)
               newly)

(* --- ihybrid ------------------------------------------------------------ *)

let test_ihybrid_satisfiable () =
  (* Two disjoint pairs over 4 states: both satisfiable in 2 bits. *)
  let ics = [ ic "1100" 2; ic "0011" 1 ] in
  let r = Ihybrid.ihybrid_code ~num_states:4 ics in
  Alcotest.(check int) "min length" 2 r.Ihybrid.encoding.Encoding.nbits;
  Alcotest.(check int) "all satisfied" 2 (List.length r.Ihybrid.satisfied)

let test_ihybrid_projection_growth () =
  (* Conflicting constraints cannot all fit in 2 bits; with room to grow
     the projection must satisfy them all. *)
  let ics = [ ic "1100" 3; ic "1010" 2; ic "1001" 1 ] in
  let r2 = Ihybrid.ihybrid_code ~num_states:4 ~nbits:2 ics in
  let r4 = Ihybrid.ihybrid_code ~num_states:4 ~nbits:4 ics in
  check "2 bits leaves some unsatisfied" true (List.length r2.Ihybrid.unsatisfied > 0);
  Alcotest.(check int) "4 bits satisfies all" 0 (List.length r4.Ihybrid.unsatisfied);
  check "encoding grew" true (r4.Ihybrid.encoding.Encoding.nbits > 2)

let test_ihybrid_empty_constraints () =
  let r = Ihybrid.ihybrid_code ~num_states:5 [] in
  Alcotest.(check int) "min length for 5 states" 3 r.Ihybrid.encoding.Encoding.nbits;
  Alcotest.(check int) "nothing to satisfy" 0 (List.length r.Ihybrid.unsatisfied)

let test_min_code_length () =
  Alcotest.(check int) "1 state" 1 (Encoding.min_code_length 1);
  Alcotest.(check int) "2 states" 1 (Encoding.min_code_length 2);
  Alcotest.(check int) "3 states" 2 (Encoding.min_code_length 3);
  Alcotest.(check int) "4 states" 2 (Encoding.min_code_length 4);
  Alcotest.(check int) "5 states" 3 (Encoding.min_code_length 5);
  Alcotest.(check int) "8 states" 3 (Encoding.min_code_length 8);
  Alcotest.(check int) "9 states" 4 (Encoding.min_code_length 9)

(* Property: ihybrid's satisfied list is exactly the constraints its
   encoding satisfies. *)
let random_groups seed n count =
  List.init count (fun i ->
      let g = Bitvec.create n in
      let r = Random.State.make [| seed; i |] in
      for s = 0 to n - 1 do
        if Random.State.int r 3 = 0 then Bitvec.set g s
      done;
      g)
  |> List.filter (fun g -> Bitvec.cardinal g >= 2 && Bitvec.cardinal g < n)

let prop_ihybrid_consistent =
  QCheck.Test.make ~name:"ihybrid satisfied list matches its encoding" ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 4 9))
    (fun (seed, n) ->
      let ics =
        List.mapi (fun i g -> { Constraints.states = g; weight = (i mod 3) + 1 }) (random_groups seed n 6)
      in
      let r = Ihybrid.ihybrid_code ~num_states:n ics in
      List.for_all
        (fun (c : Constraints.input_constraint) ->
          Constraints.satisfied r.Ihybrid.encoding c.Constraints.states)
        r.Ihybrid.satisfied
      && List.for_all
           (fun (c : Constraints.input_constraint) ->
             not (Constraints.satisfied r.Ihybrid.encoding c.Constraints.states))
           r.Ihybrid.unsatisfied)

let prop_ihybrid_full_space =
  QCheck.Test.make ~name:"ihybrid with ample bits satisfies everything" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 4 7))
    (fun (seed, n) ->
      let ics = List.map (fun g -> { Constraints.states = g; weight = 1 }) (random_groups seed n 5) in
      let r = Ihybrid.ihybrid_code ~num_states:n ~nbits:(n + 4) ics in
      r.Ihybrid.unsatisfied = [])

(* --- igreedy ------------------------------------------------------------ *)

let prop_igreedy_consistent =
  QCheck.Test.make ~name:"igreedy satisfied list matches its encoding" ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 4 9))
    (fun (seed, n) ->
      let ics =
        List.map (fun g -> { Constraints.states = g; weight = 1 }) (random_groups seed n 6)
      in
      let r = Igreedy.igreedy_code ~num_states:n ics in
      r.Igreedy.encoding.Encoding.nbits = Encoding.min_code_length n
      && List.for_all
           (fun (c : Constraints.input_constraint) ->
             Constraints.satisfied r.Igreedy.encoding c.Constraints.states)
           r.Igreedy.satisfied)

let test_igreedy_nested () =
  (* A nested family: the deepest subconstraint {0,1} should be placed
     on a subface of the bigger group's face. *)
  let ics = [ ic "11110000" 1; ic "11000000" 1 ] in
  let r = Igreedy.igreedy_code ~num_states:8 ics in
  Alcotest.(check int) "both satisfied" 2 (List.length r.Igreedy.satisfied)

(* --- out_encoder --------------------------------------------------------- *)

let test_out_encoder_chain () =
  let ocs =
    [
      { Constraints.covering = 1; covered = 0 };
      { Constraints.covering = 2; covered = 1 };
      { Constraints.covering = 3; covered = 2 };
    ]
  in
  let e = Out_encoder.out_encoder ~num_states:4 ocs in
  check "all covering relations hold" true (List.for_all (Constraints.oc_satisfied e) ocs)

let test_out_encoder_diamond () =
  let ocs =
    [
      { Constraints.covering = 3; covered = 1 };
      { Constraints.covering = 3; covered = 2 };
      { Constraints.covering = 1; covered = 0 };
      { Constraints.covering = 2; covered = 0 };
    ]
  in
  let e = Out_encoder.out_encoder ~num_states:4 ocs in
  check "diamond satisfied" true (List.for_all (Constraints.oc_satisfied e) ocs)

let test_out_encoder_budget () =
  (* A covering chain of 6 states wants thermometer codes (5+ bits); a
     3-bit budget must cap the width even at the cost of dropping
     relations. *)
  let ocs =
    List.init 5 (fun i -> { Constraints.covering = i + 1; covered = i })
  in
  let unbounded = Out_encoder.out_encoder ~num_states:6 ocs in
  check "unbounded satisfies the chain" true (List.for_all (Constraints.oc_satisfied unbounded) ocs);
  let bounded = Out_encoder.out_encoder ~num_states:6 ~max_bits:3 ocs in
  check "budget respected" true (bounded.Encoding.nbits <= 3);
  Alcotest.(check int) "codes still distinct" 6 (List.length (Encoding.used_codes bounded))

let test_out_encoder_cycle () =
  let ocs =
    [ { Constraints.covering = 0; covered = 1 }; { Constraints.covering = 1; covered = 0 } ]
  in
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Out_encoder: covering relations form a cycle") (fun () ->
      ignore (Out_encoder.out_encoder ~num_states:2 ocs))

let prop_out_encoder =
  QCheck.Test.make ~name:"out_encoder satisfies random DAGs" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 3 10))
    (fun (seed, n) ->
      (* random DAG: edges only from higher to lower indices *)
      let rng = Random.State.make [| seed |] in
      let ocs = ref [] in
      for u = 1 to n - 1 do
        for v = 0 to u - 1 do
          if Random.State.int rng 4 = 0 then
            ocs := { Constraints.covering = u; covered = v } :: !ocs
        done
      done;
      let e = Out_encoder.out_encoder ~num_states:n !ocs in
      List.for_all (Constraints.oc_satisfied e) !ocs
      && List.length (Encoding.used_codes e) = n)

(* --- iohybrid on the paper's Example 6.2.2 ------------------------------ *)

(* (IC_i; OC_i; w_i) from the paper, states 1..8 -> 0..7. The paper's
   solution ENC = (000, 010, 100, 110, 001, 011, 101, 111) satisfies all
   covering relations; we first validate our satisfaction predicates on
   that solution, then check our encoder handles the instance. *)
let paper_clusters =
  let oc u v = { Constraints.covering = u - 1; covered = v - 1 } in
  [
    {
      Constraints.next_state = 0;
      edges = [ oc 2 1; oc 3 1; oc 4 1; oc 5 1; oc 6 1; oc 7 1; oc 8 1 ];
      oc_weight = 4;
      companion = [];
    };
    { Constraints.next_state = 1; edges = [ oc 6 2 ]; oc_weight = 1; companion = [ Bitvec.of_string "00110000" ] };
    { Constraints.next_state = 2; edges = [ oc 7 3 ]; oc_weight = 2; companion = [ Bitvec.of_string "00001100" ] };
    { Constraints.next_state = 3; edges = [ oc 8 4 ]; oc_weight = 1; companion = [ Bitvec.of_string "00000011" ] };
    {
      Constraints.next_state = 4;
      edges = [ oc 6 5; oc 7 5; oc 8 5 ];
      oc_weight = 1;
      companion = [];
    };
  ]

let paper_ics =
  [
    ic "01010101" 1;  (* IC_o *)
    ic "00110000" 1; ic "00001100" 2; ic "00000011" 1;
  ]

let paper_solution =
  (* state i (1-based) -> the paper's code, MSB first: 000,010,100,110,001,011,101,111 *)
  Encoding.make ~nbits:3
    (Array.of_list (List.map (fun s -> int_of_string ("0b" ^ s))
       [ "000"; "010"; "100"; "110"; "001"; "011"; "101"; "111" ]))

let test_paper_solution_valid () =
  List.iter
    (fun cl ->
      check
        (Printf.sprintf "cluster %d satisfied by paper ENC" cl.Constraints.next_state)
        true
        (Constraints.cluster_satisfied paper_solution cl))
    paper_clusters;
  (* The companion input constraints of the paper solution. *)
  List.iter
    (fun (g, expect) ->
      check (Printf.sprintf "ic %s" g) expect
        (Constraints.satisfied paper_solution (Bitvec.of_string g)))
    [ ("00110000", true); ("00001100", true); ("00000011", true); ("01010101", true) ]

let test_iohybrid_paper_example () =
  let problem = { Iohybrid.num_states = 8; ics = paper_ics; clusters = paper_clusters } in
  let r = Iohybrid.iohybrid_code ~nbits:3 problem in
  Alcotest.(check int) "3 bits" 3 r.Iohybrid.encoding.Encoding.nbits;
  (* The encoder must report consistently with its own encoding. *)
  List.iter
    (fun (c : Constraints.input_constraint) ->
      check "sat report consistent" true
        (Constraints.satisfied r.Iohybrid.encoding c.Constraints.states))
    r.Iohybrid.sat_inputs;
  List.iter
    (fun cl -> check "cluster report consistent" true (Constraints.cluster_satisfied r.Iohybrid.encoding cl))
    r.Iohybrid.sat_clusters

let test_iovariant_runs () =
  let problem = { Iohybrid.num_states = 8; ics = paper_ics; clusters = paper_clusters } in
  let r = Iohybrid.iovariant_code ~nbits:3 problem in
  check "valid encoding" true (List.length (Encoding.used_codes r.Iohybrid.encoding) = 8)

let test_iohybrid_pure_output () =
  (* No input constraints: falls back to out_encoder. *)
  let problem =
    {
      Iohybrid.num_states = 3;
      ics = [];
      clusters =
        [
          {
            Constraints.next_state = 0;
            edges = [ { Constraints.covering = 1; covered = 0 } ];
            oc_weight = 1;
            companion = [];
          };
        ];
    }
  in
  let r = Iohybrid.iohybrid_code problem in
  check "covering satisfied" true
    (Constraints.oc_satisfied r.Iohybrid.encoding { Constraints.covering = 1; covered = 0 })

(* --- the embedding engine is sound: success means satisfaction --------- *)

let prop_semiexact_sound =
  QCheck.Test.make ~name:"semiexact success satisfies every constraint" ~count:100
    QCheck.(triple (int_bound 10_000) (int_range 4 9) (int_range 0 2))
    (fun (seed, n, extra) ->
      let groups = random_groups seed n 5 in
      let k = Encoding.min_code_length n + extra in
      match Iexact.semiexact_code ~num_states:n ~k groups with
      | None -> true
      | Some codes ->
          let e = Encoding.make ~nbits:k codes in
          List.length (Encoding.used_codes e) = n
          && List.for_all (fun g -> Constraints.satisfied e g) groups)

let prop_io_semiexact_sound =
  QCheck.Test.make ~name:"io_semiexact success satisfies covering relations" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 4 8))
    (fun (seed, n) ->
      let groups = random_groups seed n 3 in
      let rng = Random.State.make [| seed; 42 |] in
      (* A small random DAG of covering relations (higher covers lower). *)
      let ocs = ref [] in
      for u = 1 to n - 1 do
        for v = 0 to u - 1 do
          if Random.State.int rng 6 = 0 then
            ocs := { Constraints.covering = u; covered = v } :: !ocs
        done
      done;
      let k = Encoding.min_code_length n + 1 in
      match Iexact.semiexact_code ~num_states:n ~k ~output_constraints:!ocs groups with
      | None -> true
      | Some codes ->
          let e = Encoding.make ~nbits:k codes in
          List.for_all (fun g -> Constraints.satisfied e g) groups
          && List.for_all (Constraints.oc_satisfied e) !ocs)

(* --- mincube_dim sanity over random instances --------------------------- *)

let prop_mincube_lower_bound =
  QCheck.Test.make ~name:"iexact answer >= mincube_dim (bound validity)" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 4 7))
    (fun (seed, n) ->
      let groups = random_groups seed n 4 in
      match groups with
      | [] -> true
      | _ -> (
          let poset = Input_poset.build ~num_states:n groups in
          let bound = Input_poset.mincube_dim poset in
          match Iexact.iexact_code ~num_states:n ~max_work:200_000 groups with
          | Iexact.Sat { k; _ } -> k >= bound
          | Iexact.Exhausted -> true))

let suite =
  [
    Alcotest.test_case "project basic" `Quick test_project_basic;
    Alcotest.test_case "project requires ric" `Quick test_project_requires_ric;
    QCheck_alcotest.to_alcotest prop_project;
    Alcotest.test_case "ihybrid satisfiable" `Quick test_ihybrid_satisfiable;
    Alcotest.test_case "ihybrid projection growth" `Quick test_ihybrid_projection_growth;
    Alcotest.test_case "ihybrid no constraints" `Quick test_ihybrid_empty_constraints;
    Alcotest.test_case "min_code_length" `Quick test_min_code_length;
    QCheck_alcotest.to_alcotest prop_ihybrid_consistent;
    QCheck_alcotest.to_alcotest prop_ihybrid_full_space;
    QCheck_alcotest.to_alcotest prop_igreedy_consistent;
    Alcotest.test_case "igreedy nested family" `Quick test_igreedy_nested;
    Alcotest.test_case "out_encoder chain" `Quick test_out_encoder_chain;
    Alcotest.test_case "out_encoder diamond" `Quick test_out_encoder_diamond;
    Alcotest.test_case "out_encoder budget" `Quick test_out_encoder_budget;
    Alcotest.test_case "out_encoder cycle" `Quick test_out_encoder_cycle;
    QCheck_alcotest.to_alcotest prop_out_encoder;
    Alcotest.test_case "paper ENC satisfies Example 6.2.2" `Quick test_paper_solution_valid;
    Alcotest.test_case "iohybrid on Example 6.2.2" `Quick test_iohybrid_paper_example;
    Alcotest.test_case "iovariant runs" `Quick test_iovariant_runs;
    Alcotest.test_case "iohybrid pure-output fallback" `Quick test_iohybrid_pure_output;
    QCheck_alcotest.to_alcotest prop_semiexact_sound;
    QCheck_alcotest.to_alcotest prop_io_semiexact_sound;
    QCheck_alcotest.to_alcotest prop_mincube_lower_bound;
  ]
