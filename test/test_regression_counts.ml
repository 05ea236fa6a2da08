(* Regression pins for the minimizer's product-term counts.

   The fast unate-aware kernels must not change what the minimizer
   produces — only how fast it produces it. These pins were measured on
   the seed implementation under two deterministic encodings (1-hot and
   ihybrid, both encoding paths are deterministic for these machines)
   and are asserted as upper bounds, so a future genuinely-better
   minimizer passes while a silent quality regression fails. *)

let pins =
  (* (machine, 1-hot product terms, ihybrid product terms) *)
  [
    ("lion", 8, 5);
    ("bbtas", 19, 14);
    ("shiftreg", 16, 4);
    ("modulo12", 24, 17);
    ("dk15", 14, 11);
    ("beecount", 11, 8);
    ("dk27", 6, 6);
    ("dol", 6, 7);
    ("train11", 7, 7);
    ("lion9", 5, 5);
  ]

let check_le name bound actual =
  if actual > bound then
    Alcotest.failf "%s: %d product terms, regression over the pinned %d" name actual bound

let test_onehot_counts () =
  List.iter
    (fun (nm, onehot_pin, _) ->
      let m = Benchmarks.Suite.find nm in
      let r = Encoded.implement m (Encoding.one_hot (Fsm.num_states ~m)) in
      check_le (nm ^ "/onehot") onehot_pin r.Encoded.num_cubes)
    pins

let test_ihybrid_counts () =
  List.iter
    (fun (nm, _, ihybrid_pin) ->
      let m = Benchmarks.Suite.find nm in
      match Harness.Driver.report m Harness.Driver.Ihybrid with
      | Error e -> Alcotest.failf "%s: %s" nm (Nova_error.to_string e)
      | Ok (_, r) -> check_le (nm ^ "/ihybrid") ihybrid_pin r.Encoded.num_cubes)
    pins

(* Exact "same search" pins: the work the face-embedding search charges
   to the budget, the rung that produced the encoding, and the codes.
   They are equalities, not bounds: the search's candidate order,
   verdicts and ticks are its specification, and a faster search must
   reproduce them exactly. bbara's capped iexact runs out of its 400k
   budget and degrades to igreedy. *)
let search_pins =
  let open Harness.Driver in
  [
    ("lion", Ihybrid, None, 48, Rung_ihybrid, 2, [ 0; 1; 3; 2 ]);
    ("dk15", Ihybrid, None, 53, Rung_ihybrid, 2, [ 2; 3; 0; 1 ]);
    ( "keyb", Ihybrid, None, 1408, Rung_ihybrid, 5,
      [ 16; 24; 4; 17; 12; 0; 13; 8; 25; 5; 1; 18; 9; 2; 19; 20; 6; 21; 7 ] );
    ("bbara", Ihybrid, None, 26844, Rung_ihybrid, 4, [ 0; 2; 7; 1; 5; 8; 3; 6; 10; 9 ]);
    ( "dk16", Ihybrid, None, 190568, Rung_ihybrid, 5,
      [ 20; 4; 0; 8; 21; 24; 25; 9; 10; 11; 16; 26; 5; 22; 17; 12; 18; 1; 2; 27; 28; 29; 30; 6;
        31; 19; 3 ] );
    ("lion", Iexact, Some 400_000, 42, Rung_iexact, 3, [ 0; 2; 1; 4 ]);
    ( "keyb", Iexact, Some 400_000, 268, Rung_iexact, 5,
      [ 16; 24; 4; 17; 12; 0; 13; 8; 25; 5; 1; 18; 9; 2; 19; 20; 6; 21; 7 ] );
    ("bbara", Iexact, Some 400_000, 400_001, Rung_igreedy, 4, [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
  ]

let test_search_pins () =
  List.iter
    (fun (nm, algo, max_work, spent, rung, nbits, codes) ->
      let ctx = Printf.sprintf "%s/%s" nm (Harness.Driver.name algo) in
      let budget =
        match max_work with
        | None -> Budget.create ()
        | Some max_work -> Budget.create ~max_work ()
      in
      match Harness.Driver.encode ~budget (Benchmarks.Suite.find nm) algo with
      | Error e -> Alcotest.failf "%s: %s" ctx (Nova_error.to_string e)
      | Ok o ->
          let enc = o.Harness.Driver.encoding in
          Alcotest.(check int) (ctx ^ " Budget.spent") spent (Budget.spent budget);
          Alcotest.(check string)
            (ctx ^ " produced_by") (Harness.Driver.rung_name rung)
            (Harness.Driver.rung_name o.Harness.Driver.produced_by);
          Alcotest.(check int) (ctx ^ " nbits") nbits enc.Encoding.nbits;
          Alcotest.(check (list int))
            (ctx ^ " codes") codes
            (List.init (Encoding.num_states enc) (Encoding.code enc)))
    search_pins

(* Exact-code pins of the paper's two encoding steps, accretion and
   projection, through every caller: ihybrid, iohybrid and iovariant,
   iexact's last resort and the driver's iexact ladder. Each pin is the
   MD5 of one canonical line: code length, codes, the claimed groups in
   order (state sets, then covering pairs), whether the search started
   from the seeded random encoding, and [Budget.spent]. *)
let digest ~nbits ~codes ~groups ~random_start ~spent =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "%d|%s|%s|%b|%d" nbits (ints (Array.to_list codes))
    (String.concat ";" (List.map ints groups))
    random_start spent
  |> Digest.string |> Digest.to_hex

let groups ics = List.map (fun (ic : Constraints.input_constraint) -> Bitvec.to_list ic.Constraints.states) ics

(* [(label, run)]: [run ()] is the digest of one call on a fresh root
   budget. The ihybrid runs at [max_work] 1 fail every accretion step
   and so start from the seeded random encoding. *)
let step_cases =
  let ics m = Constraints.of_symbolic (Symbolic.of_fsm m) in
  let ihybrid ?max_work extra nm =
    ( Printf.sprintf "%s/ihybrid+%d%s" nm extra
        (match max_work with Some w -> Printf.sprintf "/w%d" w | None -> ""),
      fun () ->
        let m = Benchmarks.Suite.find nm in
        let budget = Budget.create () in
        let r =
          Ihybrid.ihybrid_code ~num_states:(Fsm.num_states ~m)
            ~nbits:(Fsm.min_code_length m + extra) ?max_work ~budget (ics m)
        in
        let e = r.Ihybrid.encoding in
        digest ~nbits:e.Encoding.nbits ~codes:e.Encoding.codes ~groups:(groups r.Ihybrid.satisfied)
          ~random_start:r.Ihybrid.random_start ~spent:(Budget.spent budget) )
  in
  let io variant nm =
    ( Printf.sprintf "%s/%s+2" nm (if variant then "iovariant" else "iohybrid"),
      fun () ->
        let m = Benchmarks.Suite.find nm in
        let p = (Symbmin.run (Symbolic.of_fsm m)).Symbmin.problem in
        let budget = Budget.create () in
        let code = if variant then Iohybrid.iovariant_code else Iohybrid.iohybrid_code in
        let r = code ~nbits:(Fsm.min_code_length m + 2) ~budget p in
        let pairs =
          List.concat_map
            (fun (cl : Constraints.oc_cluster) ->
              List.map
                (fun (oc : Constraints.output_constraint) -> [ oc.Constraints.covering; oc.Constraints.covered ])
                cl.Constraints.edges)
            r.Iohybrid.sat_clusters
        in
        let e = r.Iohybrid.encoding in
        digest ~nbits:e.Encoding.nbits ~codes:e.Encoding.codes
          ~groups:(groups r.Iohybrid.sat_inputs @ pairs) ~random_start:r.Iohybrid.random_start
          ~spent:(Budget.spent budget) )
  in
  let last_resort nm =
    ( nm ^ "/iexact-last-resort",
      fun () ->
        let m = Benchmarks.Suite.find nm in
        let budget = Budget.create () in
        let groups = Project.states (ics m) in
        match Iexact.iexact_code ~num_states:(Fsm.num_states ~m) ~max_work:100 ~budget groups with
        | Iexact.Sat { k; codes; proven = false } ->
            digest ~nbits:k ~codes ~groups:[] ~random_start:false ~spent:(Budget.spent budget)
        | Iexact.Sat { proven = true; _ } -> "proven"
        | Iexact.Exhausted -> "exhausted" )
  in
  (* The driver's iexact ladder under a cap that trips iexact and
     semiexact: the project rung runs and fails on the tripped budget,
     and igreedy answers. *)
  let ladder nm max_work =
    ( Printf.sprintf "%s/driver-iexact/w%d" nm max_work,
      fun () ->
        let budget = Budget.create ~max_work () in
        match Harness.Driver.encode ~budget (Benchmarks.Suite.find nm) Harness.Driver.Iexact with
        | Error e -> Nova_error.to_string e
        | Ok o ->
            let open Harness.Driver in
            let path = List.map (fun (r, _) -> rung_name r) o.degradations @ [ rung_name o.produced_by ] in
            String.concat ">" path ^ ":"
            ^ digest ~nbits:o.encoding.Encoding.nbits ~codes:o.encoding.Encoding.codes
                ~groups:(List.map Bitvec.to_list o.claims.Check.claimed_ics)
                ~random_start:false ~spent:(Budget.spent budget) )
  in
  List.concat_map (fun nm -> [ ihybrid 0 nm; ihybrid 2 nm; ihybrid ~max_work:1 2 nm ]) [ "bbara"; "dk16"; "sand" ]
  @ List.concat_map (fun nm -> [ io false nm; io true nm ]) [ "dk16"; "bbsse"; "sand" ]
  @ List.map last_resort [ "dk14"; "scud"; "bbara"; "dk16" ]
  @ [ ladder "dk14" 20_000; ladder "bbsse" 20_000 ]

(* Generated by the earlier per-caller copies of the two steps. *)
let step_pins =
  [
    ("bbara/ihybrid+0", "d2f80fc49bea71f8988fe9ff5dc83101");
    ("bbara/ihybrid+2", "73fe70dc9ab50af50fdcf5c842d9d700");
    ("bbara/ihybrid+2/w1", "fb3516b6ca00924fdbcc1501f759be12");
    ("dk16/ihybrid+0", "57a1bda51c06b296e76786cdf07e4610");
    ("dk16/ihybrid+2", "7d5283f14043397eab315426d99fb413");
    ("dk16/ihybrid+2/w1", "da33b5d30cd4c083005fdb909015be69");
    ("sand/ihybrid+0", "cc628772537f6bd2abf126e8a6f6fa42");
    ("sand/ihybrid+2", "d2ddbc9968515b99c9a85da704ae3aee");
    ("sand/ihybrid+2/w1", "c5411f50109202015e65d9d5ef4c6978");
    ("dk16/iohybrid+2", "c1969cc932e85fd2f32e20b02efb22bc");
    ("dk16/iovariant+2", "3a5c8281ee7f3abd0d73e8b2f27336a1");
    ("bbsse/iohybrid+2", "5267f5c0450f32f7b8935e63aef63483");
    ("bbsse/iovariant+2", "94367c5ebec811c615da3a188aaf2919");
    ("sand/iohybrid+2", "d1a8126ffc9878a3d94fe9998dbe4263");
    ("sand/iovariant+2", "d1a8126ffc9878a3d94fe9998dbe4263");
    ("dk14/iexact-last-resort", "6d145cbc49b859e366fefcde007d4adb");
    ("scud/iexact-last-resort", "234a58e1c7ec4e1e623813f09f956baf");
    ("bbara/iexact-last-resort", "bcc26b84a55a8c0324465e4787d02a0c");
    ("dk16/iexact-last-resort", "15e196a20a73a215a3819d2939e627c2");
    ("dk14/driver-iexact/w20000", "iexact>semiexact>project>igreedy:d68757b0ef19daa713207ddc9654ab2e");
    ("bbsse/driver-iexact/w20000", "iexact>semiexact>project>igreedy:14cbd7ba9a9ad575ea47a3671527139a");
  ]

let test_step_pins () =
  let wrong =
    List.filter_map
      (fun (label, run) ->
        let got = run () in
        if List.assoc_opt label step_pins = Some got then None
        else Some (Printf.sprintf "(%S, %S)" label got))
      step_cases
  in
  if wrong <> [] then Alcotest.failf "digests off their pins:\n%s" (String.concat ";\n" wrong)

let suite =
  [
    Alcotest.test_case "1-hot product terms stay at or below the seed pins" `Quick
      test_onehot_counts;
    Alcotest.test_case "ihybrid product terms stay at or below the seed pins" `Quick
      test_ihybrid_counts;
    Alcotest.test_case "search work, rung and codes match the exact pins" `Quick
      test_search_pins;
    Alcotest.test_case "accretion and projection codes match the exact pins" `Quick
      test_step_pins;
  ]
