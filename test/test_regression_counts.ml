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

(* Symbolic minimization (Section 6.1) on every non-heavy suite
   machine: the MD5 of its final cover, its accepted covering graph,
   the encoder problem's input constraints in order, and its clusters. *)
let symbmin_digest m =
  let sm = Symbmin.run (Symbolic.of_fsm m) in
  let ints l = String.concat "," (List.map string_of_int l) in
  let bits l = String.concat "," (List.map Bitvec.to_string l) in
  let ic (ic : Constraints.input_constraint) =
    Printf.sprintf "%s/%d" (Bitvec.to_string ic.Constraints.states) ic.Constraints.weight
  in
  let cluster (cl : Constraints.oc_cluster) =
    Printf.sprintf "%d:%s:%d:%s" cl.Constraints.next_state
      (ints
         (List.concat_map
            (fun (oc : Constraints.output_constraint) ->
              [ oc.Constraints.covering; oc.Constraints.covered ])
            cl.Constraints.edges))
      cl.Constraints.oc_weight (bits cl.Constraints.companion)
  in
  let p = sm.Symbmin.problem in
  String.concat "|"
    [
      bits sm.Symbmin.final_cover.Logic.Cover.cubes;
      ints (List.concat_map (fun (u, v, w) -> [ u; v; w ]) sm.Symbmin.graph);
      String.concat ";" (List.map ic p.Iohybrid.ics);
      String.concat ";" (List.map cluster p.Iohybrid.clusters);
    ]
  |> Digest.string |> Digest.to_hex

let symbmin_cases =
  List.filter_map
    (fun (e : Benchmarks.Suite.entry) ->
      if e.Benchmarks.Suite.heavy then None
      else
        let nm = e.Benchmarks.Suite.name in
        Some (nm ^ "/symbmin", fun () -> symbmin_digest (Benchmarks.Suite.find nm)))
    Benchmarks.Suite.all

(* Generated by the parsing symbolic minimization. *)
let symbmin_pins =
  [
    ("lion/symbmin", "190cb68de209fdbec9f374e47c95e753");
    ("dk15/symbmin", "c8951d09b292db445a7af7eb1a93a515");
    ("tav/symbmin", "71c0d7b9228a7d076010011fa5db0bfa");
    ("bbtas/symbmin", "6fdb0136a13e9296221d19a6483857b6");
    ("beecount/symbmin", "fbe8454b25aaeca9e8756c9cbff536d8");
    ("dk14/symbmin", "e0655737592a2645da2e0bedfd19d03f");
    ("dk27/symbmin", "4ed2b42cfc658e8a644eabf1a13dc293");
    ("dk17/symbmin", "b9a6a6361c6ab30c13829fdc1d7731a2");
    ("dol/symbmin", "9f40467975a3788ba95ab4f768970d94");
    ("ex6/symbmin", "1d7a903ca1e0904e4613b8903e8ed0e5");
    ("scud/symbmin", "ee220ebf610dfbfbad1952bfe2962a8d");
    ("shiftreg/symbmin", "a003aba303ecbc56a92a685d7d0b7b0f");
    ("ex5/symbmin", "8448cc0aaa0d87724e64a74fa25057c2");
    ("lion9/symbmin", "e2720dd12abbc0e8f0ebd51f0f34e0e5");
    ("bbara/symbmin", "2d88f2b35fabcd6a2cbe95e0f1381162");
    ("ex3/symbmin", "f9107133fc0aa72726d539a4c3eeec5e");
    ("iofsm/symbmin", "5b354c3cdde0fcae20f72dcd2cf8a2b5");
    ("physrec/symbmin", "91ea3158483c19ac51299867129fe590");
    ("train11/symbmin", "311c8c02754fccb3d6fef89a36e33338");
    ("modulo12/symbmin", "8f07be37c4bef4d6121d41c323b073ff");
    ("dk512/symbmin", "a7663820a74feb644323e5d834beb43b");
    ("mark1/symbmin", "9b6b01782fec145db03d0bfec98c6fee");
    ("bbsse/symbmin", "d9f2e531c429c2a010de9a94b16b7506");
    ("cse/symbmin", "39e162e4f672529a43db493ccff5d653");
    ("ex2/symbmin", "05db455a2558ffa6342d0de3c74ef254");
    ("keyb/symbmin", "a85ed2d86acfe88da74293adb1bd2835");
    ("ex1/symbmin", "969ec5593ec4979f261fb8295d90d95a");
    ("s1/symbmin", "645c0ecebcf96b026801c2222e2080c5");
    ("donfile/symbmin", "e5df43bf0edb11dcca9c3f36f94c4bf2");
    ("dk16/symbmin", "1e92585835840438ea73035f7d8b33cf");
    ("styr/symbmin", "1c54f7508ee3847816a7a13d9a36f6ff");
    ("sand/symbmin", "6393b8370273dd97d4a32413e025db36");
  ]

(* [Driver.report] without [?ctx], for every spelling on four
   machines under four budgets: the MD5 of the code length, the codes,
   the producing rung, the degradations, the claims in order, the
   cover, [Budget.spent], and the ESPRESSO calls and embedding ticks
   the call counted. *)
let report_digest m algo max_work =
  let budget =
    match max_work with Some max_work -> Budget.create ~max_work () | None -> Budget.create ()
  in
  let event name = Metrics.Registry.counter_value (Metrics.event name) in
  let calls0 = event "espresso.minimize_calls" and ticks0 = event "embed.work_ticks" in
  let outcome =
    match Harness.Driver.report ~budget m algo with
    | Error e -> Nova_error.to_string e
    | Ok (o, impl) ->
        let open Harness.Driver in
        let ints l = String.concat "," (List.map string_of_int l) in
        Printf.sprintf "%d|%s|%s|%s|%s|%s|%s" o.encoding.Encoding.nbits
          (ints (Array.to_list o.encoding.Encoding.codes))
          (rung_name o.produced_by)
          (String.concat ";"
             (List.map (fun (r, e) -> rung_name r ^ ":" ^ Nova_error.to_string e) o.degradations))
          (String.concat ";" (List.map Bitvec.to_string o.claims.Check.claimed_ics))
          (ints (List.concat_map (fun (u, v) -> [ u; v ]) o.claims.Check.claimed_ocs))
          (String.concat "," (List.map Bitvec.to_string impl.Encoded.cover.Logic.Cover.cubes))
  in
  Printf.sprintf "%s|%d|%d|%d" outcome (Budget.spent budget)
    (event "espresso.minimize_calls" - calls0)
    (event "embed.work_ticks" - ticks0)
  |> Digest.string |> Digest.to_hex

let report_cases =
  let algorithms = Harness.Driver.named_algorithms @ [ Harness.Driver.Random 0 ] in
  List.concat_map
    (fun nm ->
      List.concat_map
        (fun algo ->
          List.map
            (fun max_work ->
              ( Printf.sprintf "%s/report-%s/%s" nm (Harness.Driver.name algo)
                  (match max_work with Some w -> Printf.sprintf "w%d" w | None -> "unlimited"),
                fun () -> report_digest (Benchmarks.Suite.find nm) algo max_work ))
            [ None; Some 500; Some 5_000; Some 40_000 ])
        algorithms)
    [ "lion"; "bbara"; "dk16"; "sand" ]

(* Generated by the driver's context-free path, before every call ran
   on a context. *)
let report_pins =
  [
    ("lion/report-ihybrid/unlimited", "589c71b435e016f2f3e5b76d1ed24647");
    ("lion/report-ihybrid/w500", "589c71b435e016f2f3e5b76d1ed24647");
    ("lion/report-ihybrid/w5000", "589c71b435e016f2f3e5b76d1ed24647");
    ("lion/report-ihybrid/w40000", "589c71b435e016f2f3e5b76d1ed24647");
    ("lion/report-igreedy/unlimited", "975079cb5c044da6a801ac84cb721786");
    ("lion/report-igreedy/w500", "975079cb5c044da6a801ac84cb721786");
    ("lion/report-igreedy/w5000", "975079cb5c044da6a801ac84cb721786");
    ("lion/report-igreedy/w40000", "975079cb5c044da6a801ac84cb721786");
    ("lion/report-iohybrid/unlimited", "d777f63f7391853f36a4aa69bdb7aef4");
    ("lion/report-iohybrid/w500", "d777f63f7391853f36a4aa69bdb7aef4");
    ("lion/report-iohybrid/w5000", "d777f63f7391853f36a4aa69bdb7aef4");
    ("lion/report-iohybrid/w40000", "d777f63f7391853f36a4aa69bdb7aef4");
    ("lion/report-iovariant/unlimited", "3e85a3929b64a31aec413f2f10e27ba1");
    ("lion/report-iovariant/w500", "3e85a3929b64a31aec413f2f10e27ba1");
    ("lion/report-iovariant/w5000", "3e85a3929b64a31aec413f2f10e27ba1");
    ("lion/report-iovariant/w40000", "3e85a3929b64a31aec413f2f10e27ba1");
    ("lion/report-iexact/unlimited", "18aac6a12f9f74b981c312a4289a90bd");
    ("lion/report-iexact/w500", "18aac6a12f9f74b981c312a4289a90bd");
    ("lion/report-iexact/w5000", "18aac6a12f9f74b981c312a4289a90bd");
    ("lion/report-iexact/w40000", "18aac6a12f9f74b981c312a4289a90bd");
    ("lion/report-kiss/unlimited", "913716acfde2009c5dfc0dc4c7302121");
    ("lion/report-kiss/w500", "913716acfde2009c5dfc0dc4c7302121");
    ("lion/report-kiss/w5000", "913716acfde2009c5dfc0dc4c7302121");
    ("lion/report-kiss/w40000", "913716acfde2009c5dfc0dc4c7302121");
    ("lion/report-onehot/unlimited", "50b3139b352ab6368ba6028ff5d839f8");
    ("lion/report-onehot/w500", "50b3139b352ab6368ba6028ff5d839f8");
    ("lion/report-onehot/w5000", "50b3139b352ab6368ba6028ff5d839f8");
    ("lion/report-onehot/w40000", "50b3139b352ab6368ba6028ff5d839f8");
    ("lion/report-mustang-n/unlimited", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-n/w500", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-n/w5000", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-n/w40000", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-nt/unlimited", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-nt/w500", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-nt/w5000", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-nt/w40000", "6faf0af0ed003828732e0a630f611e64");
    ("lion/report-mustang-p/unlimited", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-p/w500", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-p/w5000", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-p/w40000", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-pt/unlimited", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-pt/w500", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-pt/w5000", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-mustang-pt/w40000", "76fb8ec30816de19dea43b671690c3f6");
    ("lion/report-random[0]/unlimited", "ea1566f754eafebc94c8a8e3bfd0d6aa");
    ("lion/report-random[0]/w500", "ea1566f754eafebc94c8a8e3bfd0d6aa");
    ("lion/report-random[0]/w5000", "ea1566f754eafebc94c8a8e3bfd0d6aa");
    ("lion/report-random[0]/w40000", "ea1566f754eafebc94c8a8e3bfd0d6aa");
    ("bbara/report-ihybrid/unlimited", "166472e55d12b510275f318080636e50");
    ("bbara/report-ihybrid/w500", "214638eef38d39a46f94ef43e4d0f32e");
    ("bbara/report-ihybrid/w5000", "fa070f927513180a0c28f29cc66a8f08");
    ("bbara/report-ihybrid/w40000", "166472e55d12b510275f318080636e50");
    ("bbara/report-igreedy/unlimited", "49ad18c621bc59a1fae068e9130bcbdf");
    ("bbara/report-igreedy/w500", "49ad18c621bc59a1fae068e9130bcbdf");
    ("bbara/report-igreedy/w5000", "49ad18c621bc59a1fae068e9130bcbdf");
    ("bbara/report-igreedy/w40000", "49ad18c621bc59a1fae068e9130bcbdf");
    ("bbara/report-iohybrid/unlimited", "92516b1df583957f7262dbd4fed576e5");
    ("bbara/report-iohybrid/w500", "761850f9ccbc9506270889e33b4569b4");
    ("bbara/report-iohybrid/w5000", "7e63acfb16cf5efeab23a6e87def61a1");
    ("bbara/report-iohybrid/w40000", "92516b1df583957f7262dbd4fed576e5");
    ("bbara/report-iovariant/unlimited", "70ed0a2340bfb6b18fab8c6177a1496a");
    ("bbara/report-iovariant/w500", "1522fafaf22293e804ad63a68bfa1a93");
    ("bbara/report-iovariant/w5000", "70ed0a2340bfb6b18fab8c6177a1496a");
    ("bbara/report-iovariant/w40000", "70ed0a2340bfb6b18fab8c6177a1496a");
    ("bbara/report-iexact/unlimited", "96d45738e43a19bd7bf8ecf42f7f0139");
    ("bbara/report-iexact/w500", "0dd27e221976202c3d98230babcbcc1c");
    ("bbara/report-iexact/w5000", "2b0e1f84f9a62370ba80e4361fd71dc7");
    ("bbara/report-iexact/w40000", "0940686cee6e9eb3be28ba5793381397");
    ("bbara/report-kiss/unlimited", "a43a9d67fd1b4374de1a58d076dd722e");
    ("bbara/report-kiss/w500", "a43a9d67fd1b4374de1a58d076dd722e");
    ("bbara/report-kiss/w5000", "a43a9d67fd1b4374de1a58d076dd722e");
    ("bbara/report-kiss/w40000", "a43a9d67fd1b4374de1a58d076dd722e");
    ("bbara/report-onehot/unlimited", "dd3766f0b9c6cb20e81f02d275bc978e");
    ("bbara/report-onehot/w500", "dd3766f0b9c6cb20e81f02d275bc978e");
    ("bbara/report-onehot/w5000", "dd3766f0b9c6cb20e81f02d275bc978e");
    ("bbara/report-onehot/w40000", "dd3766f0b9c6cb20e81f02d275bc978e");
    ("bbara/report-mustang-n/unlimited", "4efa7adc3d7eb2b45588fde600af43a4");
    ("bbara/report-mustang-n/w500", "4efa7adc3d7eb2b45588fde600af43a4");
    ("bbara/report-mustang-n/w5000", "4efa7adc3d7eb2b45588fde600af43a4");
    ("bbara/report-mustang-n/w40000", "4efa7adc3d7eb2b45588fde600af43a4");
    ("bbara/report-mustang-nt/unlimited", "5e2e73d8228fb71dcdd0fa4cc0543e85");
    ("bbara/report-mustang-nt/w500", "5e2e73d8228fb71dcdd0fa4cc0543e85");
    ("bbara/report-mustang-nt/w5000", "5e2e73d8228fb71dcdd0fa4cc0543e85");
    ("bbara/report-mustang-nt/w40000", "5e2e73d8228fb71dcdd0fa4cc0543e85");
    ("bbara/report-mustang-p/unlimited", "19462dd568f271cf224e9184dafe68a4");
    ("bbara/report-mustang-p/w500", "19462dd568f271cf224e9184dafe68a4");
    ("bbara/report-mustang-p/w5000", "19462dd568f271cf224e9184dafe68a4");
    ("bbara/report-mustang-p/w40000", "19462dd568f271cf224e9184dafe68a4");
    ("bbara/report-mustang-pt/unlimited", "48d97ad4e0c52cebf8c950efc2878ebd");
    ("bbara/report-mustang-pt/w500", "48d97ad4e0c52cebf8c950efc2878ebd");
    ("bbara/report-mustang-pt/w5000", "48d97ad4e0c52cebf8c950efc2878ebd");
    ("bbara/report-mustang-pt/w40000", "48d97ad4e0c52cebf8c950efc2878ebd");
    ("bbara/report-random[0]/unlimited", "af55e3ea78643a13693ba3dd607f87da");
    ("bbara/report-random[0]/w500", "af55e3ea78643a13693ba3dd607f87da");
    ("bbara/report-random[0]/w5000", "af55e3ea78643a13693ba3dd607f87da");
    ("bbara/report-random[0]/w40000", "af55e3ea78643a13693ba3dd607f87da");
    ("dk16/report-ihybrid/unlimited", "ba32cd590376fb647ceea06a7deb3d98");
    ("dk16/report-ihybrid/w500", "527a3ee4a1802aad98abd4a08ff62af1");
    ("dk16/report-ihybrid/w5000", "5c293f1c73e5984d18a3af6775280853");
    ("dk16/report-ihybrid/w40000", "1fa8a5387759112f06e3d38e2daa0eee");
    ("dk16/report-igreedy/unlimited", "103112e862f4cbac4926156847b07a29");
    ("dk16/report-igreedy/w500", "103112e862f4cbac4926156847b07a29");
    ("dk16/report-igreedy/w5000", "103112e862f4cbac4926156847b07a29");
    ("dk16/report-igreedy/w40000", "103112e862f4cbac4926156847b07a29");
    ("dk16/report-iohybrid/unlimited", "f39ae2b1840a6c7806395256f61f4831");
    ("dk16/report-iohybrid/w500", "416dbc22ae47c9d3875134595efbe6a4");
    ("dk16/report-iohybrid/w5000", "61b37cc01f545139937514e1b5e2b8de");
    ("dk16/report-iohybrid/w40000", "5ece72f9e94b2b60de6c2873c07ab34b");
    ("dk16/report-iovariant/unlimited", "1e78289d1f79fe4a2e319afba6380daf");
    ("dk16/report-iovariant/w500", "a86fef7a996ec316ca4286b841fb1ecf");
    ("dk16/report-iovariant/w5000", "e0f645c20ffc561b730dbed6cf7869ce");
    ("dk16/report-iovariant/w40000", "1e78289d1f79fe4a2e319afba6380daf");
    ("dk16/report-iexact/unlimited", "a2783dc2655e6f283c8afe3b8880ccfb");
    ("dk16/report-iexact/w500", "972ab4a58964bbda2b481efdfa7a39b0");
    ("dk16/report-iexact/w5000", "c6aecf8640a9d6ae0f8449868bee849c");
    ("dk16/report-iexact/w40000", "29214cab9fc6a02a0cf1fd46434d4ca4");
    ("dk16/report-kiss/unlimited", "2aeb438505d44eccb262f0fbc32afd5e");
    ("dk16/report-kiss/w500", "2aeb438505d44eccb262f0fbc32afd5e");
    ("dk16/report-kiss/w5000", "2aeb438505d44eccb262f0fbc32afd5e");
    ("dk16/report-kiss/w40000", "2aeb438505d44eccb262f0fbc32afd5e");
    ("dk16/report-onehot/unlimited", "21c91478b04d96067aaffcbfba942728");
    ("dk16/report-onehot/w500", "21c91478b04d96067aaffcbfba942728");
    ("dk16/report-onehot/w5000", "21c91478b04d96067aaffcbfba942728");
    ("dk16/report-onehot/w40000", "21c91478b04d96067aaffcbfba942728");
    ("dk16/report-mustang-n/unlimited", "6095ad568c3f586217a5d6e5cf0a02d3");
    ("dk16/report-mustang-n/w500", "6095ad568c3f586217a5d6e5cf0a02d3");
    ("dk16/report-mustang-n/w5000", "6095ad568c3f586217a5d6e5cf0a02d3");
    ("dk16/report-mustang-n/w40000", "6095ad568c3f586217a5d6e5cf0a02d3");
    ("dk16/report-mustang-nt/unlimited", "f343ca8c9b6467da77ab3a113e38a73e");
    ("dk16/report-mustang-nt/w500", "f343ca8c9b6467da77ab3a113e38a73e");
    ("dk16/report-mustang-nt/w5000", "f343ca8c9b6467da77ab3a113e38a73e");
    ("dk16/report-mustang-nt/w40000", "f343ca8c9b6467da77ab3a113e38a73e");
    ("dk16/report-mustang-p/unlimited", "cd86511a2ecdbb98f5f247145df36224");
    ("dk16/report-mustang-p/w500", "cd86511a2ecdbb98f5f247145df36224");
    ("dk16/report-mustang-p/w5000", "cd86511a2ecdbb98f5f247145df36224");
    ("dk16/report-mustang-p/w40000", "cd86511a2ecdbb98f5f247145df36224");
    ("dk16/report-mustang-pt/unlimited", "4fff4ec48c557e6ce40a325430bc1b4e");
    ("dk16/report-mustang-pt/w500", "4fff4ec48c557e6ce40a325430bc1b4e");
    ("dk16/report-mustang-pt/w5000", "4fff4ec48c557e6ce40a325430bc1b4e");
    ("dk16/report-mustang-pt/w40000", "4fff4ec48c557e6ce40a325430bc1b4e");
    ("dk16/report-random[0]/unlimited", "9335fbd15e3179a094f59f805f529ef6");
    ("dk16/report-random[0]/w500", "9335fbd15e3179a094f59f805f529ef6");
    ("dk16/report-random[0]/w5000", "9335fbd15e3179a094f59f805f529ef6");
    ("dk16/report-random[0]/w40000", "9335fbd15e3179a094f59f805f529ef6");
    ("sand/report-ihybrid/unlimited", "63f02ba8cdd014e6e18ee39838abdbf1");
    ("sand/report-ihybrid/w500", "1f15b968e78ea4e91d20a7ec773c4ab9");
    ("sand/report-ihybrid/w5000", "19241db511368fd9779b218c0c0d274c");
    ("sand/report-ihybrid/w40000", "622155f2c1eb671135f9761733a490af");
    ("sand/report-igreedy/unlimited", "0f3304df6deacccb32e423cbef67682f");
    ("sand/report-igreedy/w500", "a99b7e21c8850ea5f958ac4df91022f7");
    ("sand/report-igreedy/w5000", "0f3304df6deacccb32e423cbef67682f");
    ("sand/report-igreedy/w40000", "0f3304df6deacccb32e423cbef67682f");
    ("sand/report-iohybrid/unlimited", "7be5bfc582ea5683a7cd382e0e5d77c6");
    ("sand/report-iohybrid/w500", "690249c9004c41ad2fef7956c0b8730d");
    ("sand/report-iohybrid/w5000", "ab819e312fc215c3f1b5b57da3920f54");
    ("sand/report-iohybrid/w40000", "415c84f22dc9d50ed2b59de2bef10690");
    ("sand/report-iovariant/unlimited", "88ff0757ba2fb9c29ec5b8cb0bb6b5f1");
    ("sand/report-iovariant/w500", "a895463e879af3c515bbb68ecd2242b5");
    ("sand/report-iovariant/w5000", "63e06b2f6ed09ca51cf55d97ae3b73fd");
    ("sand/report-iovariant/w40000", "e867b442af6c4c6e31d872af95a1be68");
    ("sand/report-iexact/unlimited", "b31e81617ba2fecd4910f1ea5e3d359a");
    ("sand/report-iexact/w500", "9cee290ae0218b50d2cc50e799a69664");
    ("sand/report-iexact/w5000", "84c88e11bd9b82d97e64ee26c94b3bb4");
    ("sand/report-iexact/w40000", "c43c11e7132892d5ae4b924f346b91d1");
    ("sand/report-kiss/unlimited", "468a19f97642fd30f56feb26aa03fc30");
    ("sand/report-kiss/w500", "577bff9101380060034027fccdfc7330");
    ("sand/report-kiss/w5000", "468a19f97642fd30f56feb26aa03fc30");
    ("sand/report-kiss/w40000", "468a19f97642fd30f56feb26aa03fc30");
    ("sand/report-onehot/unlimited", "e929c2f99cc909799a149b61070c21a7");
    ("sand/report-onehot/w500", "e929c2f99cc909799a149b61070c21a7");
    ("sand/report-onehot/w5000", "e929c2f99cc909799a149b61070c21a7");
    ("sand/report-onehot/w40000", "e929c2f99cc909799a149b61070c21a7");
    ("sand/report-mustang-n/unlimited", "498872b98850a52bbd583c72a054be86");
    ("sand/report-mustang-n/w500", "498872b98850a52bbd583c72a054be86");
    ("sand/report-mustang-n/w5000", "498872b98850a52bbd583c72a054be86");
    ("sand/report-mustang-n/w40000", "498872b98850a52bbd583c72a054be86");
    ("sand/report-mustang-nt/unlimited", "ea27b0ddbf47c0b5418898fc66522941");
    ("sand/report-mustang-nt/w500", "ea27b0ddbf47c0b5418898fc66522941");
    ("sand/report-mustang-nt/w5000", "ea27b0ddbf47c0b5418898fc66522941");
    ("sand/report-mustang-nt/w40000", "ea27b0ddbf47c0b5418898fc66522941");
    ("sand/report-mustang-p/unlimited", "a5ff2fd6b9d9a448980c5f072a28b626");
    ("sand/report-mustang-p/w500", "fb48987ac062e6de0d30e74de187eb5c");
    ("sand/report-mustang-p/w5000", "a5ff2fd6b9d9a448980c5f072a28b626");
    ("sand/report-mustang-p/w40000", "a5ff2fd6b9d9a448980c5f072a28b626");
    ("sand/report-mustang-pt/unlimited", "d7c43c7cd0bb7a6fc660ea8777d189d3");
    ("sand/report-mustang-pt/w500", "409dc8143bfc5ca01aa373eb4ee6d2bd");
    ("sand/report-mustang-pt/w5000", "d7c43c7cd0bb7a6fc660ea8777d189d3");
    ("sand/report-mustang-pt/w40000", "d7c43c7cd0bb7a6fc660ea8777d189d3");
    ("sand/report-random[0]/unlimited", "d0a110d52052d77d298693f8bd055473");
    ("sand/report-random[0]/w500", "d0a110d52052d77d298693f8bd055473");
    ("sand/report-random[0]/w5000", "d0a110d52052d77d298693f8bd055473");
    ("sand/report-random[0]/w40000", "d0a110d52052d77d298693f8bd055473");
  ]

let check_digests cases pins =
  let wrong =
    List.filter_map
      (fun (label, run) ->
        let got = run () in
        if List.assoc_opt label pins = Some got then None
        else Some (Printf.sprintf "(%S, %S)" label got))
      cases
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
      (fun () -> check_digests step_cases step_pins);
    Alcotest.test_case "symbolic minimization matches the exact pins" `Quick
      (fun () -> check_digests symbmin_cases symbmin_pins);
    Alcotest.test_case "reports without a shared context match the exact pins" `Quick
      (fun () -> check_digests report_cases report_pins);
  ]
