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

let suite =
  [
    Alcotest.test_case "1-hot product terms stay at or below the seed pins" `Quick
      test_onehot_counts;
    Alcotest.test_case "ihybrid product terms stay at or below the seed pins" `Quick
      test_ihybrid_counts;
    Alcotest.test_case "search work, rung and codes match the exact pins" `Quick
      test_search_pins;
  ]
