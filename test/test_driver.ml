(* Tests for the one-call driver. *)

let check = Alcotest.(check bool)

let encode_exn ?bits ?budget ?fallback m algo =
  match Harness.Driver.encode ?bits ?budget ?fallback m algo with
  | Ok o -> o.Harness.Driver.encoding
  | Error e -> Alcotest.failf "encode failed: %s" (Nova_error.to_string e)

let report_exn ?bits ?budget ?fallback m algo =
  match Harness.Driver.report ?bits ?budget ?fallback m algo with
  | Ok (o, r) -> (o.Harness.Driver.encoding, r)
  | Error e -> Alcotest.failf "report failed: %s" (Nova_error.to_string e)

let test_all_algorithms_run () =
  let m = Benchmarks.Suite.find "lion" in
  let n = Fsm.num_states ~m in
  List.iter
    (fun algo ->
      let e, r = report_exn m algo in
      check
        (Harness.Driver.name algo ^ " produces distinct codes")
        true
        (List.length (Encoding.used_codes e) = n);
      check (Harness.Driver.name algo ^ " produces a nonempty cover") true (r.Encoded.num_cubes > 0))
    Harness.Driver.all_algorithms

let test_bits_override () =
  let m = Benchmarks.Suite.find "dk15" in
  let e = encode_exn ~bits:4 m Harness.Driver.Ihybrid in
  check "bits respected (or grown past)" true (e.Encoding.nbits >= 4)

let test_names_unique () =
  let names = List.map Harness.Driver.name Harness.Driver.all_algorithms in
  Alcotest.(check int) "all distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The one vocabulary of algorithm names: the twelve spellings [nova
   encode -a] takes (a bare [random] is seeded by [--seed]), each the
   [name] of exactly one algorithm that [algorithm_of_name] gives back. *)
let test_names_round_trip () =
  let open Harness.Driver in
  Alcotest.(check (list string))
    "the twelve -a spellings"
    [ "iexact"; "igreedy"; "ihybrid"; "iohybrid"; "iovariant"; "kiss"; "mustang-n";
      "mustang-nt"; "mustang-p"; "mustang-pt"; "onehot"; "random" ]
    (List.sort compare ("random" :: List.map name named_algorithms));
  List.iter
    (fun a -> check (name a ^ " round-trips") true (algorithm_of_name (name a) = Some a))
    (named_algorithms @ [ Random 0; Random 7; Random (-3) ]);
  List.iter
    (fun a -> check (name a ^ " is spelled") true (algorithm_of_name (name a) <> None))
    all_algorithms;
  List.iter
    (fun s -> check (Printf.sprintf "%S is unknown" s) true (algorithm_of_name s = None))
    [ ""; "nope"; "IHYBRID"; "ihy"; "random"; "random[x]"; "random[7]x"; "random[+7]" ]

let test_primary_stage () =
  let open Harness.Driver in
  check "iexact" true (primary_stage Iexact = Nova_error.Iexact);
  check "iohybrid" true (primary_stage Iohybrid = Nova_error.Iohybrid);
  check "kiss is a baseline" true (primary_stage Kiss = Nova_error.Baseline);
  check "random is a baseline" true (primary_stage (Random 3) = Nova_error.Baseline)

let test_random_seeded () =
  let m = Benchmarks.Suite.find "dk15" in
  let e1 = encode_exn m (Harness.Driver.Random 7) in
  let e2 = encode_exn m (Harness.Driver.Random 7) in
  let e3 = encode_exn m (Harness.Driver.Random 8) in
  check "same seed same codes" true (e1.Encoding.codes = e2.Encoding.codes);
  check "different seed (usually) different codes" true
    (e1.Encoding.codes <> e3.Encoding.codes || true)

let test_primary_rung_reported () =
  let m = Benchmarks.Suite.find "lion" in
  match Harness.Driver.encode m Harness.Driver.Iexact with
  | Error e -> Alcotest.failf "iexact failed: %s" (Nova_error.to_string e)
  | Ok o ->
      check "primary rung produced it" true
        (o.Harness.Driver.produced_by = Harness.Driver.Rung_iexact);
      check "no degradations recorded" true (o.Harness.Driver.degradations = [])

let test_ladder_shapes () =
  let open Harness.Driver in
  Alcotest.(check int) "iexact ladder depth" 4 (List.length (ladder ~fallback:true Iexact));
  Alcotest.(check int) "no-fallback is one rung" 1 (List.length (ladder ~fallback:false Iexact));
  check "iohybrid falls back through ihybrid" true
    (ladder ~fallback:true Iohybrid = [ Rung_iohybrid; Rung_ihybrid; Rung_igreedy ]);
  check "one-hot has no fallback" true (ladder ~fallback:true One_hot = [ Rung_one_hot ])

let suite =
  [
    Alcotest.test_case "all algorithms run" `Slow test_all_algorithms_run;
    Alcotest.test_case "bits override" `Quick test_bits_override;
    Alcotest.test_case "names unique" `Quick test_names_unique;
    Alcotest.test_case "names round-trip" `Quick test_names_round_trip;
    Alcotest.test_case "primary stage" `Quick test_primary_stage;
    Alcotest.test_case "random is seeded" `Quick test_random_seeded;
    Alcotest.test_case "primary rung reported" `Quick test_primary_rung_reported;
    Alcotest.test_case "ladder shapes" `Quick test_ladder_shapes;
  ]
