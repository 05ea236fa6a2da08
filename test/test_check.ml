(* The certificate layer: every pipeline result on the benchmark suite
   must certify clean, every injected fault class must be caught, and
   the driver's claims must be non-vacuous where the encoders report
   satisfied constraints. *)

let check = Alcotest.(check bool)

let algorithms =
  [ Harness.Driver.Ihybrid; Harness.Driver.Igreedy; Harness.Driver.Iohybrid; Harness.Driver.Iexact ]

(* The pipeline budget only bounds effort (encoders degrade, ESPRESSO
   returns its best cover so far) — it never excuses an incorrect
   result, so certification must pass whatever the budget. *)
let report_of m algo =
  let budget = Budget.create ~max_work:200_000 ~deadline_ms:500.0 () in
  match Harness.Driver.report ~budget m algo with
  | Ok (o, r) -> (o, r)
  | Error err -> Alcotest.failf "report failed: %s" (Nova_error.to_string err)

let certify_one m algo =
  let o, r = report_of m algo in
  let cert = Harness.Certify.run m o r in
  if not cert.Check.ok then
    Alcotest.failf "%s under %s: %s" m.Fsm.name (Harness.Driver.name algo) (Check.summary cert);
  cert

(* --- tentpole acceptance: the whole suite certifies clean -------------- *)

let test_suite_certifies_light () =
  List.iter
    (fun e ->
      if not e.Benchmarks.Suite.heavy then
        let m = Lazy.force e.Benchmarks.Suite.machine in
        List.iter (fun algo -> ignore (certify_one m algo)) algorithms)
    Benchmarks.Suite.all

let test_suite_certifies_heavy () =
  List.iter
    (fun e ->
      if e.Benchmarks.Suite.heavy then
        let m = Lazy.force e.Benchmarks.Suite.machine in
        List.iter (fun algo -> ignore (certify_one m algo)) algorithms)
    Benchmarks.Suite.all

(* Regression pin: the seed benchmarks of test_pipeline certify clean,
   and the glue maps a clean certificate to no error. *)
let test_seed_benchmarks_pin () =
  List.iter
    (fun name ->
      let m = Benchmarks.Suite.find name in
      List.iter
        (fun algo ->
          let o, r = report_of m algo in
          let cert = Harness.Certify.run m o r in
          check (name ^ " certifies") true cert.Check.ok;
          check (name ^ " no error") true (Harness.Certify.error_of ~machine:name cert = None);
          check (name ^ " six checks") true (List.length cert.Check.checks = 6))
        algorithms)
    [ "lion"; "bbtas"; "shiftreg"; "modulo12" ]

(* --- claims are non-vacuous -------------------------------------------- *)

let test_claims_nonvacuous () =
  let m = Benchmarks.Suite.find "dk15" in
  let o, _ = report_of m Harness.Driver.Ihybrid in
  check "ihybrid claims faces" true (o.Harness.Driver.claims.Check.claimed_ics <> []);
  let o, _ = report_of m Harness.Driver.Iohybrid in
  check "iohybrid claims faces" true (o.Harness.Driver.claims.Check.claimed_ics <> []);
  let o, _ = report_of m Harness.Driver.One_hot in
  check "baselines claim nothing" true (o.Harness.Driver.claims = Check.no_claims)

(* --- fault-injection matrix -------------------------------------------- *)

(* Every fault class must be injectable on these machines (they all have
   inputs, outputs, spare code space is not required) and every injected
   fault must be caught. *)
let matrix_machines = [ "lion"; "dk15"; "train11" ]

let test_fault_matrix () =
  List.iter
    (fun name ->
      let m = Benchmarks.Suite.find name in
      let o, r = report_of m Harness.Driver.Ihybrid in
      let artifacts = Harness.Certify.artifacts_of o r in
      check (name ^ " baseline clean") true (Check.certify m artifacts).Check.ok;
      List.iter
        (fun fault ->
          match Check.Inject.apply m artifacts fault with
          | None ->
              Alcotest.failf "%s: fault class %s not injectable" name (Check.Inject.name fault)
          | Some mutated ->
              let cert = Check.certify m mutated in
              check
                (Printf.sprintf "%s/%s caught" name (Check.Inject.name fault))
                false cert.Check.ok)
        Check.Inject.all)
    matrix_machines

(* A machine with no outputs: corrupt-output is the one class that can
   be impossible, and the injector must say so rather than fabricate a
   non-fault. *)
let test_inject_impossible_class () =
  let m =
    Fsm.create ~name:"noout" ~num_inputs:1 ~num_outputs:0
      ~states:[| "a"; "b" |]
      ~transitions:
        [
          { Fsm.input = "0"; src = Some 0; dst = Some 1; output = "" };
          { Fsm.input = "1"; src = Some 0; dst = Some 0; output = "" };
          { Fsm.input = "0"; src = Some 1; dst = Some 0; output = "" };
          { Fsm.input = "1"; src = Some 1; dst = Some 1; output = "" };
        ]
      ~reset:0 ()
  in
  let o, r = report_of m Harness.Driver.Igreedy in
  let artifacts = Harness.Certify.artifacts_of o r in
  check "no-output machine certifies" true (Check.certify m artifacts).Check.ok;
  check "corrupt-output impossible" true
    (Check.Inject.apply m artifacts Check.Inject.Corrupt_output = None);
  check "corrupt-next-state still possible" true
    (Check.Inject.apply m artifacts Check.Inject.Corrupt_next_state <> None)

(* --- short-circuit and error mapping ----------------------------------- *)

let test_structural_short_circuit () =
  let m = Benchmarks.Suite.find "lion" in
  let o, r = report_of m Harness.Driver.Ihybrid in
  let artifacts = Harness.Certify.artifacts_of o r in
  let dup = { artifacts with Check.codes = Array.map (fun _ -> 0) artifacts.Check.codes } in
  let cert = Check.certify m dup in
  check "fails" true (not cert.Check.ok);
  check "only structural checks ran" true (List.length cert.Check.checks = 2);
  match Harness.Certify.error_of ~machine:"lion" cert with
  | Some (Nova_error.Certification_failed { machine; failed }) ->
      check "machine name" true (machine = "lion");
      check "names injectivity" true (List.mem "injectivity" failed);
      check "exit code 6" true
        (Nova_error.exit_code (Nova_error.Certification_failed { machine; failed }) = 6)
  | _ -> Alcotest.fail "expected Certification_failed"

(* --- report plumbing ---------------------------------------------------- *)

let test_json_and_summary () =
  let m = Benchmarks.Suite.find "lion" in
  let o, r = report_of m Harness.Driver.Iexact in
  let cert = Harness.Certify.run m o r in
  let json = Json_min.render (Check.to_json cert) in
  check "json ok field" true
    (String.length json > 0 && String.sub json 0 10 = "{\"ok\":true");
  List.iter
    (fun id ->
      let needle = Printf.sprintf "\"name\":\"%s\"" (Check.check_name id) in
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
        go 0
      in
      check (Check.check_name id ^ " in json") true found)
    Check.all_checks;
  check "summary says OK" true (cert.Check.ok && Check.summary cert = "certificate OK (6 checks)")

let test_inject_name_roundtrip () =
  List.iter
    (fun f ->
      check (Check.Inject.name f ^ " roundtrips") true
        (Check.Inject.of_name (Check.Inject.name f) = Some f))
    Check.Inject.all;
  check "unknown name" true (Check.Inject.of_name "no-such-fault" = None)

(* --- loud fallback ladder ---------------------------------------------- *)

let test_degradation_warning () =
  let m = Benchmarks.Suite.find "dk16" in
  let budget = Budget.create ~max_work:10 () in
  (match Harness.Driver.encode ~budget m Harness.Driver.Iexact with
  | Error err -> Alcotest.failf "encode failed: %s" (Nova_error.to_string err)
  | Ok o ->
      check "degraded" true (o.Harness.Driver.degradations <> []);
      (match Harness.Driver.degradation_warning o with
      | None -> Alcotest.fail "expected a warning for a degraded outcome"
      | Some w ->
          check "warning names the algorithm" true
            (String.length w > 0
            && String.sub w 0 13 = "nova: warning"
            &&
            let has needle =
              let nl = String.length needle and wl = String.length w in
              let rec go i = i + nl <= wl && (String.sub w i nl = needle || go (i + 1)) in
              go 0
            in
            has "iexact" && has "degraded to")));
  match Harness.Driver.encode m Harness.Driver.Ihybrid with
  | Error err -> Alcotest.failf "encode failed: %s" (Nova_error.to_string err)
  | Ok o -> check "no warning when primary rung wins" true (Harness.Driver.degradation_warning o = None)

let suite =
  [
    Alcotest.test_case "suite certifies (light machines, 4 algorithms)" `Quick
      test_suite_certifies_light;
    Alcotest.test_case "suite certifies (heavy machines, 4 algorithms)" `Slow
      test_suite_certifies_heavy;
    Alcotest.test_case "seed-benchmark certification pin" `Quick test_seed_benchmarks_pin;
    Alcotest.test_case "encoder claims are non-vacuous" `Quick test_claims_nonvacuous;
    Alcotest.test_case "fault-injection matrix (9 classes x 3 machines)" `Quick test_fault_matrix;
    Alcotest.test_case "impossible fault class reported as None" `Quick
      test_inject_impossible_class;
    Alcotest.test_case "structural failure short-circuits" `Quick test_structural_short_circuit;
    Alcotest.test_case "json and summary rendering" `Quick test_json_and_summary;
    Alcotest.test_case "fault names round-trip" `Quick test_inject_name_roundtrip;
    Alcotest.test_case "fallback degradation is loud" `Quick test_degradation_warning;
  ]
