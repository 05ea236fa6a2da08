(* Tests for the staged encoding pipeline: the unified budget, the
   fallback ladder with its degradation records, the KISS2 parser's
   located errors, and a differential pin that an unlimited budget
   reproduces the pre-pipeline driver's encodings exactly. *)

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_tick_semantics () =
  (* [tick] charges first, then trips once the counter exceeds the cap
     (the historical Embed idiom): a cap of 5 admits exactly 5 ticks. *)
  let b = Budget.create ~max_work:5 () in
  for i = 1 to 5 do
    check (Printf.sprintf "tick %d admitted" i) true (Budget.tick b)
  done;
  check "tick 6 trips" false (Budget.tick b);
  check "reason is work" true (Budget.reason b = Some Budget.Work);
  check "spent counts every charge" true (Budget.spent b >= 5)

let test_exhausted_pre_checks () =
  (* [exhausted] trips as soon as the counter reaches the cap (the
     historical iexact loop-guard idiom), without charging work. *)
  let b = Budget.create ~max_work:2 () in
  check "fresh budget not exhausted" false (Budget.exhausted b);
  ignore (Budget.tick b);
  check "under cap" false (Budget.exhausted b);
  ignore (Budget.tick b);
  check "at cap" true (Budget.exhausted b);
  let spent = Budget.spent b in
  ignore (Budget.exhausted b);
  check "exhausted charges nothing" true (Budget.spent b = spent)

let test_sub_trips_on_parent () =
  let parent = Budget.create ~max_work:3 () in
  let child = Budget.sub parent in
  check "child tick 1" true (Budget.tick child);
  check "child tick 2" true (Budget.tick child);
  check "child tick 3" true (Budget.tick child);
  check "parent cap stops the child" false (Budget.tick child);
  check "parent spent includes child work" true (Budget.spent parent >= 3);
  let capped = Budget.sub ~max_work:1 (Budget.create ()) in
  check "own cap also applies" true (Budget.tick capped && not (Budget.tick capped))

let test_deadline_and_cancel () =
  let d = Budget.create ~deadline_ms:0.0 () in
  check "elapsed deadline exhausts" true (Budget.exhausted d);
  check "deadline reason" true (Budget.reason d = Some Budget.Deadline);
  let c = Budget.create () in
  Budget.cancel c;
  check "cancellation exhausts" true (Budget.exhausted c);
  check "cancel reason" true (Budget.reason c = Some Budget.Cancelled);
  check "an uncapped budget never exhausts" false (Budget.exhausted (Budget.create ()))

(* A budget-less call ticks a fresh root of its own: two consecutive
   encodes end their rung span with the same [spent]. One default budget
   shared by every call would report the second call's ticks on top of
   the first's. *)
let test_default_budget_is_fresh () =
  let m = Benchmarks.Suite.find "lion" in
  let path = Filename.temp_file "nova-budget" ".jsonl" in
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Sys.remove path)
    (fun () ->
      for _ = 1 to 2 do
        ignore (Harness.Driver.encode m Harness.Driver.Ihybrid)
      done;
      Trace.export ~path ();
      let spent =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.Trace.kind = Trace.End && e.Trace.name = "pipeline.rung.ihybrid" then
              List.assoc_opt "spent" e.Trace.attrs
            else None)
          (fst (Validate.decode_file path))
      in
      match spent with
      | [ Trace.Int first; Trace.Int second ] ->
          check "the rung did some work" true (first > 0);
          Alcotest.(check int) "the second call spent what the first did" first second
      | _ -> Alcotest.failf "expected two ihybrid rung spans, got %d" (List.length spent))

(* ------------------------------------------------------------------ *)
(* Fallback ladder *)

let test_ladder_degrades_and_records () =
  let m = Benchmarks.Suite.find "lion" in
  (* A 10-unit budget drains inside the constraint minimization, leaving
     real constraints that iexact cannot satisfy before its own guard
     trips — the ladder must descend and say where it landed. *)
  let budget = Budget.create ~max_work:10 () in
  match Harness.Driver.encode ~budget m Harness.Driver.Iexact with
  | Error e -> Alcotest.failf "ladder should not fail: %s" (Nova_error.to_string e)
  | Ok o ->
      check "fallback rung produced it" true
        (o.Harness.Driver.produced_by <> Harness.Driver.Rung_iexact);
      check "degradations recorded" true (o.Harness.Driver.degradations <> []);
      check "codes are still injective" true
        (List.length (Encoding.used_codes o.Harness.Driver.encoding)
        = Fsm.num_states ~m)

let test_no_fallback_reports_error () =
  (* The documented wart is fixed: an exhausted [Iexact] returns a typed
     error instead of raising [Failure]. *)
  let m = Benchmarks.Suite.find "lion" in
  let budget = Budget.create ~max_work:10 () in
  match Harness.Driver.encode ~budget ~fallback:false m Harness.Driver.Iexact with
  | Ok _ -> Alcotest.fail "a 10-unit budget must exhaust iexact"
  | Error (Nova_error.Budget_exhausted { stage = Nova_error.Iexact; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Nova_error.to_string e)

let test_igreedy_never_fails () =
  let m = Benchmarks.Suite.find "modulo12" in
  let budget = Budget.create ~max_work:0 () in
  match Harness.Driver.encode ~budget m Harness.Driver.Igreedy with
  | Error e -> Alcotest.failf "igreedy must not fail: %s" (Nova_error.to_string e)
  | Ok o ->
      check "igreedy injective under a drained budget" true
        (List.length (Encoding.used_codes o.Harness.Driver.encoding)
        = Fsm.num_states ~m)

let test_deadline_terminates_promptly () =
  let m =
    Benchmarks.Generator.generate ~name:"gen_deadline" ~num_inputs:6 ~num_outputs:6
      ~num_states:40 ~num_rows:200 ~seed:4242
  in
  let t0 = Unix.gettimeofday () in
  let budget = Budget.create ~deadline_ms:50.0 () in
  (match Harness.Driver.report ~budget m Harness.Driver.Iexact with
  | Error e -> Alcotest.failf "deadline run must still succeed: %s" (Nova_error.to_string e)
  | Ok (_, r) -> check "degraded run still yields a cover" true (r.Encoded.num_cubes > 0));
  let wall = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "terminates promptly (%.3fs)" wall) true (wall < 2.0)

(* ------------------------------------------------------------------ *)
(* Differential pin: under the default unlimited budget the pipeline
   reproduces the seed driver's encodings and areas bit for bit. *)

let pins =
  (* (machine, [(algorithm, nbits, codes, num_cubes, area)]) measured on
     the pre-pipeline seed driver. *)
  let open Harness.Driver in
  [
    ( "lion",
      [
        (Ihybrid, 2, [| 0; 1; 3; 2 |], 5, 55);
        (Igreedy, 2, [| 0; 1; 3; 2 |], 5, 55);
        (Iohybrid, 2, [| 0; 1; 3; 2 |], 5, 55);
        (Iovariant, 2, [| 0; 1; 3; 2 |], 5, 55);
        (Iexact, 3, [| 0; 2; 1; 4 |], 6, 84);
        (Kiss, 4, [| 12; 5; 15; 10 |], 7, 119);
        (Mustang (Baselines.Fanout, true), 2, [| 0; 1; 3; 2 |], 5, 55);
        (Mustang (Baselines.Fanin, true), 2, [| 3; 0; 1; 2 |], 7, 77);
        (One_hot, 4, [| 1; 2; 4; 8 |], 8, 136);
        (Random 0, 2, [| 2; 0; 3; 1 |], 7, 77);
      ] );
    ( "bbtas",
      [
        (Ihybrid, 3, [| 0; 1; 4; 5; 2; 3 |], 14, 210);
        (Igreedy, 3, [| 0; 1; 4; 5; 2; 3 |], 14, 210);
        (Iohybrid, 3, [| 0; 3; 1; 7; 5; 2 |], 14, 210);
        (Iovariant, 3, [| 0; 3; 1; 7; 5; 2 |], 14, 210);
        (Iexact, 3, [| 0; 1; 4; 5; 2; 3 |], 14, 210);
        (Kiss, 3, [| 0; 1; 4; 5; 2; 3 |], 14, 210);
        (Mustang (Baselines.Fanout, true), 3, [| 0; 1; 2; 3; 4; 5 |], 14, 210);
        (Mustang (Baselines.Fanin, true), 3, [| 0; 1; 2; 3; 4; 5 |], 14, 210);
        (One_hot, 6, [| 1; 2; 4; 8; 16; 32 |], 19, 456);
        (Random 0, 3, [| 6; 0; 7; 4; 2; 5 |], 14, 210);
      ] );
    ( "shiftreg",
      [
        (Ihybrid, 3, [| 0; 2; 4; 6; 1; 3; 5; 7 |], 4, 48);
        (Igreedy, 3, [| 0; 2; 4; 6; 1; 3; 5; 7 |], 4, 48);
        (Iohybrid, 3, [| 0; 2; 4; 6; 1; 3; 5; 7 |], 4, 48);
        (Iovariant, 3, [| 0; 2; 4; 6; 1; 3; 5; 7 |], 4, 48);
        (Iexact, 3, [| 0; 2; 4; 6; 1; 3; 5; 7 |], 4, 48);
        (Kiss, 3, [| 0; 2; 4; 6; 1; 3; 5; 7 |], 4, 48);
        (Mustang (Baselines.Fanout, true), 3, [| 1; 3; 5; 7; 0; 2; 4; 6 |], 4, 48);
        (Mustang (Baselines.Fanin, true), 3, [| 0; 1; 2; 3; 4; 5; 6; 7 |], 4, 48);
        (One_hot, 8, [| 1; 2; 4; 8; 16; 32; 64; 128 |], 16, 432);
        (Random 0, 3, [| 6; 0; 7; 4; 2; 5; 3; 1 |], 9, 108);
      ] );
    ( "modulo12",
      [
        (Ihybrid, 4, [| 8; 10; 7; 9; 3; 11; 6; 1; 12; 2; 15; 13 |], 17, 255);
        (Igreedy, 4, [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 |], 14, 210);
        (Iohybrid, 4, [| 4; 0; 5; 1; 11; 3; 6; 7; 8; 15; 9; 2 |], 16, 240);
        (Iovariant, 4, [| 4; 0; 5; 1; 11; 3; 6; 7; 8; 15; 9; 2 |], 16, 240);
        (Iexact, 4, [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 |], 14, 210);
        (Kiss, 4, [| 8; 10; 7; 9; 3; 11; 6; 1; 12; 2; 15; 13 |], 17, 255);
        (Mustang (Baselines.Fanout, true), 4, [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 |], 14, 210);
        (Mustang (Baselines.Fanin, true), 4, [| 0; 1; 3; 2; 6; 4; 5; 7; 15; 11; 9; 8 |], 14, 210);
        (One_hot, 12, [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048 |], 24, 936);
        (Random 0, 4, [| 14; 0; 7; 8; 4; 6; 10; 13; 2; 3; 5; 9 |], 17, 255);
      ] );
  ]

let test_unlimited_budget_matches_seed () =
  List.iter
    (fun (nm, rows) ->
      let m = Benchmarks.Suite.find nm in
      List.iter
        (fun (algo, nbits, codes, num_cubes, area) ->
          let label = nm ^ "/" ^ Harness.Driver.name algo in
          match Harness.Driver.report m algo with
          | Error e -> Alcotest.failf "%s: %s" label (Nova_error.to_string e)
          | Ok (o, r) ->
              let e = o.Harness.Driver.encoding in
              check (label ^ " primary rung") true (o.Harness.Driver.degradations = []);
              Alcotest.(check int) (label ^ " nbits") nbits e.Encoding.nbits;
              Alcotest.(check (array int)) (label ^ " codes") codes e.Encoding.codes;
              Alcotest.(check int) (label ^ " cubes") num_cubes r.Encoded.num_cubes;
              Alcotest.(check int) (label ^ " area") area r.Encoded.area)
        rows)
    pins

(* ------------------------------------------------------------------ *)
(* KISS2 parser: located, typed errors on malformed input *)

let lion_text = Kiss.to_string (Benchmarks.Suite.find "lion")

let expect_error ~what text pred =
  match Kiss.parse_result ~name:"t" ~file:"t.kiss2" text with
  | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: wrong error %s" what (Kiss.error_to_string e)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let test_parse_roundtrip_ok () =
  match Kiss.parse_result ~name:"lion" lion_text with
  | Ok m -> Alcotest.(check int) "states survive" 4 (Array.length m.Fsm.states)
  | Error e -> Alcotest.failf "valid text rejected: %s" (Kiss.error_to_string e)

let test_truncated_directive () =
  expect_error ~what:"truncated header" ".i\n.o 1\n.p 1\n.s 1\n0 a a 0\n.e\n"
    (fun e ->
      e.Kiss.line = 1 && e.Kiss.col = 1 && contains e.Kiss.msg "truncated .i");
  expect_error ~what:"truncated .r" ".i 1\n.o 1\n  .r\n0 a a 0\n.e\n" (fun e ->
      e.Kiss.line = 3 && e.Kiss.col = 3 && contains e.Kiss.msg "truncated .r")

let test_bad_arity_row () =
  expect_error ~what:"three-field row" ".i 2\n.o 1\n01 st0 st1\n.e\n" (fun e ->
      e.Kiss.line = 3 && contains e.Kiss.msg "expected 4 fields" && contains e.Kiss.msg "got 3")

let test_duplicate_reset () =
  expect_error ~what:"duplicate .r" ".i 1\n.o 1\n.r a\n.r b\n0 a a 0\n.e\n" (fun e ->
      e.Kiss.line = 4 && contains e.Kiss.msg "duplicate .r")

let test_count_mismatches () =
  expect_error ~what:".p mismatch" ".i 1\n.o 1\n.p 2\n0 a a 0\n.e\n" (fun e ->
      contains e.Kiss.msg ".p declares 2");
  expect_error ~what:"unknown reset" ".i 1\n.o 1\n.r ghost\n0 a a 0\n.e\n" (fun e ->
      contains e.Kiss.msg "ghost");
  expect_error ~what:"missing .i" ".o 1\n0 a a 0\n.e\n" (fun e ->
      e.Kiss.line = 0 && contains e.Kiss.msg "missing .i");
  expect_error ~what:"error renders as file:line:col" ".i\n" (fun e ->
      contains (Kiss.error_to_string e) "t.kiss2:1:1:")

(* The header dosek's LogicMinimizer writes before its rows (SNIPPETS.md):
   [.symbolic input] is refused by name, at its own line and column,
   instead of as a malformed row. *)
let test_symbolic_input_refused () =
  let text = In_channel.with_open_bin "cli/symbolic_input.kiss2" In_channel.input_all in
  expect_error ~what:".symbolic input" text (fun e ->
      e.Kiss.line = 4 && e.Kiss.col = 1 && contains e.Kiss.msg "unsupported directive .symbolic");
  (* Four words would otherwise pass for a transition row. *)
  expect_error ~what:"four-word directive" ".i 1\n.o 1\n  .ilb a b c\n0 a a 0\n.e\n" (fun e ->
      e.Kiss.line = 3 && e.Kiss.col = 3 && contains e.Kiss.msg "unsupported directive .ilb")

let suite =
  [
    Alcotest.test_case "budget tick semantics" `Quick test_tick_semantics;
    Alcotest.test_case "budget exhausted pre-checks" `Quick test_exhausted_pre_checks;
    Alcotest.test_case "sub-budget trips on parent" `Quick test_sub_trips_on_parent;
    Alcotest.test_case "deadline and cancellation" `Quick test_deadline_and_cancel;
    Alcotest.test_case "budget-less encodes do not share a counter" `Quick
      test_default_budget_is_fresh;
    Alcotest.test_case "ladder degrades and records rungs" `Quick test_ladder_degrades_and_records;
    Alcotest.test_case "no-fallback returns a typed error" `Quick test_no_fallback_reports_error;
    Alcotest.test_case "igreedy never fails" `Quick test_igreedy_never_fails;
    Alcotest.test_case "deadline terminates promptly" `Slow test_deadline_terminates_promptly;
    Alcotest.test_case "unlimited budget matches the seed encodings" `Slow
      test_unlimited_budget_matches_seed;
    Alcotest.test_case "kiss roundtrip still parses" `Quick test_parse_roundtrip_ok;
    Alcotest.test_case "kiss truncated directive located" `Quick test_truncated_directive;
    Alcotest.test_case "kiss bad row arity located" `Quick test_bad_arity_row;
    Alcotest.test_case "kiss duplicate reset located" `Quick test_duplicate_reset;
    Alcotest.test_case "kiss count mismatches reported" `Quick test_count_mismatches;
    Alcotest.test_case "kiss unknown directive named" `Quick test_symbolic_input_refused;
  ]
