(* Tests for the tracing layer and its satellites: the taut_fast
   saturation fix behind the kiss certification failure, nested timed
   sections, JSON escaping (round-tripped through the in-repo parser),
   concurrent two-domain span emission, the trace validator, and the
   bench regression differ. *)

open Logic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_dir f =
  let dir = Filename.temp_file "nova-trace-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* Run [f] with tracing on and a clean buffer, restoring the off state
   whatever happens, so trace tests cannot leak into other suites. *)
let with_trace f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Satellite: the cover-containment false negative (integer overflow) *)

(* 63 binary variables: the product space has 2^63 minterms, which
   overflows [Domain.num_minterms], so the tautology cutoff runs with
   space = max_int and its minterm accumulator must saturate instead of
   wrapping negative. x0=0 ∪ x0=1 is the whole space — before the fix
   this exact shape reported "not a tautology". *)
let test_overflow_tautology () =
  let dom = Domain.create (Array.make 63 2) in
  let cover = Cover.make dom [ Cube.literal dom 0 [ 0 ]; Cube.literal dom 0 [ 1 ] ] in
  check "x0=0 | x0=1 is a tautology over 63 vars" true (Cover.tautology cover);
  check "it covers the universe" true (Cover.covers cover (Cover.universe dom));
  check "it covers the full cube" true (Cover.covers_cube cover (Cube.full dom))

(* The end-to-end shape that exposed the bug: the kiss encoding of a
   40-state generated machine needs 51 state bits, whose encoded PLA
   domain overflows the minterm count, and before the fix the
   cover-containment certificate rejected a correct cover. Pinned. *)
let test_kiss_overflow_certification () =
  let m =
    Benchmarks.Generator.generate ~name:"gen-overflow" ~num_inputs:6 ~num_outputs:6
      ~num_states:40 ~num_rows:160 ~seed:4242
  in
  match Harness.Driver.report m Harness.Driver.Kiss with
  | Error e -> Alcotest.failf "kiss report failed: %s" (Nova_error.to_string e)
  | Ok (outcome, r) ->
      let cert = Check.certify m (Harness.Certify.artifacts_of outcome r) in
      if not cert.Check.ok then Alcotest.failf "kiss certification: %s" (Check.summary cert)

(* ------------------------------------------------------------------ *)
(* Satellite: nested timed sections *)

(* A section re-entered on one domain observes every call, the inner
   and the outer, each with its own duration. *)
let test_nested_sections_observe_every_call () =
  let s = Metrics.section "test.trace.nested" in
  let h () = List.assoc "test.trace.nested" (Metrics.spans ()) in
  let calls0 = Metrics.Histogram.count (h ()) in
  check_int "nested call returns" 7 (Metrics.span s (fun () -> Metrics.span s (fun () -> 7)));
  check_int "both calls observed" 2 (Metrics.Histogram.count (h ()) - calls0);
  (match Metrics.span s (fun () -> failwith "boom") with
  | () -> Alcotest.fail "the exception must propagate"
  | exception Failure _ -> ());
  check_int "a raising call is observed too" 3 (Metrics.Histogram.count (h ()) - calls0)

(* ------------------------------------------------------------------ *)
(* Satellite: deterministic sorted registries *)

let test_instrument_sorted_output () =
  ignore (Metrics.event "test.zzz.last");
  ignore (Metrics.event "test.aaa.first");
  ignore (Metrics.section "test.zzz.last");
  ignore (Metrics.section "test.aaa.first");
  let snap = Metrics.Registry.snapshot () in
  let keys entries =
    List.map (fun ((s : Metrics.Registry.series), _) -> (s.s_name, s.s_labels)) entries
  in
  let sorted l = l = List.sort compare l in
  check "counters sorted by name and labels" true (sorted (keys snap.Metrics.Registry.counters));
  check "histograms sorted by name and labels" true
    (sorted (keys snap.Metrics.Registry.histograms));
  check "events read back sorted" true (sorted (List.map fst (Metrics.events ())));
  check "sections read back sorted" true (sorted (List.map fst (Metrics.spans ())))

(* ------------------------------------------------------------------ *)
(* Satellite: JSON escaping, round-tripped through the in-repo parser *)

let nasty = "quote\" back\\slash\nnewline\ttab \001ctl ünïcode π \127"

let test_trace_json_escape () =
  match Json_min.of_string (Json_min.render (Json_min.Str nasty)) with
  | Json_min.Str s -> check_str "escaped string round-trips" nasty s
  | _ -> Alcotest.fail "escaped string did not parse as a string"

(* A hostile name survives the registry's JSON snapshot. *)
let test_instrument_json_escaping () =
  let name = "test.trace.nasty " ^ nasty in
  Metrics.Registry.inc (Metrics.event name);
  let j = Json_min.of_string (Json_min.render (Metrics.Expose.json ())) in
  let found =
    List.exists
      (fun c ->
        Option.bind (Json_min.member "labels" c) (Json_min.member "event")
        = Some (Json_min.Str name)
        && Option.bind (Json_min.member "value" c) Json_min.to_float >= Some 1.)
      (Option.value ~default:[] (Option.bind (Json_min.member "counters" j) Json_min.to_list))
  in
  check "nasty event name serialized and found" true found

(* ------------------------------------------------------------------ *)
(* Satellite: Json_min numbers keep every digit *)

let roundtrips f = Json_min.of_string (Json_min.render (Json_min.Num f)) = Json_min.Num f

(* The flight recorder and the access log write epoch timestamps with
   microseconds; %.12g used to cut them to 10 ms. *)
let test_render_epoch_timestamp () =
  let at = 1792108800.123456 in
  check_str "timestamp renders whole" "1792108800.123456" (Json_min.render (Json_min.Num at));
  check "and reads back equal" true (roundtrips at);
  (* Integral and short numbers print as before. *)
  check_str "integral" "1792108800" (Json_min.render (Json_min.Num 1792108800.));
  check_str "short decimal" "0.1" (Json_min.render (Json_min.Num 0.1));
  check_str "tiny" "2.4e-05" (Json_min.render (Json_min.Num 2.4e-05))

let prop_render_roundtrips =
  QCheck.Test.make ~name:"json_min: every finite float round-trips through render" ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%h")
        Gen.(
          oneof
            [
              float;
              map Int64.float_of_bits ui64;
              map (fun x -> 1.7e9 +. x) (float_bound_inclusive 1e8);
            ]))
    (fun f -> (not (Float.is_finite f)) || roundtrips f)

(* ------------------------------------------------------------------ *)
(* Satellite: the BENCH_espresso.json instrument block *)

let key_set j =
  List.sort compare (List.map fst (match j with Some (Json_min.Obj kvs) -> kvs | _ -> []))

(* The block `nova bench espresso` writes for lion has the counter and
   timer keys of the committed artifact's first row. *)
let test_instrument_block_keys () =
  let m = Benchmarks.Suite.find "lion" in
  let n = Fsm.num_states ~m in
  let e =
    Encoding.random (Random.State.make [| 0 |]) ~num_states:n ~nbits:(Encoding.min_code_length n)
  in
  ignore (Encoded.implement m e);
  let block = Harness.Telemetry.instrument_block () in
  let committed =
    match Json_min.member "benchmarks" (Json_min.of_file "../BENCH_espresso.json") with
    | Some (Json_min.Arr (row :: _)) -> Option.get (Json_min.member "instrument" row)
    | _ -> Alcotest.fail "BENCH_espresso.json has no rows"
  in
  List.iter
    (fun section ->
      Alcotest.(check (list string))
        (section ^ " keys") (key_set (Json_min.member section committed))
        (key_set (Json_min.member section block)))
    [ "counters"; "timers" ];
  check "lion ran through the minimizer" true
    (Option.bind (Json_min.member "counters" block) (Json_min.member "espresso.minimize_calls")
    <> Some (Json_min.Num 0.))

let test_trace_export_attr_roundtrip () =
  with_temp_dir @@ fun dir ->
  with_trace @@ fun () ->
  Trace.set_meta [ ("code_version", Trace.String "test/1"); ("note", Trace.String nasty) ];
  Trace.with_span "outer"
    ~attrs:[ ("machine", Trace.String nasty); ("algorithm", Trace.String "kiss") ]
    (fun () ->
      Trace.instant "tick" ~attrs:[ ("n", Trace.Int 3); ("f", Trace.Float 1.5) ];
      Trace.with_span "inner" (fun () -> ()));
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      Trace.export ~path ();
      let events, meta = Validate.decode_file path in
      let r = Validate.check (events, meta) in
      if not (Validate.ok r) then
        Alcotest.failf "%s: %s" file (String.concat "; " r.Validate.errors);
      check_int (file ^ ": events") 5 r.Validate.num_events;
      check_int (file ^ ": spans") 2 r.Validate.num_spans;
      check_int (file ^ ": instants") 1 r.Validate.num_instants;
      (match List.assoc_opt "note" meta with
      | Some (Trace.String s) -> check_str (file ^ ": meta round-trips") nasty s
      | _ -> Alcotest.fail (file ^ ": meta note missing"));
      (* The inner span inherited the outer's attributes. *)
      match List.find_opt (fun (e : Trace.event) -> e.Trace.name = "inner") events with
      | Some e -> (
          match List.assoc_opt "machine" e.Trace.attrs with
          | Some (Trace.String s) -> check_str (file ^ ": inherited attr") nasty s
          | _ -> Alcotest.fail (file ^ ": inner span lost the inherited machine attr"))
      | None -> Alcotest.fail (file ^ ": inner span missing"))
    [ "t.json"; "t.jsonl" ]

(* ------------------------------------------------------------------ *)
(* Satellite: two-domain concurrent span emission *)

let test_two_domain_hammer () =
  with_temp_dir @@ fun dir ->
  with_trace @@ fun () ->
  Trace.set_meta [ ("code_version", Trace.String "test/1") ];
  let rounds = 200 in
  let emit tag () =
    for i = 1 to rounds do
      Trace.with_span "work"
        ~attrs:
          [ ("machine", Trace.String tag); ("algorithm", Trace.String "hammer");
            ("i", Trace.Int i) ]
        (fun () ->
          Trace.instant "step";
          Trace.with_span "nested" (fun () -> ()))
    done
  in
  let d1 = Stdlib.Domain.spawn (emit "d1") and d2 = Stdlib.Domain.spawn (emit "d2") in
  emit "main" ();
  Stdlib.Domain.join d1;
  Stdlib.Domain.join d2;
  let path = Filename.concat dir "hammer.jsonl" in
  Trace.export ~path ();
  let r = Validate.check_file path in
  if not (Validate.ok r) then
    Alcotest.failf "hammer trace invalid: %s"
      (String.concat "; " (List.filteri (fun i _ -> i < 5) r.Validate.errors));
  check_int "three tracks" 3 r.Validate.num_tracks;
  check_int "all spans present" (3 * rounds * 2) r.Validate.num_spans;
  check_int "all instants present" (3 * rounds) r.Validate.num_instants

(* The validator actually rejects malformed traces: an End closing the
   wrong span, and timestamps running backwards on one track. *)
let test_validator_rejects () =
  let evs ts_backwards =
    let e kind name ts : Trace.event =
      { Trace.kind; name; ts; track = 0;
        attrs = [ ("machine", Trace.String "m"); ("algorithm", Trace.String "a") ] }
    in
    if ts_backwards then [ e Trace.Begin "s" 10.; e Trace.End "s" 5. ]
    else [ e Trace.Begin "s" 1.; e Trace.End "wrong" 2. ]
  in
  let meta = [ ("code_version", Trace.String "test/1") ] in
  check "mismatched end caught" false (Validate.ok (Validate.check (evs false, meta)));
  check "backwards timestamps caught" false (Validate.ok (Validate.check (evs true, meta)));
  let no_attrs : Trace.event list =
    [ { Trace.kind = Trace.Begin; name = "s"; ts = 1.; track = 0; attrs = [] };
      { Trace.kind = Trace.End; name = "s"; ts = 2.; track = 0; attrs = [] } ]
  in
  check "missing machine/algorithm caught" false (Validate.ok (Validate.check (no_attrs, meta)))

(* ------------------------------------------------------------------ *)
(* bench-diff *)

let write_artifact dir name text =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let base_artifact =
  {|{"schema":"nova-bench-espresso/1","benchmarks":[
    {"name":"lion","algorithm":"kiss","minimize_s":0.100,"num_cubes":10,"area":120,"states":4},
    {"name":"dk16","algorithm":"kiss","minimize_s":0.500,"num_cubes":50,"area":900,"states":27}]}|}

let test_bench_diff_identical () =
  with_temp_dir @@ fun dir ->
  let p = write_artifact dir "a.json" base_artifact in
  let a = Bench_diff.load p in
  let r = Bench_diff.diff a a in
  check_int "no regressions on identical artifacts" 0 (Bench_diff.num_regressions r);
  check_int "no deltas either" 0 (List.length r.Bench_diff.deltas);
  check_int "both rows compared" 2 r.Bench_diff.rows_compared

let test_bench_diff_regressions () =
  with_temp_dir @@ fun dir ->
  let old_a = Bench_diff.load (write_artifact dir "old.json" base_artifact) in
  (* lion: wall 4x slower (regression); dk16: cubes 10% up (under the
     default 25% threshold, a delta but not a regression), states
     changed (neutral: never a regression). *)
  let new_text =
    {|{"schema":"nova-bench-espresso/1","benchmarks":[
      {"name":"lion","algorithm":"kiss","minimize_s":0.400,"num_cubes":10,"area":120,"states":4},
      {"name":"dk16","algorithm":"kiss","minimize_s":0.500,"num_cubes":55,"area":900,"states":28}]}|}
  in
  let new_a = Bench_diff.load (write_artifact dir "new.json" new_text) in
  let r = Bench_diff.diff old_a new_a in
  check_int "exactly one regression" 1 (Bench_diff.num_regressions r);
  let reg = List.find (fun d -> d.Bench_diff.regression) r.Bench_diff.deltas in
  check_str "the wall metric regressed" "minimize_s" reg.Bench_diff.metric;
  check_str "on the lion row" "lion/kiss" reg.Bench_diff.row;
  (* A 10x size blow-up past the threshold is a regression too. *)
  let blow =
    {|{"schema":"nova-bench-espresso/1","benchmarks":[
      {"name":"lion","algorithm":"kiss","minimize_s":0.100,"num_cubes":100,"area":120,"states":4},
      {"name":"dk16","algorithm":"kiss","minimize_s":0.500,"num_cubes":50,"area":900,"states":27}]}|}
  in
  let r2 = Bench_diff.diff old_a (Bench_diff.load (write_artifact dir "blow.json" blow)) in
  check_int "size regression detected" 1 (Bench_diff.num_regressions r2)

let test_bench_diff_missing_row_and_improvement () =
  with_temp_dir @@ fun dir ->
  let old_a = Bench_diff.load (write_artifact dir "old.json" base_artifact) in
  (* dk16 vanished; lion got faster and smaller: improvements are never
     regressions, the dropped row is. *)
  let new_text =
    {|{"schema":"nova-bench-espresso/1","benchmarks":[
      {"name":"lion","algorithm":"kiss","minimize_s":0.010,"num_cubes":5,"area":60,"states":4}]}|}
  in
  let r = Bench_diff.diff old_a (Bench_diff.load (write_artifact dir "new.json" new_text)) in
  check_int "missing row is the only regression" 1 (Bench_diff.num_regressions r);
  check "it is reported as missing" true (r.Bench_diff.missing = [ "dk16/kiss" ]);
  check "no delta is flagged" true
    (List.for_all (fun d -> not d.Bench_diff.regression) r.Bench_diff.deltas)

let test_bench_diff_schema_mismatch () =
  with_temp_dir @@ fun dir ->
  let a = Bench_diff.load (write_artifact dir "a.json" base_artifact) in
  let b =
    Bench_diff.load
      (write_artifact dir "b.json" {|{"schema":"nova-bench-other/1","benchmarks":[]}|})
  in
  match Bench_diff.diff a b with
  | _ -> Alcotest.fail "schema mismatch must raise"
  | exception Bench_diff.Schema_mismatch _ -> ()

(* Satellite fix: a row present in both artifacts but with a metric
   *set* that shrank in NEW used to fall through the flattening silently.
   A vanished gateable metric (wall/size/complexity) is a regression; a
   vanished neutral metric is only a note. *)
let test_bench_diff_vanished_metric () =
  with_temp_dir @@ fun dir ->
  let old_a = Bench_diff.load (write_artifact dir "old.json" base_artifact) in
  (* lion: num_cubes (size metric) vanished — the OK-row-turned-error-row
     shape. dk16: states (neutral) vanished — a schema change, noted. *)
  let new_text =
    {|{"schema":"nova-bench-espresso/1","benchmarks":[
      {"name":"lion","algorithm":"kiss","minimize_s":0.100,"area":120,"states":4},
      {"name":"dk16","algorithm":"kiss","minimize_s":0.500,"num_cubes":50,"area":900}]}|}
  in
  let r = Bench_diff.diff old_a (Bench_diff.load (write_artifact dir "new.json" new_text)) in
  check_int "vanished size metric is the only regression" 1 (Bench_diff.num_regressions r);
  check "both vanishings recorded" true
    (r.Bench_diff.vanished = [ ("lion/kiss", "num_cubes"); ("dk16/kiss", "states") ]);
  check "no delta is flagged" true
    (List.for_all (fun d -> not d.Bench_diff.regression) r.Bench_diff.deltas)

(* Complexity metrics (the scaling bench's fitted classes) gate
   absolutely: any model_order increase regresses, exponent drift past
   the fixed tolerance regresses, improvements never do — all of it
   independent of the relative threshold. *)
let scaling_artifact ~order ~exponent =
  Printf.sprintf
    {|{"schema":"nova-bench-scaling/v1","benchmarks":[
      {"name":"dense4x4","algorithm":"igreedy","fit":{"model_order":%d,"fitted_exponent":%g,"r2":0.99}}]}|}
    order exponent

let test_bench_diff_complexity_gate () =
  with_temp_dir @@ fun dir ->
  let load name text = Bench_diff.load (write_artifact dir name text) in
  let old_a = load "old.json" (scaling_artifact ~order:3 ~exponent:2.0) in
  let regressions ?threshold new_a =
    Bench_diff.num_regressions (Bench_diff.diff ?threshold old_a new_a)
  in
  (* quadratic -> cubic: +1 class rank (+33%, but gated absolutely): the
     exponent stayed within tolerance, only the class fires. *)
  check_int "class rank bump regresses" 1
    (regressions (load "cubic.json" (scaling_artifact ~order:4 ~exponent:2.2)));
  (* ...even under a threshold generous enough to wave 100% through. *)
  check_int "class rank gate ignores the relative threshold" 1
    (regressions ~threshold:2.0 (load "cubic2.json" (scaling_artifact ~order:4 ~exponent:2.2)));
  check_int "exponent drift within tolerance passes" 0
    (regressions (load "drift-ok.json" (scaling_artifact ~order:3 ~exponent:2.2)));
  check_int "exponent drift past tolerance regresses" 1
    (regressions (load "drift-bad.json" (scaling_artifact ~order:3 ~exponent:2.4)));
  check_int "improvement is never a regression" 0
    (regressions (load "better.json" (scaling_artifact ~order:1 ~exponent:1.0)));
  check "fit metrics classify as Complexity" true
    (Bench_diff.classify "fit.model_order" = Bench_diff.Complexity
    && Bench_diff.classify "fit.fitted_exponent" = Bench_diff.Complexity
    && Bench_diff.classify "fit.r2" = Bench_diff.Neutral)

let test_bench_diff_threshold () =
  with_temp_dir @@ fun dir ->
  let old_a = Bench_diff.load (write_artifact dir "old.json" base_artifact) in
  let slower =
    {|{"schema":"nova-bench-espresso/1","benchmarks":[
      {"name":"lion","algorithm":"kiss","minimize_s":0.115,"num_cubes":10,"area":120,"states":4},
      {"name":"dk16","algorithm":"kiss","minimize_s":0.500,"num_cubes":50,"area":900,"states":27}]}|}
  in
  let new_a = Bench_diff.load (write_artifact dir "new.json" slower) in
  (* 15% slower: inside the default 25% threshold, outside a 10% one. *)
  check_int "within default threshold" 0 (Bench_diff.num_regressions (Bench_diff.diff old_a new_a));
  check_int "past a tight threshold" 1
    (Bench_diff.num_regressions (Bench_diff.diff ~threshold:0.10 old_a new_a))

(* The one wall rule, at its edges: the relative slack is inclusive,
   and nothing within the 5 ms floor fails however large in relative
   terms. *)
let test_wall_rule_edges () =
  let regressed = Bench_diff.wall_regressed ~threshold:0.25 in
  let limit = 0.1 in
  check "limit x 1.25 passes" false (regressed ~reference:limit (limit *. 1.25));
  check "just above limit x 1.25, over the floor, fails" true
    (regressed ~reference:limit (Float.succ (limit *. 1.25)));
  check "4.9 ms over a 10 ms limit passes (49% worse)" false (regressed ~reference:0.010 0.0149);
  check "an equal value passes" false (regressed ~reference:limit limit)

(* A parallel artifact carries exactly its one wall gate, and its
   verdict is the rule applied to the values it records. *)
let test_parallel_artifact_gates () =
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let a =
    Scaling.Artifacts.parallel ~machines:[ Benchmarks.Suite.find "lion" ] ~quick:true ~jobs:1
      quiet
  in
  let field k g = Option.get (Json_min.member k g) in
  let num k g = Option.get (Json_min.to_float (field k g)) in
  let gates = Option.get (Option.bind (Json_min.member "gates" a) Json_min.to_list) in
  Alcotest.(check (list string))
    "the one parallel gate" [ "pool_vs_sequential" ]
    (List.map (fun g -> Option.get (Json_min.to_string (field "gate" g))) gates);
  List.iter
    (fun g ->
      let rule =
        not
          (Bench_diff.wall_regressed ~threshold:(num "slack" g) ~reference:(num "limit_s" g)
             (num "value_s" g))
      in
      check "pass is the wall rule on the recorded values" rule
        (field "pass" g = Json_min.Bool true))
    gates

(* Two domains writing one path each get their own temp file: no write
   raises, every read parses, and no temp file is left behind. *)
let test_write_atomic_two_writers () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "artifact.json" in
  let value = Json_min.Arr (List.init 20_000 (fun i -> Json_min.Num (float_of_int i))) in
  let writer () =
    for _ = 1 to 200 do
      Trace.write_atomic ~path value;
      ignore (Json_min.of_file path)
    done
  in
  let d = Stdlib.Domain.spawn writer in
  writer ();
  Stdlib.Domain.join d;
  check "the file holds the value" true (Json_min.of_file path = value);
  check "no temp file left" false
    (Array.exists (fun f -> f <> "artifact.json") (Sys.readdir dir))

let suite =
  [
    Alcotest.test_case "taut_fast saturates past-max_int spaces (overflow fix)" `Quick
      test_overflow_tautology;
    Alcotest.test_case "kiss on a 51-bit encoding certifies clean (pinned)" `Quick
      test_kiss_overflow_certification;
    Alcotest.test_case "metrics: nested sections observe every call" `Quick
      test_nested_sections_observe_every_call;
    Alcotest.test_case "instrument: registries read out sorted by name" `Quick
      test_instrument_sorted_output;
    Alcotest.test_case "trace: json_escape round-trips control/quote/unicode" `Quick
      test_trace_json_escape;
    Alcotest.test_case "instrument: to_json escapes hostile names" `Quick
      test_instrument_json_escaping;
    Alcotest.test_case "json_min: epoch timestamps keep every digit" `Quick
      test_render_epoch_timestamp;
    QCheck_alcotest.to_alcotest prop_render_roundtrips;
    Alcotest.test_case "telemetry: instrument block keys match BENCH_espresso.json" `Quick
      test_instrument_block_keys;
    Alcotest.test_case "trace: both exports round-trip attrs and validate" `Quick
      test_trace_export_attr_roundtrip;
    Alcotest.test_case "trace: two-domain concurrent emission stays well-formed" `Quick
      test_two_domain_hammer;
    Alcotest.test_case "trace: validator rejects malformed traces" `Quick test_validator_rejects;
    Alcotest.test_case "bench-diff: identical artifacts diff clean" `Quick
      test_bench_diff_identical;
    Alcotest.test_case "bench-diff: wall and size regressions flagged" `Quick
      test_bench_diff_regressions;
    Alcotest.test_case "bench-diff: dropped row is a regression, improvement is not" `Quick
      test_bench_diff_missing_row_and_improvement;
    Alcotest.test_case "bench-diff: schema mismatch refuses to compare" `Quick
      test_bench_diff_schema_mismatch;
    Alcotest.test_case "bench-diff: vanished gateable metric is a regression" `Quick
      test_bench_diff_vanished_metric;
    Alcotest.test_case "bench-diff: complexity metrics gate absolutely" `Quick
      test_bench_diff_complexity_gate;
    Alcotest.test_case "bench-diff: threshold is configurable" `Quick test_bench_diff_threshold;
    Alcotest.test_case "bench-diff: the wall rule at its edges" `Quick test_wall_rule_edges;
    Alcotest.test_case "artifacts: parallel gates follow the wall rule" `Quick
      test_parallel_artifact_gates;
    Alcotest.test_case "trace: two writers of one path never tear it" `Quick
      test_write_atomic_two_writers;
  ]
