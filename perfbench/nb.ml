(* The benchmark's worker: runs one workload and prints every metric by
   name, unit and sample count, ending with the one-line JSON result.
   perfbench/run.py builds this and the nova CLI, then runs it. *)

open Perfbench

let workload = ref ""
let seed = ref Spec.default_seed
let seconds = ref 30.
let trace = ref 0
let nova = ref ""
let tmp = ref ""
let out = ref ""
let commit = ref "unknown"
let nproc = ref 0

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed every input is derived from");
    ("--seconds", Arg.Set_float seconds, "S nominal length of the timed phase (sets the pass count)");
    ("--trace", Arg.Set_int trace, "0|1 run the traced replay and print per-layer metrics");
    ("--nova", Arg.Set_string nova, "PATH built nova CLI (serve workloads)");
    ("--tmp", Arg.Set_string tmp, "DIR private directory for sockets and caches");
    ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ("--commit", Arg.Set_string commit, "ID commit or source digest being measured");
    ("--nproc", Arg.Set_int nproc, "N processors available to this process");
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let fail code fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit code) fmt

let () =
  Arg.parse args (fun a -> fail 2 "unexpected argument %s" a) "nb --workload NAME [options]";
  let spec = match Spec.find !workload with Some w -> w | None -> fail 2 "unknown workload %S" !workload in
  if !tmp = "" then fail 2 "--tmp is required";
  List.iter
    (fun (m : Spec.metric) ->
      if not (Stats.valid_name m.Spec.metric && Stats.valid_unit m.Spec.unit_) then
        fail 2 "metric %S or its unit %S is outside the name grammar" m.Spec.metric m.Spec.unit_)
    (Spec.end_to_end @ Spec.per_layer);
  let stop = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigint stop;
  Sys.set_signal Sys.sigterm stop;
  Harness.Driver.quiet := true;
  Exec.Supervise.quiet := true;
  mkdir_p !tmp;
  let available = Exec.Pool.available_jobs () in
  let effective = Pooled.effective_jobs () in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d (default seed %d, held-out seed %d)\n"
    spec.Spec.name !seed !seconds !trace Spec.default_seed Spec.held_out_seed;
  Printf.printf "validity: nproc=%d available_jobs=%d effective_jobs=%d ocaml=%s code_version=%s commit=%s\n%!"
    !nproc available effective Sys.ocaml_version Exec.Job.code_version !commit;
  if spec.Spec.workload = Spec.Report_pool && effective < Pooled.jobs then
    fail 3 "invalid run: report-pool needs %d effective jobs, this process has %d" Pooled.jobs effective;
  let trace_on = !trace = 1 in
  let seconds = !seconds in
  let o =
    match spec.Spec.workload with
    | Spec.Encode_oneshot -> Oneshot.run ~seed:!seed ~seconds ~trace:trace_on
    | Spec.Report_pool -> Pooled.run ~seed:!seed ~seconds ~trace:trace_on
    | Spec.Serve_hit | Spec.Serve_miss ->
        if !nova = "" then fail 2 "--nova is required for %s" spec.Spec.name;
        let kind = if spec.Spec.workload = Spec.Serve_hit then Serving.Hit else Serving.Miss in
        Serving.run kind ~nova:!nova ~tmp:!tmp ~seed:!seed ~seconds ~trace:trace_on
  in
  let t = o.Outcome.timing in
  let best = Array.to_list t.Outcome.best in
  let slots = List.length best in
  let n = List.length t.Outcome.latencies in
  let failed = List.length o.Outcome.failures in
  let ms = Layers.ms in
  let p = spec.Spec.tail in
  let repeats = Printf.sprintf "%d slots, best of %d passes" slots t.Outcome.passes in
  let e2e =
    [
      ("setup_s", Stats.median o.Outcome.setups, Printf.sprintf "median of %d set-ups" (List.length o.Outcome.setups));
      ( "ops_per_s",
        float_of_int slots /. t.Outcome.best_pass_s,
        Printf.sprintf "%s: a pass of %.3f s; all %d ops took %.3f s with checks, %.2f op/s" repeats
          t.Outcome.best_pass_s n t.Outcome.timed_s (float_of_int n /. t.Outcome.timed_s) );
      ( "latency_p50_ms",
        ms (Stats.median best),
        Printf.sprintf "%s; median of all %d ops %.4f ms" repeats n (ms (Stats.median t.Outcome.latencies)) );
      ( "latency_tail_ms",
        ms (Stats.percentile ~p best),
        Printf.sprintf "p%d of %s, %d beyond%s; p%d of all %d ops %.4f ms" p repeats (Stats.beyond ~p slots)
          (match Stats.tail_percentile slots with
          | Some q when q = p -> ""
          | Some q -> Printf.sprintf " (at this count the rule picks p%d)" q
          | None -> " (fewer than 10 beyond any tail: under-sampled)")
          p n (ms (Stats.percentile ~p t.Outcome.latencies)) );
      ( "ok_ratio",
        Float.max 0. (1. -. (float_of_int failed /. float_of_int (max 1 o.Outcome.attempted))),
        Printf.sprintf "failed_ratio=%g, %d failed of %d attempted"
          (float_of_int failed /. float_of_int (max 1 o.Outcome.attempted)) failed o.Outcome.attempted );
      ( "pla_area_total",
        float_of_int o.Outcome.pla_area_total,
        Printf.sprintf "n=%d distinct inputs" o.Outcome.inputs );
      ( "product_terms_total",
        float_of_int o.Outcome.product_terms_total,
        Printf.sprintf "n=%d distinct inputs" o.Outcome.inputs );
      ( "peak_rss_mb",
        o.Outcome.peak_rss_mb,
        "VmHWM of the process doing the work: the daemon, or this process after the first pass" );
    ]
  in
  Printf.printf "inputs: %d distinct, digest %s\n" o.Outcome.inputs o.Outcome.digest;
  List.iter print_endline o.Outcome.notes;
  List.iter
    (fun (name, v, detail) -> Printf.printf "metric %-22s %14.4f %-6s %s\n" name v (Spec.unit_of name) detail)
    e2e;
  List.iteri (fun i f -> if i < 20 then Printf.printf "FAILED %s\n" f) o.Outcome.failures;
  if failed > 20 then Printf.printf "FAILED ... and %d more\n" (failed - 20);
  let metrics =
    match o.Outcome.trace with
    | None -> List.map (fun (name, v, _) -> (name, v)) e2e
    | Some (r, given) ->
        let layers = Layers.complete given r in
        List.iter (fun (name, v) -> Printf.printf "layer %-30s %12.4f %s\n" name v (Spec.unit_of name)) layers;
        if !out <> "" then begin
          mkdir_p !out;
          let path = Filename.concat !out (Printf.sprintf "%s-seed%d.spans.jsonl" spec.Spec.name !seed) in
          Out_channel.with_open_text path (fun oc -> Spans.to_jsonl oc r);
          Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans r)) path
        end;
        layers
  in
  print_endline
    (Outcome.json_line ~correct:(failed = 0) ~attempted:o.Outcome.attempted ~failed metrics)
