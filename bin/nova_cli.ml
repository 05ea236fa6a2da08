(* The nova command-line tool: encode the states of a KISS2 FSM with any
   of the paper's algorithms, report the resulting two-level
   implementation, and inspect constraints.

     nova stats machine.kiss2
     nova constraints machine.kiss2
     nova encode --algorithm ihybrid machine.kiss2
     nova encode --algorithm iexact --budget-ms 50 machine.kiss2
     nova encode --algorithm mustang-nt --bits 5 machine.kiss2
     nova stats dk16                 (run on a built-in benchmark machine)
     nova bench espresso --quick     (write a BENCH_*.json artifact)
     nova gen --states 80 --rows 400 (emit a synthetic stress machine)

   Exit codes (see Nova_error.exit_code): 0 success, 2 parse error,
   3 budget exhausted, 4 infeasible, 5 invalid request,
   6 certification failed, 7 job crashed (supervision exhausted). *)

open Cmdliner

(* A machine argument is a KISS2 file, named after its basename, when
   one exists at [path]; otherwise it names a built-in machine. *)
let kiss2_file path =
  if Sys.file_exists path then
    Some
      ( Filename.remove_extension (Filename.basename path),
        In_channel.with_open_text path In_channel.input_all )
  else None

let read_machine path =
  match kiss2_file path with
  | Some (name, text) -> (
      match Kiss.parse_result ~name ~file:path text with
      | Ok m -> Ok m
      | Error { Kiss.file; line; col; msg } ->
          Error (Nova_error.Parse_error { file; line; col; msg }))
  | None -> (
      match Benchmarks.Suite.find path with
      | m -> Ok m
      | exception Not_found ->
          Error
            (Nova_error.Invalid_request
               (Printf.sprintf "no file and no built-in machine called %S (try `nova list`)" path)))

(* Print the error the structured way and return its distinct exit
   code; every subcommand funnels failures through here. *)
let fail_with err =
  Printf.eprintf "nova: %s\n" (Nova_error.to_string err);
  Nova_error.exit_code err

let with_machine path f =
  match read_machine path with Ok m -> f m | Error err -> fail_with err

let machine_arg =
  let doc = "KISS2 file, or the name of a built-in benchmark machine." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE" ~doc)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd =
  let run path =
    with_machine path @@ fun m ->
    let s = Fsm.stats m in
    Printf.printf "%s: %d inputs, %d outputs, %d states, %d product terms\n" s.Fsm.stat_name
      s.Fsm.stat_inputs s.Fsm.stat_outputs s.Fsm.stat_states s.Fsm.stat_products;
    Printf.printf "minimum code length: %d bits; 1-hot: %d bits\n" (Fsm.min_code_length m)
      s.Fsm.stat_states;
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the statistics of a machine (Table I columns).")
    Term.(const run $ machine_arg)

(* --- constraints --------------------------------------------------------- *)

let constraints_cmd =
  let run path =
    with_machine path @@ fun m ->
    let sym = Symbolic.of_fsm m in
    let cover = Symbolic.minimize sym in
    let ics = Constraints.of_cover sym cover in
    Printf.printf "input constraints of %s (from multiple-valued minimization):\n" m.Fsm.name;
    List.iter
      (fun (ic : Constraints.input_constraint) ->
        Printf.printf "  %s  weight %d  {%s}\n"
          (Bitvec.to_string ic.Constraints.states)
          ic.Constraints.weight
          (String.concat ","
             (List.map (fun s -> m.Fsm.states.(s)) (Bitvec.to_list ic.Constraints.states))))
      ics;
    let sm = Symbmin.run ~cover sym in
    Printf.printf "symbolic minimization: %d product terms, %d covering edges\n"
      (Symbmin.upper_bound sm) (List.length sm.Symbmin.graph);
    List.iter
      (fun (u, v, w) ->
        Printf.printf "  %s > %s (gain %d)\n" m.Fsm.states.(u) m.Fsm.states.(v) w)
      sm.Symbmin.graph;
    0
  in
  Cmd.v
    (Cmd.info "constraints"
       ~doc:"Print the input constraints and output covering constraints of a machine.")
    Term.(const run $ machine_arg)

(* --- encode -------------------------------------------------------------- *)

(* [-a] takes any algorithm's {!Harness.Driver.name}; a bare [random]
   is seeded by [--seed] where the command has one, and means
   [random[0]] where it does not. *)
let algo_names =
  String.concat ", " (List.map Harness.Driver.name Harness.Driver.named_algorithms) ^ ", random"

let algo_info doc = Arg.info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc

let algo_opt =
  let parse s =
    if s = "random" then Ok (fun seed -> Harness.Driver.Random seed)
    else
      match Harness.Driver.algorithm_of_name s with
      | Some a -> Ok (fun _ -> a)
      | None ->
          Error (`Msg (Printf.sprintf "unknown algorithm %S, expected one of %s" s algo_names))
  in
  let print ppf algo = Format.pp_print_string ppf (Harness.Driver.name (algo 0)) in
  Arg.opt (Arg.conv (parse, print)) (fun _ -> Harness.Driver.Ihybrid)

let algo_arg =
  let doc = "Encoding algorithm: " ^ algo_names ^ " (seeded by $(b,--seed)) or random[SEED]." in
  let seed_arg =
    let doc = "Seed for the random algorithm." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  Term.(const (fun algo seed -> algo seed) $ Arg.value (algo_opt (algo_info doc)) $ seed_arg)

let bits_arg =
  let doc = "Code length in bits (defaults to the algorithm's choice)." in
  Arg.(value & opt (some int) None & info [ "b"; "bits" ] ~docv:"N" ~doc)

let pla_arg =
  let doc = "Also print the minimized encoded PLA personality." in
  Arg.(value & flag & info [ "pla" ] ~doc)

let instrument_arg =
  let doc =
    "Print the metrics registry to stderr when done, in the Prometheus text format that \
     $(b,client metrics) returns: kernel operation counts (nova_events_total), section \
     timings (nova_span_seconds) and every other series."
  in
  Arg.(value & flag & info [ "instrument" ] ~doc)

let budget_ms_arg =
  let doc =
    "Wall-clock deadline for the whole encode (milliseconds). When it passes, the encoder \
     degrades down the fallback ladder and the minimizer returns its best cover so far."
  in
  Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS" ~doc)

let max_work_arg =
  let doc =
    "Work budget for the whole encode (elementary search steps across all stages), on top \
     of each algorithm's intrinsic per-call caps."
  in
  Arg.(value & opt (some int) None & info [ "max-work" ] ~docv:"N" ~doc)

let fallback_arg =
  let doc =
    "Turn the first failure into an error exit instead of degrading to cheaper rungs of the \
     algorithm's family when a stage fails or runs out of budget (iexact > semiexact > \
     project > igreedy; iohybrid > ihybrid > igreedy)."
  in
  Term.(const not $ Arg.(value & flag & info [ "no-fallback" ] ~doc))

let certify_arg =
  let doc =
    "Re-verify the result with the independent certificate layer (injectivity, code length, \
     face constraints, output covering, cover containment, trace equivalence) and print a \
     per-check report. A failed certificate exits with code 6."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let inject_arg =
  let doc =
    "Inject a fault of the given class into the artifacts before certifying (implies \
     $(b,--certify)): "
    ^ String.concat ", " (List.map Check.Inject.name Check.Inject.all)
    ^ ". For exercising the checker; a genuine injection must make certification fail."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"CLASS" ~doc)

let quiet_arg =
  let doc = "Suppress fallback-degradation warnings on stderr." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let trace_arg =
  let doc =
    "Record a structured trace of the run (span tree with per-domain tracks) and write it \
     to $(docv) on exit: $(b,.jsonl) gets the append-only event log, anything else the \
     Chrome trace-event JSON loadable in Perfetto. Tracing never touches stdout, so traced \
     and untraced runs are byte-identical there."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] under tracing when [--trace FILE] was given: enable, stamp
   the run manifest, run, stamp the totals, export. The only terminal
   output is a one-line note on stderr — stdout stays untouched. *)
let run_traced trace ~meta f =
  match trace with
  | None -> f ()
  | Some path ->
      Trace.enable ();
      Trace.set_meta
        (("code_version", Trace.String Exec.Job.code_version)
        :: ("nova_version", Trace.String "1.0.0")
        :: meta);
      let code = f () in
      Trace.set_meta [ ("events", Trace.Int (Trace.event_count ())) ];
      (match Trace.export ~path () with
      | () -> Printf.eprintf "trace: %d events written to %s\n" (Trace.event_count ()) path
      | exception Sys_error msg -> Printf.eprintf "nova: trace export failed: %s\n" msg);
      code

(* Certify the report (optionally after injecting a fault), print the
   per-check lines, and return the process exit code. *)
let certify_and_report m outcome r inject =
  let artifacts = Harness.Certify.artifacts_of outcome r in
  let injected =
    match inject with
    | None -> Ok artifacts
    | Some cls -> (
        match Check.Inject.of_name cls with
        | None ->
            Error (Nova_error.Invalid_request (Printf.sprintf "unknown fault class %S" cls))
        | Some fault -> (
            match Check.Inject.apply m artifacts fault with
            | Some a -> Ok a
            | None ->
                Error
                  (Nova_error.Invalid_request
                     (Printf.sprintf "no genuine %s fault exists for machine %s" cls m.Fsm.name))))
  in
  match injected with
  | Error err -> fail_with err
  | Ok artifacts -> (
      let cert = Check.certify m artifacts in
      List.iter
        (fun (o : Check.outcome) ->
          Printf.printf "  [%s] %-16s %7.3fs%s\n"
            (if o.Check.pass then "PASS" else "FAIL")
            (Check.check_name o.Check.id) o.Check.span_s
            (if o.Check.detail = "" then "" else "  " ^ o.Check.detail))
        cert.Check.checks;
      Printf.printf "%s\n" (Check.summary cert);
      match Harness.Certify.error_of ~machine:m.Fsm.name cert with
      | None -> 0
      | Some err -> fail_with err)

let s_cli_encode = Metrics.section "cli.encode"

let encode algo bits pla instrument budget_ms max_work fallback certify inject
    quiet trace path =
  if quiet then Harness.Driver.quiet := true;
  with_machine path @@ fun m ->
  run_traced trace
    ~meta:
      [
        ("machine", Trace.String m.Fsm.name);
        ( "options",
          Trace.String
            (Printf.sprintf "bits=%s;budget_ms=%s;max_work=%s;fallback=%b;certify=%b"
               (match bits with Some b -> string_of_int b | None -> "-")
               (match budget_ms with Some ms -> Printf.sprintf "%g" ms | None -> "-")
               (match max_work with Some w -> string_of_int w | None -> "-")
               fallback certify) );
        ("jobs", Trace.Int 1);
      ]
  @@ fun () ->
  (* The root span of the whole subcommand: the espresso phases of the
     1-hot reference and the certification checks run outside the
     driver's own spans, and inherit machine/algorithm from here. *)
  Metrics.span s_cli_encode
    ~attrs:
      [
        ("machine", Trace.String m.Fsm.name);
        ("algorithm", Trace.String (Harness.Driver.name algo));
      ]
  @@ fun () ->
  let budget = Budget.create ?max_work ?deadline_ms:budget_ms () in
  match Harness.Driver.report ?bits ~budget ~fallback m algo with
  | Error err -> fail_with err
  | Ok (outcome, r) ->
      let encoding = outcome.Harness.Driver.encoding in
      (* Rendered through the shared module the daemon serves from, so
         a served payload is byte-identical to this stdout by
         construction (the CI determinism pin diffs the two). *)
      print_string
        (Serve.Render.encode_text m encoding ~num_cubes:r.Encoded.num_cubes
           ~area:r.Encoded.area
           ~onehot:(Serve.Render.onehot_reference ~budget m));
      if pla then
        Pla.print Format.std_formatter r.Encoded.cover
          ~num_binary_vars:(m.Fsm.num_inputs + encoding.Encoding.nbits);
      let code =
        if certify || inject <> None then certify_and_report m outcome r inject else 0
      in
      if instrument then prerr_string (Metrics.Expose.prometheus ());
      code

let encode_cmd =
  Cmd.v
    (Cmd.info "encode" ~doc:"Encode a machine's states and report the implementation.")
    Term.(
      const encode $ algo_arg $ bits_arg $ pla_arg $ instrument_arg $ budget_ms_arg
      $ max_work_arg $ fallback_arg $ certify_arg $ inject_arg $ quiet_arg
      $ trace_arg $ machine_arg)

(* --- report: the parallel portfolio executor ----------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for the portfolio executor (1 = sequential, below 1 is refused; results \
     are bit-identical for every value)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let race_arg =
  let doc =
    "Race each machine's portfolio: members run concurrently, the first acceptable result \
     (primary rung, no degradation) wins and losing members are cancelled through the \
     budget tree. Reports one winning row per machine."
  in
  Arg.(value & flag & info [ "race" ] ~doc)

let cache_dir_arg =
  let doc =
    "Content-addressed result cache directory (default $(b,NOVA_CACHE_DIR) or \
     $(b,.nova-cache)). Cached entries are re-certified by the independent checker before \
     being trusted; tampered entries are dropped and recomputed."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the result cache for this run." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let heavy_arg =
  let doc = "Include the heavy machines (scf, tbk, planet) when no machine is named." in
  Arg.(value & flag & info [ "heavy" ] ~doc)

let machines_arg =
  let doc =
    "KISS2 files or built-in machine names; defaults to the whole non-heavy benchmark \
     suite."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"MACHINE" ~doc)

let chaos_arg =
  let doc =
    "Seeded fault-injection schedule for the supervision tests: comma-separated \
     $(b,SITE:COUNT) pairs, e.g. $(b,rung:2,cache-read:1). Sites: rung, cache-read, \
     cache-write, recertify, pool, serve. Each site raises COUNT injected faults at \
     seed-deterministic invocations; absorbed faults leave stdout byte-identical to a \
     fault-free run."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let chaos_seed_arg =
  let doc = "Seed selecting which invocations of each $(b,--chaos) site fault." in
  Arg.(value & opt int 0 & info [ "chaos-seed" ] ~docv:"N" ~doc)

let default_cache_dir () =
  match Sys.getenv_opt "NOVA_CACHE_DIR" with Some d -> d | None -> ".nova-cache"

let report_machines names heavy =
  match names with
  | [] ->
      Ok
        (List.filter_map
           (fun (e : Benchmarks.Suite.entry) ->
             if e.Benchmarks.Suite.heavy && not heavy then None
             else Some (Lazy.force e.Benchmarks.Suite.machine))
           Benchmarks.Suite.all)
  | names ->
      let rec read = function
        | [] -> Ok []
        | name :: rest ->
            Result.bind (read_machine name) (fun m -> Result.map (List.cons m) (read rest))
      in
      read names

(* The setup report and serve share: [--quiet] silences both warning
   sources; then what they refuse before any work, a worker count below
   one, then a malformed chaos schedule (a valid one is armed). *)
let prepare_pool ~verb ~quiet jobs chaos chaos_seed =
  if quiet then begin
    Harness.Driver.quiet := true;
    Exec.Supervise.quiet := true
  end;
  if jobs < 1 then Error (Nova_error.Invalid_request (verb ^ ": --jobs must be >= 1"))
  else
    match chaos with
    | None -> Ok ()
    | Some spec -> (
        match Exec.Chaos.configure ~seed:chaos_seed spec with
        | Ok () -> Ok ()
        | Error msg -> Error (Nova_error.Invalid_request ("--chaos " ^ msg)))

(* A cache path that is a file, or that cannot be created, is an
   invalid request: refused before any work is done. *)
let open_cache ~no_cache cache_dir =
  if no_cache then Ok None
  else
    match Exec.Cache.open_dir (Option.value cache_dir ~default:(default_cache_dir ())) with
    | c -> Ok (Some c)
    | exception Sys_error msg -> Error (Nova_error.Invalid_request msg)

(* stdout carries only deterministic data (the table); wall-clock and
   cache statistics go to stderr so output is byte-comparable across
   --jobs levels and cold/warm cache runs. *)
let report jobs race cache_dir no_cache heavy instrument quiet trace chaos chaos_seed
    machines =
  let setup =
    Result.bind (prepare_pool ~verb:"report" ~quiet jobs chaos chaos_seed) @@ fun () ->
    Result.bind (report_machines machines heavy) @@ fun ms ->
    Result.map (fun cache -> (ms, cache)) (open_cache ~no_cache cache_dir)
  in
  match setup with
  | Error err -> fail_with err
  | Ok (ms, cache) ->
      run_traced trace
        ~meta:
          [
            ("machines", Trace.Int (List.length ms));
            ( "options",
              Trace.String
                (Printf.sprintf "race=%b;cache=%b;heavy=%b" race (not no_cache) heavy) );
            ("jobs", Trace.Int jobs);
          ]
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      (* [rows] feeds the table; [all_rows] (racing losers included)
         feeds the exit code, so a portfolio whose every member crashed
         fails loudly even when the race printed nothing. *)
      let rows, all_rows =
        if race then
          let per_machine =
            List.map (fun m -> Exec.Portfolio.race ~jobs ?cache (Exec.Portfolio.tasks_for m)) ms
          in
          ( List.concat_map
              (fun (rows, winner) ->
                match winner with None -> [] | Some w -> [ List.nth rows w ])
              per_machine,
            List.concat_map fst per_machine )
        else
          let tasks = List.concat_map Exec.Portfolio.tasks_for ms in
          let rows = Exec.Portfolio.run ~jobs ?cache tasks in
          (rows, rows)
      in
      let wall = Unix.gettimeofday () -. t0 in
      (* The shared renderer the daemon serves from: stdout here is
         byte-identical to a served report payload by construction. *)
      print_string (Serve.Render.report_table ~race ~num_machines:(List.length ms) rows);
      Printf.eprintf "report: %d rows in %.3fs (%d jobs%s)\n" (List.length rows) wall jobs
        (if race then ", racing" else "");
      (match cache with
      | None -> ()
      | Some c ->
          let s = Exec.Cache.stats c in
          Printf.eprintf "cache: %d hits, %d misses, %d stores, %d rejected (%s)\n"
            s.Exec.Cache.hits s.Exec.Cache.misses s.Exec.Cache.stores s.Exec.Cache.rejected
            (Exec.Cache.dir c));
      if instrument then prerr_string (Metrics.Expose.prometheus ());
      match Exec.Portfolio.first_error all_rows with None -> 0 | Some e -> fail_with e

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the encoding portfolio (iexact, iohybrid, ihybrid, igreedy + baselines) over \
          machines on a parallel domain pool, with an on-disk certified result cache. \
          Results are bit-identical whatever $(b,--jobs) is. With $(b,--chaos), injects a \
          seeded fault schedule to exercise the supervision layer.")
    Term.(
      const report $ jobs_arg $ race_arg $ cache_dir_arg $ no_cache_arg $ heavy_arg
      $ instrument_arg $ quiet_arg $ trace_arg $ chaos_arg $ chaos_seed_arg $ machines_arg)

(* --- minstates -------------------------------------------------------------- *)

let minstates_cmd =
  let run exact path =
    with_machine path @@ fun m ->
    let before = Fsm.num_states ~m in
    let reduced =
      if exact then Reduce_states.reduce m else Reduce_states.reduce_incompletely_specified m
    in
    let after = Fsm.num_states ~m:reduced in
    Printf.eprintf "%s: %d states -> %d states (%s)\n" m.Fsm.name before after
      (if exact then "partition refinement" else "compatibility merging");
    print_string (Kiss.to_string reduced);
    0
  in
  let exact_arg =
    let doc =
      "Use exact partition refinement (completely specified machines) instead of the \
       incompletely-specified compatibility heuristic."
    in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  Cmd.v
    (Cmd.info "minstates"
       ~doc:"Minimize the number of states and print the reduced machine in KISS2 format.")
    Term.(const run $ exact_arg $ machine_arg)

(* --- dot / blif -------------------------------------------------------------- *)

let dot_cmd =
  let run path =
    with_machine path @@ fun m ->
    Export.dot Format.std_formatter m;
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the machine as a Graphviz digraph.")
    Term.(const run $ machine_arg)

let blif_cmd =
  let run algo bits path =
    with_machine path @@ fun m ->
    match Harness.Driver.report ?bits m algo with
    | Error err -> fail_with err
    | Ok (outcome, r) ->
        let num_inputs = m.Fsm.num_inputs + outcome.Harness.Driver.encoding.Encoding.nbits in
        let net = Multilevel.of_cover r.Encoded.cover ~num_binary_vars:num_inputs in
        Export.blif Format.std_formatter (Multilevel.optimize net) ~name:m.Fsm.name ~num_inputs;
        0
  in
  Cmd.v
    (Cmd.info "blif"
       ~doc:
         "Encode the machine, optimize the encoded network multilevel, and print it in BLIF \
          (state bits appear as extra inputs/outputs).")
    Term.(const run $ algo_arg $ bits_arg $ machine_arg)

(* --- gen ----------------------------------------------------------------- *)

let gen_cmd =
  let run name inputs outputs states rows seed =
    if states < 1 || rows < 1 || inputs < 1 || outputs < 0 then
      fail_with (Nova_error.Invalid_request "gen: counts must be positive")
    else begin
      let m =
        Benchmarks.Generator.generate ~name ~num_inputs:inputs ~num_outputs:outputs
          ~num_states:states ~num_rows:rows ~seed
      in
      print_string (Kiss.to_string m);
      0
    end
  in
  let int_opt long short doc default =
    Arg.(value & opt int default & info [ long; short ] ~docv:"N" ~doc)
  in
  let name_arg =
    Arg.(value & opt string "gen" & info [ "name" ] ~docv:"NAME" ~doc:"Machine name.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a deterministic synthetic benchmark machine in KISS2 format on stdout \
          (the suite's generator; used by the CI deadline-stress run).")
    Term.(
      const run $ name_arg
      $ int_opt "inputs" "i" "Number of primary inputs." 8
      $ int_opt "outputs" "o" "Number of primary outputs." 8
      $ int_opt "states" "s" "Number of states." 80
      $ int_opt "rows" "p" "Number of transition rows." 400
      $ int_opt "gen-seed" "g" "Generator seed." 4242)

(* --- bench: every BENCH_*.json artifact ------------------------------------ *)

let quick_arg =
  let doc =
    "CI size: the small machine set for the point-sample modes; for $(b,scaling), sizes 8-64, \
     the cheap algorithms only and 3 repetitions (the full grid runs 8-512 with 5)."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let out_arg mode =
  let doc = "Output artifact path." in
  Arg.(value & opt string ("BENCH_" ^ mode ^ ".json") & info [ "o"; "out" ] ~docv:"FILE" ~doc)

(* Every artifact is written here, atomically, and announced on [ppf]. *)
let write_artifact ppf out artifact =
  match Trace.write_atomic ~path:out artifact with
  | () -> Format.fprintf ppf "wrote %s@." out; 0
  | exception Sys_error msg -> fail_with (Nova_error.Invalid_request ("bench: " ^ msg))

let bench_scaling_cmd =
  let run quick reps out =
    match reps with
    | Some r when r < 1 ->
        fail_with (Nova_error.Invalid_request "bench scaling: --reps must be >= 1")
    | _ ->
        let cells = Scaling.Report.run ~quick ?reps ~progress:Format.err_formatter () in
        let reps = match reps with Some r -> r | None -> if quick then 3 else 5 in
        Scaling.Report.summary Format.std_formatter cells;
        write_artifact Format.err_formatter out (Scaling.Report.to_json ~quick ~reps cells)
  in
  let reps_arg =
    let doc = "Timed repetitions per grid cell (after one warmup run)." in
    Arg.(value & opt (some int) None & info [ "r"; "reps" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:
         "Measure every scaling-grid cell (seeded machine family x encoding algorithm, \
          states 8-512), fit runtime vs size against linear / n log n / quadratic / cubic / \
          exponential models, and write the nova-bench-scaling/v1 artifact that \
          $(b,nova bench-diff) gates on (fitted model class and exponent, not single wall \
          numbers).")
    Term.(const run $ quick_arg $ reps_arg $ out_arg "scaling")

(* The point-sample modes: progress lines and the "wrote" line on stdout. *)
let bench_point_cmd mode doc build =
  let run quick out = write_artifact Format.std_formatter out (build ~quick Format.std_formatter) in
  Cmd.v (Cmd.info mode ~doc) Term.(const run $ quick_arg $ out_arg mode)

let bench_point_cmds =
  [
    bench_point_cmd "espresso" "Time ESPRESSO on a fixed encoding of every bench machine."
      (fun ~quick ppf -> Scaling.Artifacts.espresso ~quick ppf);
    bench_point_cmd "pipeline" "Run ihybrid unlimited and iexact under a 50 ms deadline."
      (fun ~quick ppf -> Scaling.Artifacts.pipeline ~quick ppf);
    bench_point_cmd "check" "Certify every constraint-driven algorithm's result."
      (fun ~quick ppf -> Scaling.Artifacts.check ~quick ppf);
  ]

let bench_parallel_cmd =
  let run quick jobs out =
    match jobs with
    | Some j when j < 1 ->
        fail_with (Nova_error.Invalid_request "bench parallel: --jobs must be >= 1")
    | _ ->
        let jobs = Option.value jobs ~default:(Exec.Pool.available_jobs ()) in
        let ppf = Format.std_formatter in
        write_artifact ppf out (Scaling.Artifacts.parallel ~quick ~jobs ppf)
  in
  let jobs_arg =
    let doc = "Worker domains for the pooled runs (default: the available cores)." in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Run the portfolio sequentially, pooled, supervised and bare, and cold then warm \
          against a fresh cache.")
    Term.(const run $ quick_arg $ jobs_arg $ out_arg "parallel")

let bench_serve_cmd =
  let run machine clients out =
    if clients < 2 then
      fail_with (Nova_error.Invalid_request "bench serve: --clients must be >= 2")
    else
      match Scaling.Artifacts.serve ~machine ~clients Format.std_formatter with
      | Ok artifact -> write_artifact Format.err_formatter out artifact
      | Error m -> fail_with (Nova_error.Invalid_request ("bench serve: " ^ m))
  in
  let machine_name_arg =
    let doc = "Built-in machine to serve (the compute must dwarf the protocol overhead)." in
    Arg.(value & opt string "dk16" & info [ "m"; "machine" ] ~docv:"NAME" ~doc)
  in
  let clients_arg =
    let doc = "Concurrent identical clients for the coalesced tier." in
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Measure the daemon's three latency tiers — cold compute, certified cache hit, \
          coalesced share — against in-process servers on private sockets, and write the \
          nova-bench-serve/v1 artifact that $(b,nova bench-diff) gates on.")
    Term.(const run $ machine_name_arg $ clients_arg $ out_arg "serve")

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Write the BENCH_*.json artifacts that $(b,nova bench-diff) compares; \
          bench/main.exe reproduces the paper's tables and writes none.")
    (bench_point_cmds @ [ bench_parallel_cmd; bench_scaling_cmd; bench_serve_cmd ])

(* --- bench-diff ------------------------------------------------------------ *)

let bench_diff_cmd =
  let run threshold old_path new_path =
    if threshold < 0. then
      fail_with (Nova_error.Invalid_request "bench-diff: threshold must be non-negative")
    else
      let threshold = threshold /. 100. in
      match (Bench_diff.load old_path, Bench_diff.load new_path) with
      | exception Sys_error msg ->
          fail_with (Nova_error.Invalid_request (Printf.sprintf "bench-diff: %s" msg))
      | exception Json_min.Parse_error msg ->
          fail_with (Nova_error.Invalid_request (Printf.sprintf "bench-diff: %s" msg))
      | old_a, new_a -> (
          match Bench_diff.diff ~threshold old_a new_a with
          | exception Bench_diff.Schema_mismatch (a, b) ->
              fail_with
                (Nova_error.Invalid_request
                   (Printf.sprintf "bench-diff: schema mismatch (%s vs %s)" a b))
          | r ->
              let n =
                Bench_diff.report ~threshold Format.std_formatter ~old_path ~new_path r
              in
              if n = 0 then 0 else 1)
  in
  let threshold_arg =
    let doc =
      "Regression threshold in percent: a wall metric (keys ending in $(b,_s)) or size \
       metric (num_cubes, literal_cost, area, nbits) that worsens by more than this much \
       is a regression."
    in
    Arg.(value & opt float 25.0 & info [ "t"; "threshold" ] ~docv:"PCT" ~doc)
  in
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json" ~doc:"Baseline artifact.")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json" ~doc:"Candidate artifact.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_*.json artifacts row by row and metric by metric; exit 1 when \
          any wall or size metric regressed past the threshold (or a row disappeared), \
          0 otherwise.")
    Term.(const run $ threshold_arg $ old_arg $ new_arg)

(* --- cache ----------------------------------------------------------------- *)

let cache_fsck_cmd =
  let run dir =
    let dir = Option.value dir ~default:(default_cache_dir ()) in
    if not (Sys.file_exists dir) then begin
      Printf.eprintf "nova: cache fsck: no cache directory at %s\n" dir;
      0 (* an absent cache is a healthy (empty) cache *)
    end
    else
      match Exec.Cache.open_dir dir with
      | exception Sys_error msg -> fail_with (Nova_error.Invalid_request msg)
      | c ->
          let r = Exec.Cache.fsck c in
          Printf.printf
            "cache fsck %s: %d entries scanned, %d valid, %d broken removed, %d stale tmp \
             removed\n"
            dir r.Exec.Cache.scanned r.Exec.Cache.valid r.Exec.Cache.removed
            r.Exec.Cache.tmp_removed;
          0
  in
  let dir_arg =
    let doc =
      "Cache directory to check (default $(b,NOVA_CACHE_DIR) or $(b,.nova-cache))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify the structural integrity (magic + checksum) of every cache entry, delete \
          broken entries and stale temp files left by writers that died mid-store. Semantic \
          certification still happens on every lookup; fsck only reclaims junk early.")
    Term.(const run $ dir_arg)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Maintain the content-addressed result cache.")
    [ cache_fsck_cmd ]

(* --- serve: the batching encode daemon ------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path (created at startup, removed at shutdown)." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let max_inflight_arg =
    let doc =
      "Concurrent compute slots: how many requests may be computing at once (coalesced \
       requests share a slot; connections are unbounded). The default of 1 serializes \
       compute, which also keeps a $(b,--trace) artifact's span stacks valid."
    in
    Arg.(value & opt int 1 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let request_budget_ms_arg =
    let doc =
      "Admission ceiling: the most wall-clock any single request's compute may consume \
       (milliseconds). A request asking for less keeps its own deadline; one asking for \
       more is clamped — one huge FSM cannot starve the queue."
    in
    Arg.(value & opt (some float) None & info [ "request-budget-ms" ] ~docv:"MS" ~doc)
  in
  let request_max_work_arg =
    let doc = "Admission ceiling on the work budget of a single request's compute." in
    Arg.(value & opt (some int) None & info [ "request-max-work" ] ~docv:"N" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per request to $(docv): id, verb, machine, algorithm, serving \
       tier, wall time, outcome/exit code and budget spend. Append-only; safe to tail."
    in
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let flight_record_arg =
    let doc =
      "Dump the flight recorder (the last $(b,--flight-capacity) request summaries) to \
       $(docv) as JSON on crash, on shutdown, and on each $(b,flightrec) request — the \
       forensic record a wedged daemon leaves behind."
    in
    Arg.(value & opt (some string) None & info [ "flight-record" ] ~docv:"FILE" ~doc)
  in
  let flight_capacity_arg =
    let doc = "Flight-recorder ring size (last N request summaries)." in
    Arg.(
      value
      & opt int Serve.Server.default_flight_capacity
      & info [ "flight-capacity" ] ~docv:"N" ~doc)
  in
  let run socket jobs max_inflight cap_ms cap_work cache_dir no_cache quiet trace chaos
      chaos_seed access_log flight_record flight_capacity =
    match
      Result.bind (prepare_pool ~verb:"serve" ~quiet jobs chaos chaos_seed) (fun () ->
          open_cache ~no_cache cache_dir)
    with
    | Error err -> fail_with err
    | Ok cache -> (
        run_traced trace
          ~meta:[ ("socket", Trace.String socket); ("jobs", Trace.Int jobs) ]
        @@ fun () ->
        let cfg =
          {
            Serve.Server.socket_path = socket; jobs; max_inflight;
            cap_deadline_ms = cap_ms; cap_work; cache; quiet;
            access_log; flight_record; flight_capacity;
          }
        in
        match Serve.Server.run cfg with Ok () -> 0 | Error e -> fail_with e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the encode daemon: a long-running server on a Unix-domain socket speaking \
          newline-delimited JSON, coalescing concurrent identical jobs, serving certified \
          cache hits without touching the pool and routing misses through the supervised \
          portfolio. SIGINT/SIGTERM (or the shutdown verb) drain in-flight requests, sweep \
          the cache of stale temp files and remove the socket.")
    Term.(
      const run $ socket_arg $ jobs_arg $ max_inflight_arg $ request_budget_ms_arg
      $ request_max_work_arg $ cache_dir_arg $ no_cache_arg $ quiet_arg $ trace_arg
      $ chaos_arg $ chaos_seed_arg $ access_log_arg $ flight_record_arg $ flight_capacity_arg)

(* --- client ---------------------------------------------------------------- *)

(* Print the payload (the daemon serves the exact one-shot stdout, so
   this is what `nova encode`/`nova report` would have printed), relay
   a typed error to stderr, and exit with the server-reported code —
   the daemon's equivalent of the one-shot exit-code contract. *)
let client_finish (reply : Serve.Protocol.reply) =
  (match reply.Serve.Protocol.payload with
  | Some p ->
      print_string p;
      if p <> "" && p.[String.length p - 1] <> '\n' then print_newline ()
  | None -> ());
  if reply.Serve.Protocol.ok then 0
  else begin
    (match reply.Serve.Protocol.error with
    | Some e -> Printf.eprintf "nova: %s\n" e
    | None -> Printf.eprintf "nova: server error\n");
    max 1 reply.Serve.Protocol.code
  end

let client_roundtrip socket line =
  match Serve.Client.connect socket with
  | Error m -> fail_with (Nova_error.Invalid_request m)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.request c line with
          | Error m -> fail_with (Nova_error.Invalid_request ("client: " ^ m))
          | Ok reply -> client_finish reply)

(* A file travels as its KISS2 text (the server never reads client-side
   paths), anything else as a built-in name the server resolves. *)
let machine_ref_of path =
  match kiss2_file path with
  | Some (name, text) -> Serve.Protocol.Kiss2 { name = Some name; text }
  | None -> Serve.Protocol.Builtin path

let client_cmd =
  let verb_cmd name doc =
    let run socket = client_roundtrip socket (Serve.Protocol.verb_line name) in
    Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg)
  in
  let algo_name_arg =
    let doc = "Encoding algorithm: " ^ algo_names ^ " (as random[0]) or random[SEED]." in
    Term.(const (fun algo -> Harness.Driver.name (algo 0)) $ Arg.value (algo_opt (algo_info doc)))
  in
  let encode_cmd =
    let run socket algo bits max_work fallback budget_ms path =
      client_roundtrip socket
        (Serve.Protocol.encode_line ~algorithm:algo ?bits ?max_work ~fallback ?budget_ms
           (machine_ref_of path))
    in
    Cmd.v
      (Cmd.info "encode"
         ~doc:
           "Request an encode from the daemon. The printed payload is byte-identical to \
            the one-shot $(b,nova encode) stdout; the exit code matches too.")
      Term.(
        const run $ socket_arg $ algo_name_arg $ bits_arg $ max_work_arg $ fallback_arg
        $ budget_ms_arg $ machine_arg)
  in
  let report_cmd =
    let run socket budget_ms path =
      client_roundtrip socket (Serve.Protocol.report_line ?budget_ms (machine_ref_of path))
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Request a full portfolio report for one machine from the daemon (byte-identical \
            payload and exit code to one-shot $(b,nova report MACHINE)).")
      Term.(const run $ socket_arg $ budget_ms_arg $ machine_arg)
  in
  let watch_cmd =
    let run socket interval_ms count =
      if interval_ms <= 0 then
        fail_with (Nova_error.Invalid_request "client watch: --interval must be positive")
      else begin
        (* Counter deltas are against the previous tick, keyed by the
           rendered series (name plus sorted labels). *)
        let prev : (string, float) Hashtbl.t = Hashtbl.create 64 in
        let num field o = Option.bind (Json_min.member field o) Json_min.to_float in
        let str field o = Option.bind (Json_min.member field o) Json_min.to_string in
        let series_key o =
          let name = Option.value (str "name" o) ~default:"?" in
          match Json_min.member "labels" o with
          | Some (Json_min.Obj ((_ :: _) as kvs)) ->
              let pair (k, v) =
                Printf.sprintf "%s=%S" k (Option.value (Json_min.to_string v) ~default:"?")
              in
              Printf.sprintf "%s{%s}" name (String.concat "," (List.map pair kvs))
          | _ -> name
        in
        let rows field doc =
          Option.value (Option.bind (Json_min.member field doc) Json_min.to_list) ~default:[]
        in
        let print_counter row =
          let key = series_key row in
          let v = Option.value (num "value" row) ~default:0. in
          let delta =
            match Hashtbl.find_opt prev key with
            | Some p when v > p -> Printf.sprintf "  (+%g)" (v -. p)
            | _ -> ""
          in
          Hashtbl.replace prev key v;
          Printf.printf "  %-60s %10g%s\n" key v delta
        in
        let print_gauge row =
          Printf.printf "  %-60s %10g\n" (series_key row)
            (Option.value (num "value" row) ~default:0.)
        in
        let print_histogram row =
          Printf.printf "  %-60s n=%g p50=%.4gs p90=%.4gs p99=%.4gs\n" (series_key row)
            (Option.value (num "count" row) ~default:0.)
            (Option.value (num "p50" row) ~default:0.)
            (Option.value (num "p90" row) ~default:0.)
            (Option.value (num "p99" row) ~default:0.)
        in
        let tick n =
          match Serve.Client.connect socket with
          | Error m -> Error m
          | Ok c -> (
              Fun.protect
                ~finally:(fun () -> Serve.Client.close c)
                (fun () -> Serve.Client.request c (Serve.Protocol.verb_line "metrics"))
              |> function
              | Error m -> Error m
              | Ok r when not r.Serve.Protocol.ok ->
                  Error (Option.value r.Serve.Protocol.error ~default:"server error")
              | Ok r ->
                  let doc =
                    Option.value
                      (Json_min.member "metrics" r.Serve.Protocol.raw)
                      ~default:(Json_min.Obj [])
                  in
                  let tm = Unix.localtime (Unix.gettimeofday ()) in
                  Printf.printf "--- %02d:%02d:%02d tick %d ---\n" tm.Unix.tm_hour
                    tm.Unix.tm_min tm.Unix.tm_sec n;
                  let section title render =
                    match rows title doc with
                    | [] -> ()
                    | l ->
                        Printf.printf "%s:\n" title;
                        List.iter render l
                  in
                  section "counters" print_counter;
                  section "gauges" print_gauge;
                  section "histograms" print_histogram;
                  flush stdout;
                  Ok ())
        in
        let rec go n =
          match tick n with
          | Error m -> fail_with (Nova_error.Invalid_request ("client watch: " ^ m))
          | Ok () ->
              if count > 0 && n >= count then 0
              else begin
                Thread.delay (float_of_int interval_ms /. 1000.);
                go (n + 1)
              end
        in
        go 1
      end
    in
    let interval_arg =
      let doc = "Polling interval in milliseconds." in
      Arg.(value & opt int 1000 & info [ "interval" ] ~docv:"MS" ~doc)
    in
    let count_arg =
      let doc = "Stop after N polls (0 = poll until interrupted)." in
      Arg.(value & opt int 0 & info [ "n"; "count" ] ~docv:"N" ~doc)
    in
    Cmd.v
      (Cmd.info "watch"
         ~doc:
           "Poll the daemon's metrics and render a live view (a minimal top for \
            $(b,nova serve)): counters with per-tick deltas, gauges, and per-series \
            p50/p90/p99 latency quantiles.")
      Term.(const run $ socket_arg $ interval_arg $ count_arg)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running nova serve daemon.")
    [
      verb_cmd "ping" "Check the daemon is alive (prints pong).";
      verb_cmd "stats" "Print the daemon's served/coalesced/cache counters.";
      verb_cmd "metrics"
        "Print the daemon's Prometheus exposition (counters, gauges, latency summaries).";
      verb_cmd "flightrec"
        "Dump the daemon's flight recorder: the last N request summaries, as one JSON \
         document.";
      verb_cmd "shutdown" "Ask the daemon to drain, clean up and exit.";
      encode_cmd; report_cmd; watch_cmd;
    ]

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        let m = Lazy.force e.Benchmarks.Suite.machine in
        let s = Fsm.stats m in
        Printf.printf "%-10s %3d inputs %3d outputs %4d states %5d rows%s\n" e.Benchmarks.Suite.name
          s.Fsm.stat_inputs s.Fsm.stat_outputs s.Fsm.stat_states s.Fsm.stat_products
          (if e.Benchmarks.Suite.heavy then "  (heavy)" else ""))
      Benchmarks.Suite.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark machines.")
    Term.(const run $ const ())

let () =
  let doc = "NOVA: optimal state assignment for two-level implementations" in
  let info = Cmd.info "nova" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            stats_cmd; constraints_cmd; encode_cmd; report_cmd; serve_cmd; client_cmd;
            minstates_cmd; dot_cmd; blif_cmd; gen_cmd; list_cmd; bench_cmd; bench_diff_cmd;
            cache_cmd;
          ]))
