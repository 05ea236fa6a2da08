(* Benchmark harness.

   Running with no arguments regenerates every table and figure of the
   paper's evaluation section (Section VII) and then runs one Bechamel
   micro-benchmark per table, timing that table's characteristic kernel.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table3          -- one table
     dune exec bench/main.exe --quick         -- skip the heavy machines
     dune exec bench/main.exe --no-bechamel

   The tables print measured numbers next to the paper's published totals
   (see EXPERIMENTS.md for the per-table discussion). *)

open Bechamel
open Toolkit

let lion () = Benchmarks.Suite.find "lion"
let dk15 () = Benchmarks.Suite.find "dk15"

let ics_of m = Constraints.of_symbolic (Symbolic.of_fsm m)

let paper_ics () =
  List.map Bitvec.of_string
    [ "1110000"; "0111000"; "0000111"; "1000110"; "0000011"; "0011000" ]

(* One characteristic kernel per table: the algorithmic step that table
   exercises, on a small machine, so Bechamel can sample it repeatedly. *)
let tests =
  [
    Test.make ~name:"table1:stats" (Staged.stage (fun () -> Fsm.stats (lion ())));
    Test.make ~name:"table2:ihybrid+igreedy(dk15)"
      (Staged.stage (fun () ->
           let m = dk15 () in
           let ics = ics_of m in
           let n = Fsm.num_states ~m in
           let ih = Ihybrid.ihybrid_code ~num_states:n ics in
           let ig = Igreedy.igreedy_code ~num_states:n ics in
           (ih, ig)));
    Test.make ~name:"table3:kiss+espresso(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let ics = ics_of m in
           let e = Baselines.kiss_encode ~num_states:(Fsm.num_states ~m) ics in
           Encoded.implement m e));
    Test.make ~name:"table4:symbmin+iohybrid(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let sm = Symbmin.run (Symbolic.of_fsm m) in
           Iohybrid.iohybrid_code sm.Symbmin.problem));
    Test.make ~name:"table5:iohybrid(bbtas)"
      (Staged.stage (fun () ->
           let m = Benchmarks.Suite.find "bbtas" in
           let sm = Symbmin.run (Symbolic.of_fsm m) in
           Iohybrid.iohybrid_code sm.Symbmin.problem));
    Test.make ~name:"table6:semiexact(paper-example)"
      (Staged.stage (fun () -> Iexact.semiexact_code ~num_states:7 ~k:4 (paper_ics ())));
    Test.make ~name:"table7:mustang+factoring(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let e =
             Baselines.mustang_encode m ~flavor:Baselines.Fanout ~include_outputs:true
               ~nbits:(Ihybrid.min_code_length (Fsm.num_states ~m))
           in
           let r = Encoded.implement m e in
           let net =
             Multilevel.of_cover r.Encoded.cover
               ~num_binary_vars:(m.Fsm.num_inputs + e.Encoding.nbits)
           in
           Multilevel.factored_literals (Multilevel.optimize net)));
    Test.make ~name:"fig8:random-pool(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let n = Fsm.num_states ~m in
           List.init 4 (fun i ->
               let rng = Random.State.make [| 77; i; n |] in
               let e = Encoding.random rng ~num_states:n ~nbits:(Ihybrid.min_code_length n) in
               (Encoded.implement m e).Encoded.area)));
    Test.make ~name:"fig9:iexact(paper-example)"
      (Staged.stage (fun () -> Iexact.iexact_code ~num_states:7 (paper_ics ())));
    Test.make ~name:"fig10:espresso(lion-onehot)"
      (Staged.stage (fun () ->
           let m = lion () in
           Encoded.implement m (Encoding.one_hot (Fsm.num_states ~m))));
  ]

(* --- ESPRESSO kernel benchmark → BENCH_espresso.json ------------------- *)

(* Machine-readable snapshot of the minimizer: per benchmark the runtime,
   minimized cover size and the kernel probes read back from the metrics
   registry (section timings, operation counts). Encodings are fixed
   (random, seed 0, minimum width) so runs are comparable across
   commits. *)

let espresso_bench_machines ~quick =
  let named = [ "lion"; "dk15"; "bbara"; "ex2"; "dk16" ] in
  let named = if quick then named else named @ [ "keyb"; "styr"; "sand"; "planet" ] in
  let generated =
    if quick then
      Benchmarks.Generator.generate ~name:"gen_medium" ~num_inputs:6 ~num_outputs:6
        ~num_states:40 ~num_rows:160 ~seed:4242
    else
      Benchmarks.Generator.generate ~name:"gen_large" ~num_inputs:8 ~num_outputs:8
        ~num_states:80 ~num_rows:400 ~seed:4242
  in
  List.map (fun nm -> Benchmarks.Suite.find nm) named @ [ generated ]

let section_seconds name =
  match List.assoc_opt name (Metrics.spans ()) with
  | Some h -> Metrics.Histogram.sum h
  | None -> 0.

let espresso_bench_one (m : Fsm.t) =
  Metrics.Registry.reset ();
  let n = Fsm.num_states ~m in
  let nbits = Ihybrid.min_code_length n in
  let e = Encoding.random (Random.State.make [| 0 |]) ~num_states:n ~nbits in
  let r = Encoded.implement m e in
  let minimize_s = section_seconds "espresso.minimize" in
  let taut_s = section_seconds "logic.tautology" in
  let compl_s = section_seconds "logic.complement" in
  Format.printf "%-12s states=%3d rows=%4d  minimize=%8.4fs taut=%8.4fs compl=%8.4fs cubes=%4d lits=%5d@."
    m.Fsm.name n (List.length m.Fsm.transitions) minimize_s taut_s compl_s r.Encoded.num_cubes
    (Logic.Cover.literal_cost r.Encoded.cover);
  let json =
    Printf.sprintf
      "{\"name\":\"%s\",\"states\":%d,\"rows\":%d,\"nbits\":%d,\"minimize_s\":%.6f,\"num_cubes\":%d,\"literal_cost\":%d,\"area\":%d,\"tautology_kernel_s\":%.6f,\"complement_kernel_s\":%.6f,\"instrument\":%s}"
      m.Fsm.name n
      (List.length m.Fsm.transitions)
      nbits minimize_s r.Encoded.num_cubes
      (Logic.Cover.literal_cost r.Encoded.cover)
      r.Encoded.area taut_s compl_s
      (Json_min.render (Harness.Telemetry.instrument_block ()))
  in
  (json, minimize_s, taut_s, compl_s)

let run_espresso ~quick () =
  Format.printf "@.== ESPRESSO kernel benchmark (%s) ==@." (if quick then "quick" else "full");
  let rows = List.map espresso_bench_one (espresso_bench_machines ~quick) in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let t_min = total (fun (_, m, _, _) -> m)
  and t_taut = total (fun (_, _, t, _) -> t)
  and t_compl = total (fun (_, _, _, c) -> c) in
  Format.printf "%-12s                  minimize=%8.4fs taut=%8.4fs compl=%8.4fs@." "TOTAL" t_min
    t_taut t_compl;
  let oc = open_out "BENCH_espresso.json" in
  Printf.fprintf oc
    "{\"schema\":\"nova-bench-espresso/v1\",\"mode\":\"%s\",\"benchmarks\":[%s],\"totals\":{\"minimize_s\":%.6f,\"tautology_kernel_s\":%.6f,\"complement_kernel_s\":%.6f}}\n"
    (if quick then "quick" else "full")
    (String.concat "," (List.map (fun (j, _, _, _) -> j) rows))
    t_min t_taut t_compl;
  close_out oc;
  Format.printf "wrote BENCH_espresso.json@."

(* --- staged pipeline benchmark → BENCH_pipeline.json ------------------- *)

(* Per machine, two pipeline runs: ihybrid under an unlimited budget (the
   reference path) and iexact under a 50 ms wall-clock deadline (the
   graceful-degradation path — the fallback ladder must still produce an
   encoding). Each row records which rung produced the encoding, the
   degradations along the way, and the per-stage section timings. *)

let pipeline_stage_spans () = Json_min.render (Harness.Telemetry.pipeline_stages ())

let pipeline_bench_one (m : Fsm.t) ~mode ~algo ~budget =
  Metrics.Registry.reset ();
  let n = Fsm.num_states ~m in
  let t0 = Unix.gettimeofday () in
  let outcome = Harness.Driver.report ~budget m algo in
  let wall = Unix.gettimeofday () -. t0 in
  match outcome with
  | Error err ->
      Format.printf "%-12s %-12s %-8s FAILED: %s@." m.Fsm.name (Harness.Driver.name algo) mode
        (Nova_error.to_string err);
      Printf.sprintf
        "{\"name\":\"%s\",\"mode\":\"%s\",\"algorithm\":\"%s\",\"states\":%d,\"rows\":%d,\"wall_s\":%.6f,\"error\":%s,\"stages\":%s}"
        m.Fsm.name mode (Harness.Driver.name algo) n
        (List.length m.Fsm.transitions)
        wall
        (Json_min.quote (Nova_error.to_string err))
        (pipeline_stage_spans ())
  | Ok (o, r) ->
      let degradations =
        List.map
          (fun (rung, err) ->
            Printf.sprintf "{\"rung\":\"%s\",\"error\":%s}" (Harness.Driver.rung_name rung)
              (Json_min.quote (Nova_error.to_string err)))
          o.Harness.Driver.degradations
      in
      Format.printf
        "%-12s %-12s %-8s wall=%8.4fs produced_by=%-10s degradations=%d nbits=%2d cubes=%4d area=%6d@."
        m.Fsm.name (Harness.Driver.name algo) mode wall
        (Harness.Driver.rung_name o.Harness.Driver.produced_by)
        (List.length o.Harness.Driver.degradations)
        o.Harness.Driver.encoding.Encoding.nbits r.Encoded.num_cubes r.Encoded.area;
      Printf.sprintf
        "{\"name\":\"%s\",\"mode\":\"%s\",\"algorithm\":\"%s\",\"states\":%d,\"rows\":%d,\"wall_s\":%.6f,\"produced_by\":\"%s\",\"degradations\":[%s],\"nbits\":%d,\"num_cubes\":%d,\"area\":%d,\"stages\":%s}"
        m.Fsm.name mode (Harness.Driver.name algo) n
        (List.length m.Fsm.transitions)
        wall
        (Harness.Driver.rung_name o.Harness.Driver.produced_by)
        (String.concat "," degradations)
        o.Harness.Driver.encoding.Encoding.nbits r.Encoded.num_cubes r.Encoded.area
        (pipeline_stage_spans ())

let run_pipeline ~quick () =
  Format.printf "@.== staged pipeline benchmark (%s) ==@." (if quick then "quick" else "full");
  let rows =
    List.concat_map
      (fun m ->
        let unlimited =
          pipeline_bench_one m ~mode:"unlimited" ~algo:Harness.Driver.Ihybrid
            ~budget:Budget.unlimited
        in
        let deadline =
          pipeline_bench_one m ~mode:"deadline50ms" ~algo:Harness.Driver.Iexact
            ~budget:(Budget.create ~deadline_ms:50.0 ())
        in
        [ unlimited; deadline ])
      (espresso_bench_machines ~quick)
  in
  let oc = open_out "BENCH_pipeline.json" in
  Printf.fprintf oc "{\"schema\":\"nova-bench-pipeline/v1\",\"mode\":\"%s\",\"runs\":[%s]}\n"
    (if quick then "quick" else "full")
    (String.concat "," rows);
  close_out oc;
  Format.printf "wrote BENCH_pipeline.json@."

(* --- certification benchmark → BENCH_check.json ------------------------ *)

(* Per machine × constraint-driven algorithm: run the pipeline, certify
   the result with the independent checker, and record the verdict plus
   the per-check spans. Every row is expected to certify clean — a
   [false] in [ok] is a correctness regression, not a slow run. *)

let check_algorithms =
  [ Harness.Driver.Ihybrid; Harness.Driver.Igreedy; Harness.Driver.Iohybrid; Harness.Driver.Iexact ]

let check_bench_one (m : Fsm.t) algo =
  (* iexact is exponential: the same work budget Flow uses keeps it
     bounded (the fallback ladder still certifies whatever rung
     produced the encoding). *)
  let budget = Budget.create ~max_work:400_000 () in
  match Harness.Driver.report ~budget m algo with
  | Error err ->
      Format.printf "%-12s %-10s FAILED: %s@." m.Fsm.name (Harness.Driver.name algo)
        (Nova_error.to_string err);
      Printf.sprintf "{\"name\":\"%s\",\"algorithm\":\"%s\",\"error\":%s}" m.Fsm.name
        (Harness.Driver.name algo)
        (Json_min.quote (Nova_error.to_string err))
  | Ok (o, r) ->
      let cert = Harness.Certify.run m o r in
      let total_span =
        List.fold_left (fun acc (c : Check.outcome) -> acc +. c.Check.span_s) 0. cert.Check.checks
      in
      Format.printf "%-12s %-10s %-4s checks=%d span=%8.4fs produced_by=%s@." m.Fsm.name
        (Harness.Driver.name algo)
        (if cert.Check.ok then "OK" else "FAIL")
        (List.length cert.Check.checks)
        total_span
        (Harness.Driver.rung_name o.Harness.Driver.produced_by);
      Printf.sprintf
        "{\"name\":\"%s\",\"algorithm\":\"%s\",\"produced_by\":\"%s\",\"certificate\":%s}"
        m.Fsm.name (Harness.Driver.name algo)
        (Harness.Driver.rung_name o.Harness.Driver.produced_by)
        (Check.to_json cert)

let run_check ~quick () =
  Format.printf "@.== certification benchmark (%s) ==@." (if quick then "quick" else "full");
  let rows =
    List.concat_map
      (fun m -> List.map (fun algo -> check_bench_one m algo) check_algorithms)
      (espresso_bench_machines ~quick)
  in
  let oc = open_out "BENCH_check.json" in
  Printf.fprintf oc "{\"schema\":\"nova-bench-check/v1\",\"mode\":\"%s\",\"runs\":[%s]}\n"
    (if quick then "quick" else "full")
    (String.concat "," rows);
  close_out oc;
  Format.printf "wrote BENCH_check.json@."

(* --- parallel executor benchmark → BENCH_parallel.json ----------------- *)

(* The full portfolio (every machine × every algorithm) run three ways:
   sequentially, on the domain pool, and twice against a fresh cache
   (cold, then warm). Records the wall-clock speedups and the cache hit
   rates, and asserts that all three report streams are row-identical —
   the determinism guarantee, measured rather than assumed. *)

let rows_identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Exec.Job.row) (y : Exec.Job.row) ->
         match (x.Exec.Job.result, y.Exec.Job.result) with
         | Ok u, Ok v -> Exec.Job.success_equal u v
         | Error u, Error v -> u = v
         | _ -> false)
       a b

let with_temp_cache_dir f =
  let dir = Filename.temp_file "nova-bench-cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let run_parallel ~quick ~jobs () =
  Format.printf "@.== parallel executor benchmark (%s, %d jobs) ==@."
    (if quick then "quick" else "full")
    jobs;
  let tasks =
    List.concat_map Exec.Portfolio.tasks_for (espresso_bench_machines ~quick)
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq_rows, seq_wall = timed (fun () -> Exec.Portfolio.run ~jobs:1 tasks) in
  let par_rows, par_wall = timed (fun () -> Exec.Portfolio.run ~jobs tasks) in
  let identical = rows_identical seq_rows par_rows in
  let effective_jobs =
    Exec.Portfolio.effective_jobs ~available:(Exec.Pool.available_jobs ()) ~requested:jobs
  in
  Format.printf "%d tasks  seq=%8.3fs  jobs=%d(eff %d)=%8.3fs  speedup=%.2fx  identical=%b@."
    (List.length tasks) seq_wall jobs effective_jobs par_wall (seq_wall /. par_wall) identical;
  (* Supervision overhead with no faults injected: the retry machinery
     is a quarantine-table probe and an exception handler per job, so
     supervised and bare walls should be within noise (gated at 1%+25pp
     slack by bench-diff like every other wall metric). *)
  let _, unsup_wall =
    timed (fun () -> Exec.Portfolio.run ~jobs:1 ~policy:Exec.Supervise.off tasks)
  in
  let _, sup_wall =
    timed (fun () -> Exec.Portfolio.run ~jobs:1 ~policy:Exec.Supervise.default_policy tasks)
  in
  Format.printf "supervision  bare=%8.3fs  supervised=%8.3fs  overhead=%+.2f%%@." unsup_wall
    sup_wall ((sup_wall /. unsup_wall -. 1.) *. 100.);
  let cold_wall, warm_wall, warm_identical, stats =
    with_temp_cache_dir @@ fun dir ->
    let cold = Exec.Cache.open_dir dir in
    let cold_rows, cold_wall = timed (fun () -> Exec.Portfolio.run ~jobs ~cache:cold tasks) in
    let warm = Exec.Cache.open_dir dir in
    let warm_rows, warm_wall = timed (fun () -> Exec.Portfolio.run ~jobs ~cache:warm tasks) in
    (cold_wall, warm_wall, rows_identical cold_rows warm_rows, Exec.Cache.stats warm)
  in
  let lookups = stats.Exec.Cache.hits + stats.Exec.Cache.misses in
  let hit_rate = if lookups = 0 then 0. else float stats.Exec.Cache.hits /. float lookups in
  Format.printf "cache  cold=%8.3fs  warm=%8.3fs  speedup=%.2fx  hits=%d/%d  identical=%b@."
    cold_wall warm_wall (cold_wall /. warm_wall) stats.Exec.Cache.hits lookups warm_identical;
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\"schema\":\"nova-bench-parallel/v1\",\"mode\":\"%s\",\"jobs\":%d,\"effective_jobs\":%d,\"available_jobs\":%d,\"tasks\":%d,\"seq_wall_s\":%.6f,\"par_wall_s\":%.6f,\"speedup\":%.4f,\"identical\":%b,\"supervision\":{\"unsupervised_wall_s\":%.6f,\"supervised_wall_s\":%.6f,\"overhead\":%.4f},\"cache\":{\"cold_wall_s\":%.6f,\"warm_wall_s\":%.6f,\"warm_speedup\":%.4f,\"identical\":%b,\"hits\":%d,\"misses\":%d,\"stores\":%d,\"rejected\":%d,\"hit_rate\":%.4f}}\n"
    (if quick then "quick" else "full")
    jobs effective_jobs
    (Exec.Pool.available_jobs ())
    (List.length tasks) seq_wall par_wall (seq_wall /. par_wall) identical unsup_wall sup_wall
    (sup_wall /. unsup_wall -. 1.) cold_wall warm_wall
    (cold_wall /. warm_wall) warm_identical stats.Exec.Cache.hits stats.Exec.Cache.misses
    stats.Exec.Cache.stores stats.Exec.Cache.rejected hit_rate;
  close_out oc;
  Format.printf "wrote BENCH_parallel.json@."

(* --- scaling-curve benchmark → BENCH_scaling.json ---------------------- *)

(* Fitted complexity, not point samples: graded seeded machine families,
   min-of-K measurement with MAD outlier rejection, least-squares model
   selection (see lib/scaling). The artifact is the one `nova bench-diff`
   gates on by fitted model class and exponent. Not part of the no-args
   run: the full grid walks machines up to 512 states. *)

let run_scaling ~quick () =
  Format.printf "@.== scaling-curve benchmark (%s) ==@." (if quick then "quick" else "full");
  let cells = Scaling.Report.run ~quick ~progress:Format.std_formatter () in
  let reps = if quick then 3 else 5 in
  Scaling.Report.summary Format.std_formatter cells;
  Scaling.Report.write ~path:"BENCH_scaling.json" ~quick ~reps cells;
  Format.printf "wrote BENCH_scaling.json@."

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw_results = Benchmark.all cfg instances (Test.make_grouped ~name:"nova" tests) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Format.printf "@.== Bechamel micro-benchmarks (one kernel per table) ==@.";
  Hashtbl.iter
    (fun label tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ time ] -> Format.printf "%-42s %14.1f ns/run (%s)@." name time label
          | Some _ | None -> Format.printf "%-42s (no estimate)@." name)
        tbl)
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let jobs =
    List.fold_left
      (fun acc a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--jobs" -> (
            match int_of_string_opt (String.sub a (i + 1) (String.length a - i - 1)) with
            | Some n when n >= 1 -> n
            | _ -> acc)
        | _ -> acc)
      (Exec.Pool.available_jobs ()) args
  in
  let selected =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  let ppf = Format.std_formatter in
  let dispatch = function
    | "table1" -> Harness.Tables.table1 ~quick ppf ()
    | "table2" -> Harness.Tables.table2 ~quick ppf ()
    | "table3" -> Harness.Tables.table3 ~quick ppf ()
    | "table4" -> Harness.Tables.table4 ~quick ppf ()
    | "table5" -> Harness.Tables.table5 ~quick ppf ()
    | "table6" -> Harness.Tables.table6 ~quick ppf ()
    | "table7" -> Harness.Tables.table7 ~quick ppf ()
    | "fig8" -> Harness.Tables.fig8 ~quick ppf ()
    | "fig9" -> Harness.Tables.fig9 ~quick ppf ()
    | "fig10" -> Harness.Tables.fig10 ~quick ppf ()
    | "ablations" -> Harness.Ablations.all ~quick ppf ()
    | "espresso" -> run_espresso ~quick ()
    | "pipeline" -> run_pipeline ~quick ()
    | "check" -> run_check ~quick ()
    | "parallel" -> run_parallel ~quick ~jobs ()
    | "scaling" -> run_scaling ~quick ()
    | "bechamel" -> run_bechamel ()
    | other -> Format.eprintf "unknown table %S@." other
  in
  (match selected with
  | [] ->
      Harness.Tables.all ~quick ppf ();
      Harness.Ablations.all ~quick ppf ();
      run_espresso ~quick ();
      run_pipeline ~quick ();
      run_check ~quick ();
      run_parallel ~quick ~jobs ();
      if not no_bechamel then run_bechamel ()
  | picks -> List.iter dispatch picks);
  Format.pp_print_flush ppf ()
