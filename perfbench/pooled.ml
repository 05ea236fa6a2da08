(* report-pool: what [nova report -j 2 M] computes, one caller,
   in-process, the portfolio's tasks spread over two domains. *)

let jobs = 2

let effective_jobs () =
  Exec.Portfolio.effective_jobs ~available:(Exec.Pool.available_jobs ()) ~requested:jobs

let op r ~op m =
  Spans.record r ~op "op" @@ fun () ->
  Spans.record r ~op "portfolio.run" (fun () ->
      Exec.Portfolio.run ~jobs (Exec.Portfolio.tasks_for m))

(* Set-up: generate the population and run one portfolio on it. *)
let setup () =
  let t0 = Unix.gettimeofday () in
  let machines = Array.of_list (List.map Inputs.base_machine Inputs.pool_bases) in
  ignore (op Spans.off ~op:0 machines.(0));
  (machines, Unix.gettimeofday () -. t0)

let best (rows : Exec.Job.row list) =
  List.fold_left
    (fun acc (row : Exec.Job.row) ->
      match (row.Exec.Job.result, acc) with
      | Ok s, Some (b : Exec.Job.success) when b.Exec.Job.area <= s.Exec.Job.area -> acc
      | Ok s, _ -> Some s
      | Error _, _ -> acc)
    None rows

let run ~seed ~seconds ~trace =
  let machines, first_setup = setup () in
  let setups = Layers.spread_setups ~seconds ~first:first_setup (fun () -> snd (setup ())) in
  (* Every row must succeed, and certify on a machine's first run; a
     repeat must give its first run's result bit for bit. *)
  let first = Hashtbl.create 128 in
  let failures = ref [] in
  let check i (rows : Exec.Job.row list) =
    let m = machines.(i) in
    let name = m.Fsm.name in
    let certify () =
      List.iter
        (fun (row : Exec.Job.row) ->
          let what = name ^ "/" ^ Harness.Driver.name row.Exec.Job.task.Exec.Job.algorithm in
          match row.Exec.Job.result with
          | Error e -> failures := (what ^ ": " ^ Nova_error.to_string e) :: !failures
          | Ok s ->
              let cert = Check.certify m (Exec.Job.artifacts_of s) in
              if not cert.Check.ok then failures := (what ^ ": " ^ Check.summary cert) :: !failures)
        rows
    in
    match Hashtbl.find_opt first i with
    | None ->
        certify ();
        Hashtbl.add first i rows
    | Some rows0 ->
        let same (a : Exec.Job.row) (b : Exec.Job.row) =
          match (a.Exec.Job.result, b.Exec.Job.result) with
          | Ok x, Ok y -> Exec.Job.success_equal x y
          | _ -> false
        in
        if not (List.equal same rows0 rows) then
          failures := (name ^ ": rows differ between runs") :: !failures
  in
  let peak_rss_mb, after_pass = Layers.first_pass_rss () in
  let timing =
    Layers.closed_loop ~after_pass ~seconds ~setups ~slots:(Array.length machines)
      ~pass:(fun pass -> Inputs.pool_pass ~seed ~pass)
      ~op:(fun i -> op Spans.off ~op:0 machines.(i))
      ~check
  in
  let area, cubes =
    Hashtbl.fold
      (fun _ rows (a, c) ->
        match best rows with
        | Some s -> (a + s.Exec.Job.area, c + s.Exec.Job.num_cubes)
        | None -> (a, c))
      first (0, 0)
  in
  let first_pass = Inputs.pool_pass ~seed ~pass:0 in
  let trace =
    if not trace then None
    else begin
      (* Replay the first pass with spans on. After each op, its tasks run
         once more, sequentially: encode and implement under each task's
         own budget, the work [Exec.Portfolio.run_task] does without a
         cache. Their summed time over twice the pool's wall time is the
         parallel efficiency. *)
      let r = Spans.create () in
      Array.iteri
        (fun i slot ->
          let m = machines.(slot) in
          ignore (op r ~op:i m);
          List.iter
            (fun (task : Exec.Job.task) ->
              Layers.traced_op r (fun () ->
                  Spans.record r ~op:i "portfolio.task" (fun () ->
                      ignore (Layers.job r ~op:i ~budget:(Layers.task_budget task) task))))
            (Exec.Portfolio.tasks_for m))
        first_pass;
      let spans = Spans.spans r in
      let total name =
        List.fold_left (fun acc (s : Spans.span) -> if s.Spans.name = name then acc +. Spans.duration s else acc) 0. spans
      in
      Some
        ( r,
          [
            ( "portfolio.parallel_efficiency",
              total "portfolio.task" /. (float_of_int jobs *. total "portfolio.run") );
            ("trace_overhead_ratio", Layers.overhead r (Layers.first_pass timing (Array.length first_pass)));
          ] )
    end
  in
  {
    Outcome.inputs = Array.length machines;
    digest =
      Inputs.digest
        (Array.to_list (Array.map (fun i -> Kiss.to_string machines.(i)) first_pass));
    attempted = List.length timing.Outcome.latencies;
    failures = List.rev !failures;
    timing;
    setups = setups.Layers.finish ();
    pla_area_total = area;
    product_terms_total = cubes;
    peak_rss_mb = !peak_rss_mb;
    trace;
    notes =
      [
        Printf.sprintf "memory: VmHWM %.1f MiB after the first pass, %.1f MiB at the end of the run"
          !peak_rss_mb (Daemon.peak_rss_mb 0);
      ];
  }
