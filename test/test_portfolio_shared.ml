(* The per-machine driver context: a portfolio minimizes each machine's
   symbolic cover once and shares equal-encoding ESPRESSO runs, and
   every row, every budget's [spent] and every degradation stays what
   the context-free path gives. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> Exec.Job.success_equal x y
  | Error e, Error f -> e = f
  | _ -> false

let minimize_calls () =
  Metrics.Registry.counter_value (Metrics.event "espresso.minimize_calls")

(* A few machines of each of the four generated families the report-pool
   benchmark draws from: (inputs, outputs, states, rows) and seeds. *)
let generated =
  List.concat_map
    (fun ((i, o, s, r), seeds) ->
      List.map
        (fun g ->
          Benchmarks.Generator.generate
            ~name:(Printf.sprintf "g%d_%d_%d_%d_%d" i o s r g)
            ~num_inputs:i ~num_outputs:o ~num_states:s ~num_rows:r ~seed:g)
        seeds)
    [
      ((3, 2, 5, 16), [ 0; 2; 3 ]);
      ((3, 3, 6, 20), [ 1; 2; 3 ]);
      ((4, 3, 7, 24), [ 5; 10; 11 ]);
      ((4, 2, 6, 24), [ 1; 3; 4 ]);
    ]

let suite_machines () =
  List.filter_map
    (fun (e : Benchmarks.Suite.entry) ->
      if e.Benchmarks.Suite.heavy then None
      else Some (Benchmarks.Suite.find e.Benchmarks.Suite.name))
    Benchmarks.Suite.all

let task_budget (t : Exec.Job.task) = Budget.create ?max_work:t.Exec.Job.max_work ()

let label (t : Exec.Job.task) =
  t.Exec.Job.machine.Fsm.name ^ "/" ^ Harness.Driver.name t.Exec.Job.algorithm

(* Every task of the non-heavy suite and the generated machines, under
   the default portfolio: a context-free run per task is the reference.
   Beside it, the same task with its machine's context must give the
   same row and leave the same [Budget.spent]; [Portfolio.run] must give
   the same rows under one domain and two. *)
let test_rows_and_ticks_match () =
  let machines = suite_machines () @ generated in
  let tasks = List.concat_map Exec.Portfolio.tasks_for machines in
  let reference =
    List.concat_map
      (fun m ->
        let ctx = Harness.Driver.context m in
        List.map
          (fun (t : Exec.Job.task) ->
            let b0 = task_budget t and b1 = task_budget t in
            let r0 = Exec.Job.run ~budget:b0 t in
            let r1 = Exec.Job.run ~budget:b1 ~ctx t in
            check (label t ^ ": same row with the context") true (same_result r0 r1);
            check_int (label t ^ ": same spent with the context") (Budget.spent b0)
              (Budget.spent b1);
            r0)
          (Exec.Portfolio.tasks_for m))
      machines
  in
  List.iter
    (fun jobs ->
      let rows = Exec.Portfolio.run ~jobs tasks in
      List.iter2
        (fun r0 (row : Exec.Job.row) ->
          check
            (Printf.sprintf "%s: jobs=%d row equals the context-free run" (label row.Exec.Job.task)
               jobs)
            true
            (same_result r0 row.Exec.Job.result))
        reference rows)
    [ 1; 2 ]

(* A pool domain never ticks the process-global unlimited budget: each
   task gets a fresh root of its own. *)
let test_unlimited_untouched () =
  let before = Budget.spent Budget.unlimited in
  let tasks =
    List.concat_map
      (fun n -> Exec.Portfolio.tasks_for (Benchmarks.Suite.find n))
      [ "lion"; "bbara"; "dk15" ]
  in
  ignore (Exec.Portfolio.run ~jobs:2 tasks);
  check_int "Budget.unlimited did not move" before (Budget.spent Budget.unlimited)

(* The contexts are forced only on the compute path: a portfolio whose
   every row is a cache hit runs no ESPRESSO at all. Computing, the
   ESPRESSO count is the same under one domain and two, because a
   second asker waits for a cell instead of computing it again, and it
   is lower than without contexts. *)
let test_cells_forced_once () =
  let dir = Filename.temp_file "nova-shared-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let tasks =
    List.concat_map (fun n -> Exec.Portfolio.tasks_for (Benchmarks.Suite.find n)) [ "lion"; "bbara" ]
  in
  let calls f =
    let c0 = minimize_calls () in
    f ();
    minimize_calls () - c0
  in
  let free = calls (fun () -> List.iter (fun t -> ignore (Exec.Job.run t)) tasks) in
  let j1 = calls (fun () -> ignore (Exec.Portfolio.run ~jobs:1 tasks)) in
  let j2 = calls (fun () -> ignore (Exec.Portfolio.run ~jobs:2 tasks)) in
  check_int "the same ESPRESSO count under jobs=1 and jobs=2" j1 j2;
  check "fewer ESPRESSO runs than without contexts" true (j1 < free);
  ignore (Exec.Portfolio.run ~jobs:2 ~cache:(Exec.Cache.open_dir dir) tasks);
  let cache = Exec.Cache.open_dir dir in
  let warm = calls (fun () -> ignore (Exec.Portfolio.run ~jobs:2 ~cache tasks)) in
  check_int "every row hit" (List.length tasks) (Exec.Cache.stats cache).Exec.Cache.hits;
  check_int "a fully cached portfolio forces no cell" 0 warm

(* [task] run context-free and with [ctx], each on a fresh budget capped
   at [max_work]: the same row and the same spent work. *)
let agrees ctx (t : Exec.Job.task) =
  let b0 = task_budget t and b1 = task_budget t in
  let r0 = Exec.Job.run ~budget:b0 t in
  let r1 = Exec.Job.run ~budget:b1 ~ctx t in
  check (label t ^ ": same row") true (same_result r0 r1);
  check_int (label t ^ ": same spent") (Budget.spent b0) (Budget.spent b1);
  r0

let metered f =
  let b = Budget.create () in
  let v = f b in
  (v, Budget.spent b)

(* The rule's boundary, T ticks for a shared value: a cap leaving T-1
   or T ticks computes privately (and degrades where that path
   degrades), T+1 reuses; all agree with the context-free run. A cap
   well inside T gives a different row than T+1 does, so a rule that
   reused too eagerly would show. *)
let test_tick_boundary_mv_cover () =
  let m = Benchmarks.Suite.find "scud" in
  let _, t = metered (fun budget -> Symbolic.minimize ~budget (Symbolic.of_fsm m)) in
  let ctx = Harness.Driver.context m in
  ignore (Harness.Driver.input_constraints ctx);
  match
    List.map
      (fun w -> agrees ctx (Exec.Job.task ~max_work:w m Harness.Driver.Iexact))
      [ t / 2; t - 1; t; t + 1 ]
  with
  | [ half; _; _; reused ] as rows ->
      List.iter
        (function
          | Ok (s : Exec.Job.success) -> check "degraded below the search" true (s.Exec.Job.degraded <> [])
          | Error _ -> Alcotest.fail "iexact with fallback failed")
        rows;
      check "a truncated MV cover gives another row" false (same_result half reused)
  | _ -> assert false

let test_tick_boundary_espresso () =
  let m = Benchmarks.Suite.find "shiftreg" in
  let b = Budget.create () in
  let outcome =
    match Harness.Driver.encode ~budget:b m Harness.Driver.Iexact with
    | Ok o -> o
    | Error e -> Alcotest.fail (Nova_error.to_string e)
  in
  let s = Budget.spent b in
  let full, t =
    metered (fun budget -> Encoded.implement ~budget m outcome.Harness.Driver.encoding)
  in
  let ctx = Harness.Driver.context m in
  ignore (Harness.Driver.implement ctx outcome.Harness.Driver.encoding);
  let cubes w =
    match agrees ctx (Exec.Job.task ~max_work:(s + w) m Harness.Driver.Iexact) with
    | Ok r ->
        check "iexact itself produced it" true (r.Exec.Job.produced_by = Harness.Driver.Rung_iexact);
        r.Exec.Job.num_cubes
    | Error e -> Alcotest.fail (Nova_error.to_string e)
  in
  check "a truncated ESPRESSO is larger" true (cubes (t / 2) > full.Encoded.num_cubes);
  ignore (cubes (t - 1));
  ignore (cubes t);
  check_int "a reused run is the full minimization" full.Encoded.num_cubes (cubes (t + 1))

(* A capped asker finding an empty cell computes once, on its own
   chain, exactly as without a context; when its cap cuts that run short
   the cell stays empty, so a later uncapped asker gets the full value. *)
let test_cut_short_not_shared () =
  let calls f =
    let c0 = minimize_calls () in
    let v = f () in
    (v, minimize_calls () - c0)
  in
  let one_computation ctx (t : Exec.Job.task) =
    let b0 = task_budget t and b1 = task_budget t in
    let r0, free = calls (fun () -> Exec.Job.run ~budget:b0 t) in
    let r1, shared = calls (fun () -> Exec.Job.run ~budget:b1 ~ctx t) in
    check (label t ^ ": same row") true (same_result r0 r1);
    check_int (label t ^ ": same spent") (Budget.spent b0) (Budget.spent b1);
    check_int (label t ^ ": as many ESPRESSO runs as without a context") free shared
  in
  let m = Benchmarks.Suite.find "scud" in
  let sym = Symbolic.of_fsm m in
  let _, t = metered (fun budget -> Symbolic.minimize ~budget sym) in
  let ctx = Harness.Driver.context m in
  one_computation ctx (Exec.Job.task ~max_work:(t / 2) m Harness.Driver.Iexact);
  check "the truncated MV cover was not kept" true
    (Harness.Driver.input_constraints ctx = Constraints.of_symbolic sym);
  let m = Benchmarks.Suite.find "shiftreg" in
  let b = Budget.create () in
  let outcome =
    match Harness.Driver.encode ~budget:b m Harness.Driver.Iexact with
    | Ok o -> o
    | Error e -> Alcotest.fail (Nova_error.to_string e)
  in
  let full, t = metered (fun budget -> Encoded.implement ~budget m outcome.Harness.Driver.encoding) in
  let ctx = Harness.Driver.context m in
  one_computation ctx (Exec.Job.task ~max_work:(Budget.spent b + (t / 2)) m Harness.Driver.Iexact);
  check_int "the truncated ESPRESSO run was not kept" full.Encoded.num_cubes
    (Harness.Driver.implement ctx outcome.Harness.Driver.encoding).Encoded.num_cubes

(* dk16's capped iexact degrades to igreedy on a drained budget: its
   ESPRESSO is cut short, so it must never reuse a full minimization of
   its encoding (which another task, or an unbudgeted call, shares). *)
let test_dk16_drained_iexact () =
  let m = Benchmarks.Suite.find "dk16" in
  let rows = Exec.Portfolio.run ~jobs:2 (Exec.Portfolio.tasks_for m) in
  let row algo =
    match
      List.find
        (fun (r : Exec.Job.row) -> r.Exec.Job.task.Exec.Job.algorithm = algo)
        rows
    with
    | { Exec.Job.result = Ok s; _ } -> s
    | _ -> Alcotest.fail (Harness.Driver.name algo ^ " failed")
  in
  let iex = row Harness.Driver.Iexact and igr = row Harness.Driver.Igreedy in
  check "iexact produced by igreedy" true (iex.Exec.Job.produced_by = Harness.Driver.Rung_igreedy);
  check_int "iexact cubes" 94 iex.Exec.Job.num_cubes;
  check_int "iexact area" 2068 iex.Exec.Job.area;
  check_int "igreedy cubes" 31 igr.Exec.Job.num_cubes;
  let ctx = Harness.Driver.context m in
  let full = Harness.Driver.implement ctx iex.Exec.Job.encoding in
  check "a full minimization of that encoding is smaller" true (full.Encoded.num_cubes < 94);
  match
    agrees ctx (Exec.Job.task ~max_work:Exec.Portfolio.iexact_max_work m Harness.Driver.Iexact)
  with
  | Ok s -> check_int "with the forced cell, still 94 cubes" 94 s.Exec.Job.num_cubes
  | Error e -> Alcotest.fail (Nova_error.to_string e)

let suite =
  [
    Alcotest.test_case "shared: rows and ticks match the context-free path" `Slow
      test_rows_and_ticks_match;
    Alcotest.test_case "shared: Budget.unlimited untouched by a pooled run" `Quick
      test_unlimited_untouched;
    Alcotest.test_case "shared: cells forced once, never on hits" `Quick test_cells_forced_once;
    Alcotest.test_case "shared: tick boundary, MV cover" `Quick test_tick_boundary_mv_cover;
    Alcotest.test_case "shared: tick boundary, ESPRESSO" `Quick test_tick_boundary_espresso;
    Alcotest.test_case "shared: a run cut short computes once, keeps nothing" `Quick
      test_cut_short_not_shared;
    Alcotest.test_case "shared: dk16 iexact never reuses igreedy's ESPRESSO" `Quick
      test_dk16_drained_iexact;
  ]
