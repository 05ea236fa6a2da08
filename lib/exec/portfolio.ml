let iexact_max_work = Harness.Driver.iexact_max_work

let default_algorithms =
  [
    Harness.Driver.Iexact; Harness.Driver.Iohybrid; Harness.Driver.Ihybrid;
    Harness.Driver.Igreedy; Harness.Driver.Kiss;
    Harness.Driver.Mustang (Baselines.Fanout, true); Harness.Driver.One_hot;
  ]

(* iexact is exponential: cap it like the paper tables do, so a
   portfolio run terminates deterministically (the cap is part of the
   cache key). *)
let tasks_for m =
  List.map
    (fun algo ->
      match algo with
      | Harness.Driver.Iexact -> Job.task ~max_work:iexact_max_work m algo
      | _ -> Job.task m algo)
    default_algorithms

let primary_stage = function
  | Harness.Driver.Iexact -> Nova_error.Iexact
  | Harness.Driver.Ihybrid -> Nova_error.Ihybrid
  | Harness.Driver.Igreedy -> Nova_error.Igreedy
  | Harness.Driver.Iohybrid -> Nova_error.Iohybrid
  | Harness.Driver.Iovariant -> Nova_error.Iovariant
  | Harness.Driver.Kiss | Harness.Driver.Mustang _ | Harness.Driver.One_hot
  | Harness.Driver.Random _ ->
      Nova_error.Baseline

(* One timed section per algorithm; every random seed shares
   [exec.job.random], keeping the span label set finite. *)
let job_label = function Harness.Driver.Random _ -> "random" | a -> Harness.Driver.name a

let job_section =
  let section =
    Metrics.sections ~prefix:"exec.job."
      (List.map job_label
         (Harness.Driver.Mustang (Baselines.Fanout, false)
         :: Harness.Driver.Mustang (Baselines.Fanin, false)
         :: Harness.Driver.all_algorithms))
  in
  fun (task : Job.task) -> section (job_label task.Job.algorithm)

let origin_name = function
  | Job.Computed -> "computed"
  | Job.Cached -> "cached"
  | Job.Cancelled_by_race -> "cancelled"

(* Every finished row counts into the metrics registry by origin and
   outcome; job granularity, so the labeled-counter lookup is cheap
   relative to the work it labels. *)
let count_row (row : Job.row) =
  Metrics.Registry.inc
    (Metrics.Registry.counter ~help:"Portfolio jobs by origin and outcome."
       ~labels:
         [ ("origin", origin_name row.Job.origin);
           ("outcome", match row.Job.result with Ok _ -> "ok" | Error _ -> "error") ]
       "nova_portfolio_jobs_total");
  row

(* Sequential fallback: a domain pool on a machine without spare cores
   is pure overhead (domain spawn/join, cache-line contention) — the
   measured BENCH_parallel slowdown. When the runtime recommends no
   more parallelism than one domain, run in-process regardless of the
   requested [jobs]; rows are bit-identical either way, so this is a
   pure wall-clock fix. *)
let effective_jobs ~available ~requested =
  if requested <= 1 then 1 else if available <= 1 then 1 else requested

let plan_jobs requested =
  let effective = effective_jobs ~available:(Pool.available_jobs ()) ~requested in
  if effective <> requested && Trace.enabled () then
    Trace.instant "pool.sequential_fallback"
      ~attrs:[ ("requested", Trace.Int requested); ("effective", Trace.Int effective) ];
  effective

(* The per-job root span on whatever track (domain) picked the task up
   — cache lookup, compute and store: it carries machine/algorithm, so
   everything beneath it in a worker lane — driver, espresso, cache,
   checks — self-describes by inheritance. *)
let s_task = Metrics.section "exec.task"

let row_end_attrs (row : Job.row) =
  ("origin", Trace.String (origin_name row.Job.origin))
  ::
  (match row.Job.result with
  | Ok s -> [ ("num_cubes", Trace.Int s.Job.num_cubes); ("area", Trace.Int s.Job.area) ]
  | Error e -> [ ("error", Trace.String (Nova_error.to_string e)) ])

let traced_job (task : Job.task) f =
  Metrics.span s_task ~end_attrs:row_end_attrs f
    ~attrs:
      [ ("machine", Trace.String task.Job.machine.Fsm.name);
        ("algorithm", Trace.String (Harness.Driver.name task.Job.algorithm)) ]

(* The supervised compute step: quarantine check, then Job.run under
   retry/backoff. The Rung chaos site fires at the job boundary (an
   encoding algorithm crashing); because it fires before Job.run builds
   its budget, a retried attempt starts from clean budget state and a
   fully absorbed schedule reproduces the fault-free result bit for
   bit. *)
let supervised_run policy ?budget ?ctx (task : Job.task) =
  Supervise.run policy ~machine:task.Job.machine.Fsm.name
    ~algorithm:(Harness.Driver.name task.Job.algorithm)
    (fun () ->
      Chaos.maybe_raise Chaos.Rung;
      Metrics.span (job_section task) (fun () -> Job.run ?budget ?ctx task))

(* One plain (non-racing) job: cache lookup, else compute and store.
   [budget] is an externally imposed budget (the serving layer's
   per-request admission budget). It *wraps* the task's intrinsic
   [max_work] cap rather than replacing it — the cap is part of the
   cache fingerprint, so it must keep tripping at exactly the same
   point as a one-shot run; the external ceiling rides above it as a
   [Budget.sub] parent. A result produced under a tripped external
   budget is degraded by something outside the content address (when
   a deadline hit, an admission work ceiling the fingerprint never saw)
   — it must never enter the cache. The intrinsic cap trips on the
   child, never the parent, so those stores proceed as usual. *)
let run_one ~policy ?cache ?budget ?ctx (task : Job.task) =
  traced_job task @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish result origin =
    count_row { Job.task; result; origin; wall_s = Unix.gettimeofday () -. t0 }
  in
  match Option.bind cache (fun c -> Cache.find c task) with
  | Some s -> finish (Ok s) Job.Cached
  | None ->
      let run_budget =
        match (budget, task.Job.max_work) with
        | None, _ -> None
        | Some b, Some w -> Some (Budget.sub ~max_work:w b)
        | Some b, None -> Some b
      in
      let result = supervised_run policy ?budget:run_budget ?ctx task in
      let externally_degraded =
        match budget with Some b -> Budget.exhausted b | None -> false
      in
      (match (cache, result) with
      | Some c, Ok s when not externally_degraded -> Cache.store c task s
      | _ -> ());
      finish result Job.Computed

let run_task ?(policy = Supervise.default_policy) ?cache ?budget task =
  run_one ~policy ?cache ?budget task

(* A slot the pool itself had to isolate (an injected domain death, or
   a crash outside the supervisor): restart the job once in-process —
   the domain is gone but the work is not, and the inline rerun is
   fully supervised, so a second crash lands in the typed path. *)
let restart_isolated ~policy ?cache ~ctxs tasks slots =
  Array.mapi
    (fun i slot ->
      match slot with
      | Ok row -> row
      | Error (e, _) ->
          if Trace.enabled () then
            Trace.instant "supervise.restart"
              ~attrs:
                [ ("slot", Trace.Int i);
                  ("error", Trace.String (Printexc.to_string e)) ];
          run_one ~policy ?cache ~ctx:ctxs.(i) tasks.(i))
    slots

(* One driver context per machine value of the task list, so its tasks
   minimize the symbolic cover once and share equal-encoding ESPRESSO
   runs ([tasks_for] builds a machine's tasks on one value). The
   contexts live for this call only: a process-wide memo would turn a
   repeated portfolio into lookups that a one-shot [nova report] never
   gets. *)
let contexts tasks =
  let known = ref [] in
  Array.map
    (fun (task : Job.task) ->
      let m = task.Job.machine in
      match List.assq_opt m !known with
      | Some ctx -> ctx
      | None ->
          let ctx = Harness.Driver.context m in
          known := (m, ctx) :: !known;
          ctx)
    tasks

let run ?(jobs = 1) ?cache ?(policy = Supervise.default_policy) tasks =
  let jobs = plan_jobs jobs in
  let tasks = Array.of_list tasks in
  let ctxs = contexts tasks in
  let slots =
    Pool.mapi_isolated ~jobs tasks ~f:(fun i t -> run_one ~policy ?cache ~ctx:ctxs.(i) t)
  in
  Array.to_list (restart_isolated ~policy ?cache ~ctxs tasks slots)

(* --- racing ------------------------------------------------------------- *)

let acceptable = function
  | Ok (s : Job.success) -> s.Job.degraded = []
  | Error _ -> false

let race ?(jobs = 1) ?cache ?(policy = Supervise.default_policy) tasks =
  let jobs = plan_jobs jobs in
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  (* Lowest index that completed acceptably so far. Monotonically
     decreasing, so the final value is the deterministic winner no
     matter which domain lowered it first. *)
  let winner = Atomic.make max_int in
  (* [note i] returns whether [i] became the (current) winner, so the
     trace can record the take-over without a second atomic read. *)
  let rec note i =
    let w = Atomic.get winner in
    if i >= w then false
    else if Atomic.compare_and_set winner w i then true
    else note i
  in
  let won i (task : Job.task) =
    if note i && Trace.enabled () then
      Trace.instant "race.win"
        ~attrs:
          [ ("winner", Trace.Int i);
            ("algorithm", Trace.String (Harness.Driver.name task.Job.algorithm)) ]
  in
  let budgets =
    Array.map (fun (t : Job.task) -> Budget.create ?max_work:t.Job.max_work ()) tasks
  in
  let cancel_losers () =
    let w = Atomic.get winner in
    if w < n then
      for j = w + 1 to n - 1 do
        (if Trace.enabled () && Budget.reason budgets.(j) = None then
           Trace.instant "race.cancel"
             ~attrs:
               [ ("loser", Trace.Int j);
                 ("algorithm",
                  Trace.String (Harness.Driver.name tasks.(j).Job.algorithm)) ]);
        Budget.cancel budgets.(j)
      done
  in
  let cancelled_row (task : Job.task) t0 =
    count_row
      {
        Job.task;
        result =
          Error
            (Nova_error.Budget_exhausted
               { stage = primary_stage task.Job.algorithm; reason = Budget.Cancelled });
        origin = Job.Cancelled_by_race;
        wall_s = Unix.gettimeofday () -. t0;
      }
  in
  let run_racer i (task : Job.task) =
    traced_job task @@ fun () ->
    let t0 = Unix.gettimeofday () in
    if Atomic.get winner < i then cancelled_row task t0
    else
      match Option.bind cache (fun c -> Cache.find c task) with
      | Some s ->
          if acceptable (Ok s) then begin
            won i task;
            cancel_losers ()
          end;
          count_row
            { Job.task; result = Ok s; origin = Job.Cached; wall_s = Unix.gettimeofday () -. t0 }
      | None ->
          let result = supervised_run policy ~budget:budgets.(i) task in
          let raced_out = Budget.reason budgets.(i) = Some Budget.Cancelled in
          if (not raced_out) && acceptable result then begin
            won i task;
            cancel_losers ()
          end;
          (* A loser that was tripped mid-run produced a degraded (or
             no) result: it must never enter the cache. *)
          (match (cache, result) with
          | Some c, Ok s when not raced_out -> Cache.store c task s
          | _ -> ());
          count_row
            {
              Job.task;
              result;
              origin = (if raced_out then Job.Cancelled_by_race else Job.Computed);
              wall_s = Unix.gettimeofday () -. t0;
            }
  in
  let slots = Pool.mapi_isolated ~jobs tasks ~f:run_racer in
  (* A pool-isolated racer crash restarts inline like [run]'s; its
     budget may have been cancelled meanwhile, which the rerun observes
     exactly as the sequential protocol would. *)
  let rows =
    Array.mapi
      (fun i slot ->
        match slot with
        | Ok row -> row
        | Error (e, _) ->
            if Trace.enabled () then
              Trace.instant "supervise.restart"
                ~attrs:
                  [ ("slot", Trace.Int i);
                    ("error", Trace.String (Printexc.to_string e)) ];
            run_racer i tasks.(i))
      slots
  in
  let best_by_area () =
    let best = ref None in
    Array.iteri
      (fun i (r : Job.row) ->
        match (r.Job.result, r.Job.origin) with
        | Ok s, (Job.Computed | Job.Cached) -> (
            match !best with
            | Some (_, a) when a <= s.Job.area -> ()
            | _ -> best := Some (i, s.Job.area))
        | _ -> ())
      rows;
    Option.map fst !best
  in
  let w = Atomic.get winner in
  (Array.to_list rows, if w < n then Some w else best_by_area ())
