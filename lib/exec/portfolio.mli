(** The parallel portfolio executor.

    NOVA's experimental method runs every machine through several
    encoding programs and keeps the best PLA. {!run} executes such a
    task list on a {!Pool} of domains with deterministic results;
    {!race} runs one machine's portfolio competitively, cancelling
    losers through the {!Budget} cancellation tree.

    {b Determinism}: for a fixed task list, [run ~jobs:n] returns rows
    bit-identical to [run ~jobs:1] for every [n] — results are reduced
    in task order, tasks share no mutable state, and cache hits are
    certified results of the very computation they replace. {!race} is
    deterministic too (see below), so racing output is also independent
    of [jobs].

    {b One job step}: {!run}, {!run_task} and {!race} execute every
    task through the same step: cache lookup, else compute under
    {!Supervise.run} beneath an optional outer budget that wraps the
    task's [max_work] cap with {!Budget.sub}, store unless that outer
    budget tripped, count the row. The outer budget is a serving
    layer's admission budget ({!run_task}) or a racer's cancellable
    root ({!race}).

    {b Supervision}: every compute step runs under {!Supervise.run} —
    a crashed encoder runs again at once, up to three attempts in all,
    exhausted retries settle the row as [Error (Job_crashed _)], and
    an algorithm that exhausts its retries twice on the same machine
    is quarantined (skipped with a typed row, [attempts = 0]) for the
    rest of the process. A crash that escapes the supervisor and kills a pool
    worker (e.g. an injected [Chaos.Pool_worker] fault) is isolated to
    its slot by {!Pool.mapi_isolated} and the job restarts once,
    supervised, on the calling domain. No failure mode raises out of
    [run] or [race] short of [Out_of_memory]/[Stack_overflow]/
    [Sys.Break].

    {b Sequential fallback}: [jobs] is capped at
    {!Pool.available_jobs}, so a single-core container runs
    sequentially — domains beyond the cores are measurable pure
    overhead. Rows are bit-identical either way. *)

(** [effective_jobs ~available ~requested] is the domain count actually
    used: [requested] capped at [available], and at least [1].
    Exposed for tests and the bench harness. *)
val effective_jobs : available:int -> requested:int -> int

(** [run ?jobs ?cache tasks] executes every task and returns one row
    per task, in task order. [jobs] defaults to 1. With [cache], each
    task first consults the content-addressed store (entries re-certify
    before being trusted) and stores its freshly computed result. *)
val run : ?jobs:int -> ?cache:Cache.t -> Job.task list -> Job.row list

(** [run_task ?cache ?budget task] is the job step {!run}
    applies to each task, exposed for callers that schedule jobs
    themselves (the [lib/serve] daemon). [budget] is the {e outer}
    budget: an admission budget (a serving layer's per-request
    deadline/work ceiling). It wraps — never replaces — the task's own [max_work]
    cap: the task cap becomes a {!Budget.sub} child so it trips at
    exactly the one-shot point (it is part of the cache fingerprint),
    while the external ceiling rides above it. A result produced under
    a {e tripped external} budget is returned but {b never cached}:
    its degradation came from something outside the content address.
    A trip of the task's intrinsic cap stores as usual. With [budget]
    absent this is bit-identical to a 1-task {!run}. *)
val run_task : ?cache:Cache.t -> ?budget:Budget.t -> Job.task -> Job.row

(** [race ?jobs ?cache tasks] races the tasks (one machine's
    portfolio rungs) against each other and returns the rows (task
    order: losers keep their cancelled/partial status) plus the index
    of the winner, or [None] if no task produced a usable result.

    The winner is deterministic regardless of completion order:

    - {e acceptable} means the task succeeded with its primary rung (no
      fallback degradation);
    - the winner is the {b lowest-indexed acceptable} task — so order
      the portfolio by preference;
    - once some task [k] completes acceptably, every task after [k] is
      cancelled ({!Budget.cancel}) or never started: its result cannot
      affect the outcome, because a lower index wins regardless. Tasks
      before [k] always run to completion — one of them may still beat
      [k];
    - if no task is acceptable, nothing was ever cancelled, every
      result is available, and the winner is the best (smallest) PLA
      area, ties to the lowest index.

    With [jobs = 1] the same protocol runs sequentially: tasks after
    the first acceptable one are simply never started. Either way the
    winning row is bit-identical.

    Each task runs through the job step under its own cancellable,
    uncapped root as the outer budget. Cancelled losers are never
    written to the cache (their roots tripped); the winner always ran
    uncancelled, so its cached entry equals the sequential result.

    A racer that crashes (supervision exhausted, or quarantined)
    settles as [Error (Job_crashed _)] — never acceptable, so the race
    falls through to the next-preferred rung exactly as a degraded
    result would. *)
val race : ?jobs:int -> ?cache:Cache.t -> Job.task list -> Job.row list * int option

(** [default_algorithms] is the racing/reporting portfolio, preference
    first: iexact (capped), iohybrid, ihybrid, igreedy, then the kiss /
    mustang-nt / one-hot baselines. *)
val default_algorithms : Harness.Driver.algorithm list

(** [iexact_max_work] is {!Harness.Driver.iexact_max_work}, the
    deterministic work cap applied to iexact portfolio members. *)
val iexact_max_work : int

(** [tasks_for m] is [m]'s full portfolio as tasks in
    {!default_algorithms} order. *)
val tasks_for : Fsm.t -> Job.task list

(** [origin_name o] is the wire and metrics spelling of a row's origin:
    ["computed"], ["cached"] or ["cancelled"]. *)
val origin_name : Job.origin -> string

(** [first_error rows] is the error of the first row that failed for a
    reason other than losing a race: a crash that exhausted its retries,
    a quarantined rung, a budget trip outside racing. Racing
    cancellations are the protocol working, not failures. [None] when
    every row succeeded or was raced out. *)
val first_error : Job.row list -> Nova_error.t option
