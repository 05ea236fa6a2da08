(** The supervision layer of the execution stack.

    Converts runtime failures into typed, traced, recoverable events,
    per the taxonomy in {!Nova_error.is_transient}: crashes (exceptions)
    are transient and retried; typed error results are deterministic
    verdicts and pass through untouched; fatal exceptions
    ([Out_of_memory], [Stack_overflow], [Sys.Break]) are re-raised
    immediately and never swallowed.

    {b Retry}: seeded jittered exponential backoff. The jitter is drawn
    from (job key, attempt), so a replayed run backs off identically —
    supervision adds no nondeterminism.

    {b Quarantine}: a per-process registry of (machine, algorithm)
    pairs whose jobs crashed through their whole attempt budget. After
    {!quarantine_threshold} exhausted cycles the pair is skipped
    outright — a [driver.quarantine] trace instant and a typed
    [Job_crashed] with [attempts = 0] — so the portfolio fallback
    ladder continues without re-burning attempts on a known-bad rung.

    {b Warnings}: one stderr line per retry / give-up / quarantine
    skip, with attempt counts and reasons; {!quiet} (the CLI's
    [--quiet]) suppresses them. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_backoff_ms : float;  (** backoff before the second attempt *)
}

(** 3 attempts, 1ms base backoff. *)
val default_policy : policy

(** One attempt, no backoff: the unsupervised reference path (bench
    measures its wall time against {!default_policy}'s). *)
val off : policy

(** Suppresses the retry / give-up / quarantine stderr warnings. *)
val quiet : bool ref

(** Backoff growth per further attempt (2.0) and relative jitter: a
    backoff varies by +-[backoff_jitter] (0.5). *)
val backoff_multiplier : float

val backoff_jitter : float

(** [backoff_ms policy ~key ~attempt] is the deterministic backoff
    before retry number [attempt + 1] (1-based failures) of job [key].
    Always within [base * backoff_multiplier^(attempt-1)] times
    [1 +- backoff_jitter]. *)
val backoff_ms : policy -> key:string -> attempt:int -> float

(** Exhausted crash cycles after which a (machine, algorithm) pair is
    skipped (currently 2). *)
val quarantine_threshold : int

(** [quarantined ~machine ~algorithm] is [Some (cycles, detail)] when
    the pair is past the threshold. *)
val quarantined : machine:string -> algorithm:string -> (int * string) option

(** [reset_quarantine ()] empties the registry (tests; a long-running
    service would call this to re-admit quarantined rungs). *)
val reset_quarantine : unit -> unit

(** One quarantine-registry row: a (machine, algorithm) pair with its
    exhausted crash cycles, how many jobs the quarantine has skipped,
    and the last crash detail. A pair appears as soon as it has one
    exhausted cycle — [q_cycles >= quarantine_threshold] is the
    actually-quarantined predicate. *)
type quarantine_entry = {
  q_machine : string;
  q_algorithm : string;
  q_cycles : int;
  q_skips : int;
  q_detail : string;
}

(** The registry's current rows, sorted by (machine, algorithm) — the
    runtime-visibility read-out used by the serve [stats]/[metrics]
    verbs. *)
val quarantine_snapshot : unit -> quarantine_entry list

(** [run policy ~machine ~algorithm f] supervises one job: quarantine
    check, then [f] with retry/backoff on crashes. Returns [f]'s own
    result, or [Error (Job_crashed _)] after the attempt budget (or a
    quarantine skip). Never raises except fatal exceptions. *)
val run :
  policy ->
  machine:string ->
  algorithm:string ->
  (unit -> ('a, Nova_error.t) result) ->
  ('a, Nova_error.t) result

(** [protect ~what f] is the one-shot infrastructure flavor: run [f],
    mapping any non-fatal crash to [Error detail] (no retry — callers
    like the cache recover by recomputing instead). *)
val protect : what:string -> (unit -> 'a) -> ('a, string) result
