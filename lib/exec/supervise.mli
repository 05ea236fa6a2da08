(** The supervision layer of the execution stack.

    Converts runtime failures into typed, traced, recoverable events:
    crashes (exceptions) are retried; typed error results are
    deterministic verdicts and pass through untouched; fatal exceptions
    ([Out_of_memory], [Stack_overflow], [Sys.Break]) are re-raised
    immediately and never swallowed.

    {b Retry}: a crashed job runs again at once, up to
    {!max_attempts} attempts in all. There is no wait between
    attempts: the jobs are in-process encoder runs, and nothing a
    delay could outrun makes them crash.

    {b Quarantine}: a per-process registry of (machine, algorithm)
    pairs whose jobs crashed through their whole attempt budget. After
    {!quarantine_threshold} exhausted cycles the pair is skipped
    outright — a [driver.quarantine] trace instant and a typed
    [Job_crashed] with [attempts = 0] — so the portfolio fallback
    ladder continues without re-burning attempts on a known-bad rung.

    {b Warnings}: one stderr line per retry / give-up / quarantine
    skip, with attempt counts and reasons; {!quiet} (the CLI's
    [--quiet]) suppresses them. *)

(** Total attempts per supervised job, the first included (3). *)
val max_attempts : int

(** Suppresses the retry / give-up / quarantine stderr warnings. *)
val quiet : bool ref

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

(** [run ~machine ~algorithm f] supervises one job: quarantine check,
    then [f], run again at once on a crash. Returns [f]'s own result,
    or [Error (Job_crashed _)] after {!max_attempts} crashed attempts
    (or a quarantine skip). Never raises except fatal exceptions. *)
val run :
  machine:string ->
  algorithm:string ->
  (unit -> ('a, Nova_error.t) result) ->
  ('a, Nova_error.t) result

(** [protect ~what f] is the one-shot infrastructure flavor: run [f],
    mapping any non-fatal crash to [Error detail] (no retry — callers
    like the cache recover by recomputing instead). *)
val protect : what:string -> (unit -> 'a) -> ('a, string) result
