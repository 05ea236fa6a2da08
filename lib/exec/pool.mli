(** A deterministic Domain-based worker pool.

    [map] fans an array of independent tasks out over [jobs] domains and
    returns the results {e in task order}, whatever order the domains
    finish in — the deterministic reduction the executor's bit-identity
    guarantee rests on. Tasks are claimed in index order from a shared
    atomic cursor, so earlier tasks start no later than later ones and a
    one-job pool degenerates to [Array.map] on the calling domain.

    The calling domain always works its own call; the other [jobs - 1]
    places go to process-wide helper domains. Helpers are spawned on
    first use, grown on demand up to the largest [jobs - 1] any caller
    has asked for, and reused by every later call, from any domain or
    thread. A helper with nothing to do polls for new work for a few
    milliseconds (it never blocks: a parked domain slows every
    stop-the-world minor GC in the process) and then retires — its
    domain ends. So back-to-back calls pay no spawn, and a process idle
    for longer than that window runs with no helper alive.

    OCaml forbids [Unix.fork] while more than one domain runs, so it
    fails during a call and for the idle window after one; spawn child
    processes with [Unix.create_process] instead. *)

(** [available_jobs ()] is the runtime's recommended domain count (>= 1). *)
val available_jobs : unit -> int

(** [map ~jobs tasks ~f] applies [f] to every task on at most [jobs]
    domains (clamped to [1 .. Array.length tasks]): the calling domain
    and up to [jobs - 1] helpers. If any [f] raises, the exception of
    the lowest-indexed failing task is re-raised after every slot has
    settled. *)
val map : jobs:int -> 'a array -> f:('a -> 'b) -> 'b array

(** [mapi ~jobs tasks ~f] is {!map} with the task index. *)
val mapi : jobs:int -> 'a array -> f:(int -> 'a -> 'b) -> 'b array

(** [mapi_isolated ~jobs tasks ~f] is {!mapi} with per-slot crash
    isolation: a task whose [f] raises settles its own slot as
    [Error (exn, backtrace)] — sibling tasks and the pool itself are
    unaffected, and every slot is always settled. Genuinely fatal
    exceptions ([Out_of_memory], [Stack_overflow], [Sys.Break]) are
    {e not} isolated: they re-raise after every slot has settled with
    the historical lowest-index-deterministic semantics. The
    [Chaos.Pool_worker] injection site fires inside the per-slot
    protection, so an injected domain death lands in the slot of the
    task the domain was running. *)
val mapi_isolated :
  jobs:int -> 'a array -> f:(int -> 'a -> 'b) -> ('b, exn * string) result array

(** [live_helpers ()] joins every helper that has retired and returns
    how many are still alive (0 once the idle window has passed with no
    call running). *)
val live_helpers : unit -> int
