(** A unified work/deadline/cancellation budget for the encoding
    pipeline.

    A budget carries a monotone work counter (one unit per attempted face
    assignment, expanded cube, or similar elementary step), an optional
    wall-clock deadline, and a cancellation flag ({!cancel}). Budgets
    form a tree: {!sub} creates a child whose work also counts against
    every ancestor, so an algorithm can impose its intrinsic per-call cap
    (the historical [?max_work] defaults) while still respecting a global
    budget threaded from the driver or the CLI.

    Two checks mirror the two historical idioms exactly:
    - {!tick} increments and reports failure once the counter {e exceeds}
      a cap (the [Embed] tick semantics), and
    - {!exhausted} pre-checks whether the counter has {e reached} a cap
      (the [iexact_code] loop-guard semantics),

    so running under an unconstrained budget reproduces the pre-pipeline
    behavior bit for bit. Deadlines are polled every few hundred ticks
    (and on every {!exhausted} call), keeping the overhead of an
    unconstrained budget to a counter increment.

    Cross-domain cancellation: the tripped flag is an [Atomic.t], so
    {!cancel} may be called from any domain (the [Exec] racing pool uses
    it to trip losing portfolio members) and is observed by the ticking
    domain within one {!tick}. The work counters themselves are not
    atomic — a budget tree must be ticked by a single domain; only the
    cancellation signal is cross-domain sound. *)

type reason =
  | Work  (** a work cap was reached *)
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** {!cancel} tripped the budget *)

(** [reason_name r] is ["work"], ["deadline"] or ["cancelled"]. *)
val reason_name : reason -> string

type t

(** [create ?max_work ?deadline_ms ()] is a fresh root budget.
    [deadline_ms] is relative to now. [create ()] never exhausts unless
    {!cancel}led: a fresh one is the default of every [?budget]
    parameter, so no two calls share a counter. *)
val create : ?max_work:int -> ?deadline_ms:float -> unit -> t

(** [sub ?max_work parent] is a child budget: its ticks also count
    against [parent], and it is exhausted as soon as [parent] is. *)
val sub : ?max_work:int -> t -> t

(** Server-side admission ceilings: the most deadline / work a single
    request may consume, regardless of what it asked for. *)
type caps = { cap_deadline_ms : float option; cap_work : int option }

(** [derive ?deadline_ms ?max_work caps] is the per-request budget a
    serving layer admits the request under: on each axis the minimum of
    the request's ask and the cap (an axis neither side bounds stays
    unlimited). Always a fresh root; with no ceilings and no request
    limits it is the one-shot CLI's default. *)
val derive : ?deadline_ms:float -> ?max_work:int -> caps -> t

(** [tick b] charges one unit of work. Returns [false] when the budget
    (or an ancestor) is exhausted — the caller should stop. *)
val tick : t -> bool

(** [cancel b] trips [b] with reason [Cancelled], immediately and from
    any domain. The domain ticking [b] (or any budget below it) observes
    the trip on its next {!tick} or {!exhausted} check. Idempotent; a
    budget that already tripped for another reason keeps that reason. *)
val cancel : t -> unit

(** [exhausted b] pre-checks the budget without charging work, polling
    the deadline and observing a {!cancel}. *)
val exhausted : t -> bool

(** [reason b] is why the budget ran out, if it did. *)
val reason : t -> reason option

(** [spent b] is the work charged to [b] (including by sub-budgets). *)
val spent : t -> int

(** [headroom b] is how many more ticks [b] could take unobserved:
    [None] when some node of its chain has a deadline or has already
    tripped (ticks there poll a clock or see the trip), otherwise
    [Some h] with [h] the least [cap - work] over the capped nodes of
    the chain ([max_int] when none is capped). [n < h] ticks on such a budget can neither trip it nor
    make {!exhausted} true, whatever they compute. *)
val headroom : t -> int option

(** [charge b n] books [n] ticks on [b] and every ancestor at once: the
    work counters and cap trips of [n] {!tick}s. Meant for [n] below
    [b]'s {!headroom}, where those ticks trip nothing and poll nothing
    observable. *)
val charge : t -> int -> unit

(** Raised by pipeline stages that cannot return a degraded result when
    their budget runs out mid-flight (e.g. [Out_encoder]); the driver
    converts it into [Nova_error.Budget_exhausted]. *)
exception Out_of_budget of reason
