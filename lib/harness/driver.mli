(** One-call driver: run any of the paper's encoding algorithms (or a
    baseline) on a machine, under a unified {!Budget.t} and with a
    graceful-degradation fallback ladder. This is the programmatic face
    of [nova encode]. *)

type algorithm =
  | Ihybrid
  | Igreedy
  | Iohybrid
  | Iovariant
  | Iexact
  | Kiss
  | Mustang of Baselines.mustang_flavor * bool  (** flavor, include outputs *)
  | One_hot
  | Random of int  (** seed *)

(** [name algo] is the CLI spelling of [algo]. *)
val name : algorithm -> string

(** [all_algorithms] is every algorithm with default options, in a
    sensible reporting order. *)
val all_algorithms : algorithm list

(** [named_algorithms] is every algorithm whose spelling is fixed: all
    but [Random], whose spelling carries its seed. *)
val named_algorithms : algorithm list

(** [algorithm_of_name s] inverts {!name}: it is [Some a] exactly when
    [name a = s] ([random] seeds included: ["random[7]"]). [None] on an
    unknown spelling. *)
val algorithm_of_name : string -> algorithm option

(** A rung of the fallback ladder: the concrete encoder that produced
    (or failed to produce) an encoding. Each algorithm degrades through
    progressively cheaper rungs of its family:
    - [Iexact]: iexact → semiexact → project → igreedy
    - [Ihybrid]: ihybrid → igreedy
    - [Iohybrid]/[Iovariant]: iohybrid/iovariant → ihybrid → igreedy
    - everything else is its own single rung.

    [igreedy] never fails (an exhausted budget degrades it to sequential
    codes), so with fallback enabled the constraint-driven ladders always
    produce an encoding. *)
type rung =
  | Rung_iexact
  | Rung_semiexact
  | Rung_project
  | Rung_ihybrid
  | Rung_igreedy
  | Rung_iohybrid
  | Rung_iovariant
  | Rung_kiss
  | Rung_mustang
  | Rung_one_hot
  | Rung_random

val rung_name : rung -> string

(** [rung_of_name s] inverts {!rung_name} (used by the on-disk result
    cache to round-trip [produced_by]). *)
val rung_of_name : string -> rung option

(** [ladder ~fallback algo] is the rung sequence [encode] tries, in
    order; with [fallback = false], just the first rung. *)
val ladder : fallback:bool -> algorithm -> rung list

(** [primary_stage algo] is the pipeline stage of [algo]'s first rung:
    the stage an error names when that rung fails. *)
val primary_stage : algorithm -> Nova_error.stage

type outcome = {
  encoding : Encoding.t;
  algorithm : algorithm;  (** the algorithm that was requested *)
  produced_by : rung;  (** the rung that actually produced [encoding] *)
  degradations : (rung * Nova_error.t) list;
      (** rungs tried before [produced_by], in order, each with why it
          failed; empty when the primary rung succeeded *)
  claims : Check.claims;
      (** what the producing rung reports satisfied — input-constraint
          groups and covering pairs the certificate layer re-verifies;
          baselines claim nothing *)
}

(** When [false] (the default), {!encode} prints a one-line warning to
    stderr every time the fallback ladder degrades past the primary rung,
    so silent quality loss is loud by default. The CLI's [--quiet] flag
    sets it. *)
val quiet : bool ref

(** [degradation_warning o] is the warning line {!encode} prints for a
    degraded outcome ([None] when the primary rung succeeded). Exposed so
    tests can assert on the exact text without scraping stderr. *)
val degradation_warning : outcome -> string option

(** [iexact_max_work] is the deterministic work cap the paper tables,
    the portfolio and the certification bench put on iexact (the paper
    itself gives up on the big machines). *)
val iexact_max_work : int

(** A per-machine context: what the calls on one machine can share, so
    that a portfolio minimizes the machine's symbolic cover once instead
    of once per task. Every {!encode} and {!report} runs on one: the
    [?ctx] it was given when that was made for its machine value, else a
    private context of its own, which reuses only the call's own values
    (the MV cover its input constraints and its symbolic minimization
    both start from, say). It holds mutex-guarded once-cells, safe to force
    from several domains (a second asker waits for the first one's
    value): [Symbolic.of_fsm m], the minimized MV cover with the ticks
    [T] it took, the input constraints [Constraints.of_cover] extracts
    from it, and one ESPRESSO result (with its ticks) per encoding
    [(nbits, codes)]. A cell is forced on first use, never before.

    {b The tick rule}: a call reuses a value that took [T] ticks only
    when its own budget has no deadline and no trip anywhere on its
    chain, and strictly more than [T] work left on
    its cap and on every ancestor's ({!Budget.headroom}); it then charges
    those [T] ticks to its budget ({!Budget.charge}). An empty cell is
    filled by the first such call, which computes on an uncapped child of
    its own budget, so its ticks and its trip point are those of a
    private computation; the value is kept only if it left headroom, so a
    run cut short by its cap is never shared. Any other call computes
    privately. Either way each call computes at
    most once, bounded by its own caps, and the outcome, the
    implementation and [Budget.spent] are those of a call that computed
    every value itself. The one exception is a budget another domain may
    {!Budget.cancel}: a cancel landing while a call reuses a value is not
    observed there. Its only users are [Exec.Portfolio.race]'s
    cancellable roots, each with a private context, and a racer whose
    root was cancelled has its row discarded ([Cancelled_by_race]), so
    no result of such a call is reported. *)
type context

(** [context m] is an empty context for the machine value [m]. A call
    with any other machine value runs on a private context instead, even
    for an equal machine. *)
val context : Fsm.t -> context

(** [input_constraints c] is [Constraints.of_symbolic (Symbolic.of_fsm m)]
    for [c]'s machine [m], computed without a cap and shared. *)
val input_constraints : context -> Constraints.input_constraint list

(** [implement ?budget c e] is [Encoded.implement ?budget m e] for
    [c]'s machine [m], sharing one ESPRESSO run per encoding under the
    tick rule (an unbudgeted call runs on a fresh uncapped root, so it
    always shares). *)
val implement : ?budget:Budget.t -> context -> Encoding.t -> Encoded.result

(** [encode ?ctx ?bits ?budget ?fallback machine algo] runs the algorithm.
    [bits] overrides the code length where the algorithm accepts one.
    [budget] (default a fresh [Budget.create ()]) bounds the whole call —
    work, wall-clock deadline and cancellation included; under an
    unlimited budget the encodings are identical to the pre-pipeline driver's.
    [fallback] (default [true]) enables the degradation ladder; with
    [~fallback:false] a failing primary rung is reported as an error
    instead — e.g. [Iexact] out of budget returns
    [Error (Budget_exhausted { stage = Iexact; _ })] rather than falling
    through to [semiexact]. No exception escapes: failures are
    [Nova_error.t] values. [ctx] shares the symbolic cover and the input
    constraints with the machine's other calls; without it the call
    runs on a private context (see {!context}). *)
val encode :
  ?ctx:context ->
  ?bits:int ->
  ?budget:Budget.t ->
  ?fallback:bool ->
  Fsm.t ->
  algorithm ->
  (outcome, Nova_error.t) result

(** [report ?ctx ?bits ?budget ?fallback machine algo] is [encode] plus
    the minimized implementation: {!implement} on the call's context
    (the final ESPRESSO run also draws on [budget] — an exhausted budget
    yields a valid but less-minimized cover). *)
val report :
  ?ctx:context ->
  ?bits:int ->
  ?budget:Budget.t ->
  ?fallback:bool ->
  Fsm.t ->
  algorithm ->
  (outcome * Encoded.result, Nova_error.t) result
