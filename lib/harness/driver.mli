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

(** [algorithm_of_name s] inverts {!name} ([random] seeds included:
    ["random[7]"]). [None] on an unknown spelling. *)
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

(** [encode ?bits ?budget ?fallback machine algo] runs the algorithm.
    [bits] overrides the code length where the algorithm accepts one.
    [budget] (default {!Budget.unlimited}) bounds the whole call — work,
    wall-clock deadline and cancellation included; under an unlimited
    budget the encodings are identical to the pre-pipeline driver's.
    [fallback] (default [true]) enables the degradation ladder; with
    [~fallback:false] a failing primary rung is reported as an error
    instead — e.g. [Iexact] out of budget returns
    [Error (Budget_exhausted { stage = Iexact; _ })] rather than falling
    through to [semiexact]. No exception escapes: failures are
    [Nova_error.t] values. *)
val encode :
  ?bits:int ->
  ?budget:Budget.t ->
  ?fallback:bool ->
  Fsm.t ->
  algorithm ->
  (outcome, Nova_error.t) result

(** [report ?bits ?budget ?fallback machine algo] is [encode] plus the
    minimized implementation (the final ESPRESSO run also draws on
    [budget] — an exhausted budget yields a valid but less-minimized
    cover). *)
val report :
  ?bits:int ->
  ?budget:Budget.t ->
  ?fallback:bool ->
  Fsm.t ->
  algorithm ->
  (outcome * Encoded.result, Nova_error.t) result
