(** Least-squares complexity fitting of runtime-vs-size series.

    Each candidate model is a one-parameter curve [t = c * shape n]
    fitted in log space (where the fit is linear in [log c] and
    multiplicative timing noise becomes additive); the winner is the
    candidate with the smallest residual sum of squares. Alongside the
    class, a free power-law regression reports the continuous fitted
    exponent (slope of [log t] vs [log n]; for the exponential winner,
    the base-2 rate — slope of [log2 t] vs [n]) so regressions *within*
    a class (quadratic drifting toward cubic) are visible before the
    class flips.

    Series that cannot support a fit come back as a typed
    {!inconclusive} value, never as a bogus model. *)

type model = Linear | N_log_n | Quadratic | Cubic | Exponential

val model_name : model -> string
(** "linear", "nlogn", "quadratic", "cubic", "exponential". *)

val model_order : model -> int
(** Rank of the class, 1 (linear) → 5 (exponential): the integer the
    bench differ gates on — any increase is a complexity regression. *)

type fitted = {
  model : model;
  coeff : float;  (** c in [t ≈ c * shape n] *)
  exponent : float;
      (** free power-law slope; for [Exponential], the base-2 growth
          rate r in [t ≈ c * 2^(r*n)] *)
  r2 : float;  (** coefficient of determination in log space, floored at 0 *)
  residual : float;  (** mean squared log-residual of the winning model *)
}

type inconclusive =
  | Too_few_points of int  (** fewer than {!min_points} sizes measured *)
  | Non_positive_time  (** a non-positive runtime cannot be log-fitted *)
  | Degenerate_sizes  (** sizes below 2, or fewer than 2 distinct sizes *)
  | Constant_series  (** no runtime variation: every model fits equally *)

type result = Fitted of fitted | Inconclusive of inconclusive

val min_points : int
(** 4 — below this, model selection over five candidates is noise. *)

val inconclusive_reason : inconclusive -> string

val fit : (float * float) list -> result
(** [fit [(n1, t1); ...]] — sizes paired with runtime estimates. *)
