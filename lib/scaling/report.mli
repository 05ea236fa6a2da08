(** Orchestration of the scaling bench: walk every (family × algorithm)
    cell over the grid, measure the encode kernel at each size, fit the
    runtime-vs-size series, and emit the [nova-bench-scaling/v1]
    artifact that [nova bench-diff] gates on.

    The measured kernel is [Harness.Driver.encode] with the fallback
    ladder disabled and an unlimited budget — a budget cap or a silent
    degradation to a cheaper rung would corrupt exactly the curve this
    harness exists to measure. Each algorithm carries a [max_states]
    ceiling so the grid stays honest about what is tractable (iexact is
    exponential by construction and is deliberately absent). *)

type algo_spec = {
  algorithm : Harness.Driver.algorithm;
  max_states : int;  (** grid sizes above this are skipped for the cell *)
}

val algorithms : quick:bool -> algo_spec list

type point = {
  sample : Measure.sample;
  constraints_s : float;  (** per-run constraint-extraction share *)
  encode_s : float;  (** per-run encoder-rung share *)
}

type cell = {
  family : Grid.family;
  algo_name : string;
  points : point list;  (** ascending sizes actually measured *)
  fit : Fit.result;
}

val section_seconds : (string -> bool) -> float
(** Registry seconds of the sections the predicate selects. *)

val run_cell :
  ?warmup:int -> ?reps:int -> family:Grid.family -> sizes:int list -> algo_spec -> cell
(** Measure one cell. Sizes whose encode fails (it should not, for the
    default specs) are skipped rather than fitted. The phase split
    ([constraints_s], [encode_s]) is what the cell's runs added to the
    registry's [pipeline.constraints] and [pipeline.rung.*] sections. *)

val run :
  ?quick:bool ->
  ?reps:int ->
  ?progress:Format.formatter ->
  unit ->
  cell list
(** The whole grid: {!Grid.default} × {!algorithms}. [reps] defaults to
    3 (quick) / 5 (full); one progress line per cell goes to
    [progress]. *)

val to_json : quick:bool -> reps:int -> cell list -> Json_min.t
(** The [nova-bench-scaling/v1] artifact. Fit metrics flatten to
    [fit.model_order] / [fit.fitted_exponent] (the differ's complexity
    gate); inconclusive cells omit them, so a cell degrading to
    inconclusive surfaces as a vanished-metric regression. Raw samples
    live in the [points] array, which the differ skips. *)

val write : path:string -> quick:bool -> reps:int -> cell list -> unit
(** {!to_json} through {!Trace.write_atomic}. *)

val summary : Format.formatter -> cell list -> unit
(** One line per cell: fitted class, exponent, fit quality, top size. *)
