(** Regression differ for the repo's BENCH_*.json artifacts. Rows match
    by identity fields (name/mode/algorithm), numeric metrics flatten
    with dotted keys, and only wall ("*_s"), size (num_cubes,
    literal_cost, area, nbits) and complexity (model_order,
    fitted_exponent — the scaling bench's fitted classes) metrics can
    regress — everything else is reported as a note. A row missing from
    NEW counts as a regression, and so does a gateable metric vanishing
    from a row that is still present (e.g. a scaling cell whose fit
    degraded to inconclusive). *)

type artifact = {
  schema : string;
  rows : (string * (string * float) list) list;
}

type direction = Wall | Size | Complexity | Neutral

type delta = {
  row : string;
  metric : string;
  old_v : float;
  new_v : float;
  regression : bool;
}

type result = {
  deltas : delta list;
  missing : string list;
  vanished : (string * string) list;
      (** (row, metric) pairs present in OLD but absent from that row in
          NEW; the non-{!Neutral} ones count in {!num_regressions} *)
  added : string list;
  rows_compared : int;
  metrics_compared : int;
}

exception Schema_mismatch of string * string

val default_threshold : float
(** 0.25 — a wall or size metric regresses when it worsens by more than
    25%. *)

val wall_regressed : threshold:float -> reference:float -> float -> bool
(** [wall_regressed ~threshold ~reference v]: [v] is worse than
    [reference] by more than [threshold] (relative) and by more than
    5 ms, so jitter on a tiny row never regresses. The rule {!diff}
    applies to every wall metric, and the verdict of every in-artifact
    wall gate ([Scaling.Artifacts.serve]'s and [parallel]'s ["gates"]). *)

val exponent_tolerance : float
(** 0.25 — absolute drift of a [fitted_exponent] past this is a
    regression, independent of the relative threshold; [model_order]
    regresses on any increase. *)

val classify : string -> direction

val load : string -> artifact
(** @raise Json_min.Parse_error on malformed input, [Sys_error] on I/O. *)

val diff : ?threshold:float -> artifact -> artifact -> result
(** @raise Schema_mismatch when the two artifacts declare different schemas. *)

val num_regressions : result -> int

val report :
  ?threshold:float ->
  Format.formatter ->
  old_path:string ->
  new_path:string ->
  result ->
  int
(** Print the human-readable diff; returns [num_regressions]. *)
