(** [ihybrid_code] (Section IV): the hybrid face hypercube embedding
    heuristic.

    Greedily accretes constraints in decreasing weight order, accepting a
    constraint when the bounded backtracking search [semiexact_code]
    still satisfies the whole accepted set at the minimum code length;
    then, if encoding space remains (up to [nbits]), projects one
    dimension at a time, each satisfying at least one more constraint.
    Both steps are the shared ones: {!Iexact.accrete} and
    {!Project.extend}. *)

type result = {
  encoding : Encoding.t;
  satisfied : Constraints.input_constraint list;
  unsatisfied : Constraints.input_constraint list;
  random_start : bool;
      (** true when every accretion step failed and the projection had to
          start from the fallback random encoding — under an exhausted
          budget this marks the result as degraded *)
}

(** [ihybrid_code ~num_states ~nbits ~max_work ~order_seed ~budget ics]
    runs the algorithm. [nbits] defaults to the minimum code length
    [ceil (log2 num_states)]; [max_work] bounds each [semiexact_code]
    call. In the pathological case where every [semiexact_code] call
    fails, the projection starts from {!Project.start}'s seeded random
    encoding. [order_seed], when
    given, shuffles equal-weight constraints before the greedy accretion
    — the knob behind multi-start "best of NOVA" runs. [budget] is the
    caller's cross-cutting budget: once it runs out, remaining accretion
    steps and projections are skipped. *)
val ihybrid_code :
  num_states:int ->
  ?nbits:int ->
  ?max_work:int ->
  ?order_seed:int ->
  ?budget:Budget.t ->
  Constraints.input_constraint list ->
  result
