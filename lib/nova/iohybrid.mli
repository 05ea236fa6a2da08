(** [iohybrid_code] and [iovariant_code] (Section 6.2): heuristic
    satisfaction of the mixed input/output constraints produced by
    symbolic minimization — the ordered face hypercube embedding problem.

    [iohybrid_code] (Section 6.2.1) gives priority to input constraints:
    it first accretes input constraints like [ihybrid_code], then tries
    to add clusters of output covering constraints in decreasing weight
    order through [io_semiexact_code], and finally projects into extra
    dimensions to satisfy remaining input constraints.

    [iovariant_code] (Section 6.2.2) accepts a cluster only when both its
    output constraints and its companion input constraints are satisfied
    together. The paper found [iohybrid_code] performs better. *)

type problem = {
  num_states : int;
  ics : Constraints.input_constraint list;
      (** companion input constraints, including [IC_o] *)
  clusters : Constraints.oc_cluster list;
}

type result = {
  encoding : Encoding.t;
  sat_inputs : Constraints.input_constraint list;
  unsat_inputs : Constraints.input_constraint list;
  sat_clusters : Constraints.oc_cluster list;
  random_start : bool;
      (** true when every accretion step failed and the projection
          started from the fallback random encoding *)
}

(** Every bounded search is capped at 30,000 ticks, as in
    {!Ihybrid.ihybrid_code}. [budget] is the caller's cross-cutting
    budget: every bounded search charges it, and once it runs out the remaining accretion steps and
    projections are skipped. May propagate [Budget.Out_of_budget] from
    {!Out_encoder} on the output-constraints-only path. *)
val iohybrid_code : ?nbits:int -> ?budget:Budget.t -> problem -> result
val iovariant_code : ?nbits:int -> ?budget:Budget.t -> problem -> result
