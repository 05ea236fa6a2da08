(** [project_code] (Section 4.2): the projection coding step, and the
    pieces the paper's encoders share around it.

    Proposition 4.2.1: an encoding of length [l] satisfying a constraint
    set [C] extends to length [l + 1] satisfying [C] plus any one more
    constraint, by padding the codes of the new constraint's states with
    1 and all others with 0. The implementation additionally tries to
    absorb further unsatisfied constraints into the raised set, accepting
    an extension only after verifying every satisfied constraint
    directly. *)

(** [by_weight_desc] orders constraints by decreasing weight, ties by
    [Bitvec.compare] on the states: the order of accretion and of the
    projection target. *)
val by_weight_desc : Constraints.input_constraint -> Constraints.input_constraint -> int

(** [states ics] is the state set of each constraint, in order. *)
val states : Constraints.input_constraint list -> Bitvec.t list

(** [split encoding ics] is [(satisfied, unsatisfied)] under [encoding],
    each in the order of [ics]. *)
val split :
  Encoding.t ->
  Constraints.input_constraint list ->
  Constraints.input_constraint list * Constraints.input_constraint list

(** [start ~num_states ~nbits codes] is the projection's starting
    point: [(false, cs)] for [Some cs], and for [None] (every accretion
    step failed) [(true, cs)] with [cs] the random [nbits]-bit encoding
    seeded by [(0, num_states)]. *)
val start : num_states:int -> nbits:int -> int array option -> bool * int array

(** [project ~codes ~nbits ~sic ~ric] adds one dimension (bit [nbits])
    and returns [(codes', newly_satisfied, still_unsatisfied)]. [ric]
    must be non-empty; its highest-weight constraint is guaranteed to
    move to the satisfied side. *)
val project :
  codes:int array ->
  nbits:int ->
  sic:Constraints.input_constraint list ->
  ric:Constraints.input_constraint list ->
  int array * Constraints.input_constraint list * Constraints.input_constraint list

(** An [nbits]-bit encoding with its satisfied ([sic]) and unsatisfied
    ([ric]) constraints. *)
type state = {
  codes : int array;
  nbits : int;
  sic : Constraints.input_constraint list;
  ric : Constraints.input_constraint list;
}

(** [extend ~budget ~upto s] projects [s] one dimension at a time until
    no constraint is left unsatisfied, the code length reaches [upto], or
    [budget] is exhausted. Each step puts the newly satisfied
    constraints in front of [sic]. *)
val extend : budget:Budget.t -> upto:int -> state -> state
