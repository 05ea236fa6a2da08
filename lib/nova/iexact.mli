(** [iexact_code] (Section III): the exact input encoding algorithm.

    Finds an encoding satisfying {e all} input constraints in the minimum
    number of bits, by answering SUBPOSET EQUIVALENCE for increasing cube
    dimensions, enumerating for each dimension the primary level vectors
    of Section 3.3.1, and for each vector running the backtracking search
    of {!Embed}.

    The algorithm is worst-case exponential (Section 3.5), so the search
    runs under a work budget. At each dimension a fast minimum-level
    probe (the [semiexact_code] restriction) runs first; the full level
    enumeration follows. When the budget runs out before every smaller
    dimension has been refuted, a found solution is still returned with
    [proven = false] — the paper's own tables mark such entries (e.g.
    [donfile]'s 11-bit result) the same way, and report "-" when nothing
    was found at all. *)

type result = {
  k : int;  (** code length at which all constraints were satisfied *)
  codes : int array;
  proven : bool;  (** true when every dimension below [k] was refuted exhaustively *)
}

type outcome = Sat of result | Exhausted

(** [iexact_code ~num_states ~max_work ~budget ics] runs the exact
    search. [max_work] is the intrinsic cap on attempted face
    assignments (default [2_000_000]); [budget], when given, is the
    caller's cross-cutting budget — the search charges it too and stops
    at whichever limit (work, deadline, cancellation) comes first. *)
val iexact_code :
  num_states:int -> ?max_work:int -> ?budget:Budget.t -> Bitvec.t list -> outcome

(** [semiexact_code ~num_states ~k ~max_work ?output_constraints ics] is
    the bounded-backtracking variant of Section 4.1: all faces at their
    minimum feasible level, search capped by [max_work] (default
    [30_000]). With [output_constraints] it becomes [io_semiexact_code]
    (Section 6.2.1): face assignments violating an active covering
    relation are rejected. Returns the state codes on success. *)
val semiexact_code :
  num_states:int ->
  k:int ->
  ?max_work:int ->
  ?budget:Budget.t ->
  ?output_constraints:Constraints.output_constraint list ->
  Bitvec.t list ->
  int array option

(** [accrete ~num_states ~k ~max_work ~budget ics] is the accretion step
    of Section IV: for each constraint of [ics] in turn, [semiexact_code]
    at length [k] on it and the constraints accepted so far (newest
    first); the constraint is accepted when that succeeds. Returns the
    codes of the last success ([None] when none succeeded), the accepted
    and the rejected constraints, each newest first. *)
val accrete :
  num_states:int ->
  k:int ->
  max_work:int ->
  budget:Budget.t ->
  Constraints.input_constraint list ->
  int array option * Constraints.input_constraint list * Constraints.input_constraint list
