(** Encoding constraints for state assignment.

    An {e input constraint} (Section 2.2) is a group of states that some
    minimized symbolic implicant asserts together: in a compatible Boolean
    representation the codes of exactly those states must span a face of
    the encoding hypercube containing no other state's code. Its weight is
    the number of implicants asserting the group.

    An {e output (covering) constraint} (Section VI) [u > v] requires the
    code of [u] to cover bitwise the code of [v], strictly. *)

open Logic

type input_constraint = { states : Bitvec.t; weight : int }

(** [face_of_states encoding states] is the supercube (as a pair
    [(mask, value)] over code bits: [mask] has a 1 where the face is
    specified) of the codes of [states]. Raises [Invalid_argument] on an
    empty state set. *)
val face_of_states : Encoding.t -> Bitvec.t -> int * int

(** [satisfied encoding ic] holds iff the face spanned by the codes of
    [ic]'s states contains no code of a state outside the group. *)
val satisfied : Encoding.t -> Bitvec.t -> bool

(** [satisfied_weight encoding ics] is the total weight of satisfied
    constraints. *)
val satisfied_weight : Encoding.t -> input_constraint list -> int

(** [num_satisfied encoding ics] counts satisfied constraints. *)
val num_satisfied : Encoding.t -> input_constraint list -> int

(** [of_symbolic sym] extracts the weighted input constraints of a
    machine (an exhausted [budget] yields the constraints of a
    less-minimized cover): minimize the symbolic cover with ESPRESSO-MV and collect the
    non-trivial present-state groups, merging duplicates. Groups of
    cardinality < 2 or covering all states are trivially satisfiable and
    are dropped. *)
val of_symbolic : ?budget:Budget.t -> Symbolic.t -> input_constraint list

(** [of_cover sym cover] extracts the weighted input constraints of an
    already-minimized symbolic [cover], by decreasing weight. *)
val of_cover : Symbolic.t -> Cover.t -> input_constraint list

(** [tally sym cover] is {!of_cover} before its sort: one constraint per
    distinct group, in the fold order of the table that counts them. *)
val tally : Symbolic.t -> Cover.t -> input_constraint list

(** [group sym c] is the present-state group cube [c] asserts, when it
    constrains an encoding: at least two states and not all of them. *)
val group : Symbolic.t -> Cube.t -> Bitvec.t option

type output_constraint = { covering : int; covered : int }

(** [oc_satisfied encoding oc] holds iff
    [code covering OR code covered = code covering] and the two codes
    differ. *)
val oc_satisfied : Encoding.t -> output_constraint -> bool

(** A cluster of output constraints: all edges into one next state, with
    the product-term gain [oc_weight] obtained when the whole cluster
    (and its companion input constraints) is satisfied. *)
type oc_cluster = {
  next_state : int;
  edges : output_constraint list;
  oc_weight : int;
  companion : Bitvec.t list;  (** companion input constraint groups [IC_i] *)
}

(** [cluster_satisfied encoding cl] holds iff every edge of the cluster
    is satisfied. *)
val cluster_satisfied : Encoding.t -> oc_cluster -> bool
