(** The input poset of a face hypercube embedding instance (Section 3.2).

    Given the set [IC] of input constraints over [n] states, the input
    poset is the intersection closure of [IC], augmented with the
    universe and all singletons, ordered by set inclusion. The input
    graph [IG] records for every element its {e fathers} (minimal strict
    supersets) and {e children} (maximal strict subsets).

    Element categories (Section 3.3.1):
    - category 1 ({e primary}): single father, the universe;
    - category 2: more than one father — its face is forced to the
      intersection of its fathers' faces;
    - category 3: single father, not the universe — its face lies
      strictly inside its father's face. *)

type element = {
  id : int;
  states : Bitvec.t;
  card : int;
  fathers : int list;
  children : int list;
  category : int;  (** 0 for the universe, otherwise 1, 2 or 3 *)
}

(** Built only by {!build}, so the elements are distinct, non-empty and
    closed under intersection; [Embed.solve]'s meet table relies on
    it. *)
type t = private {
  num_states : int;
  elements : element array;  (** universe first, then decreasing cardinality *)
  universe : int;  (** id of the universe element *)
}

(** [build ~num_states ics] computes the closed input poset. Empty and
    duplicate groups are ignored. *)
val build : num_states:int -> Bitvec.t list -> t

(** [find t states] is the id of the element equal to [states], if any. *)
val find : t -> Bitvec.t -> int option

(** [min_level e] is [ceil (log2 (card e))]: the smallest face level that
    can hold the element. *)
val min_level : element -> int

(** [share_children a b] holds iff the two elements have a common child. *)
val share_children : element -> element -> bool

(** [mincube_dim t] is the lower bound on the embedding dimension from
    the paper's three counting arguments (Section 3.3.2): face supply per
    level, father counts, and virtual states of uneven constraints. *)
val mincube_dim : t -> int
