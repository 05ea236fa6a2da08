(** Multiple-valued cubes in positional notation.

    A cube over a domain is a bit vector with one bit per (variable, part)
    pair. A minterm [m] (one value per variable) belongs to the cube iff
    for every variable [v] the bit of [m]'s value of [v] is set. A cube
    with an empty variable field therefore contains no minterms.

    All functions taking a domain assume the cube was built over that
    domain (the bit width must match). *)

type t = Bitvec.t

(** [full d] contains every minterm: all bits set. *)
val full : Domain.t -> t

(** [empty_cube d] is the all-zero vector (contains no minterm). *)
val empty_cube : Domain.t -> t

(** [is_empty d c] holds iff [c] contains no minterm, i.e. some variable
    field of [c] is empty. *)
val is_empty : Domain.t -> t -> bool

(** [is_full d c] holds iff all bits are set. *)
val is_full : Domain.t -> t -> bool

(** [var_bits d c v] is the part set of variable [v] as a list of parts. *)
val var_bits : Domain.t -> t -> int -> int list

(** [var_full d c v] holds iff the field of [v] is all ones. *)
val var_full : Domain.t -> t -> int -> bool

(** [var_empty d c v] holds iff the field of [v] is all zeros. *)
val var_empty : Domain.t -> t -> int -> bool

(** [var_cardinal d c v] is the number of parts asserted for [v]. *)
val var_cardinal : Domain.t -> t -> int -> int

(** [set_var d c v parts] returns a copy of [c] whose field of [v]
    contains exactly [parts]. *)
val set_var : Domain.t -> t -> int -> int list -> t

(** [literal d v parts] is the cube full everywhere except variable [v],
    whose field is exactly [parts]. *)
val literal : Domain.t -> int -> int list -> t

(** [of_minterm d values] is the single-minterm cube asserting
    [values.(v)] for each variable [v]. *)
val of_minterm : Domain.t -> int array -> t

(** [inter d a b] is the cube intersection, [None] when it is empty. *)
val inter : Domain.t -> t -> t -> t option

(** [intersects d a b] holds iff [a] and [b] share a minterm. *)
val intersects : Domain.t -> t -> t -> bool

(** [var_intersects d a b v] holds iff the fields of variable [v] in
    [a] and [b] share a part. *)
val var_intersects : Domain.t -> t -> t -> int -> bool

(** [contains a b] holds iff cube [b]'s minterms are all in [a]
    (bitwise subset, valid when neither is empty). *)
val contains : t -> t -> bool

(** [supercube a b] is the smallest cube containing both (bitwise OR). *)
val supercube : t -> t -> t

(** [cofactor d c ~wrt] is the cofactor of [c] against cube [wrt]:
    [None] when the cubes do not intersect, otherwise the cube
    [c OR complement wrt]. The cofactor relativizes [c] to the subspace
    of [wrt]. *)
val cofactor : Domain.t -> t -> wrt:t -> t option

(** [distance d a b] is the number of variables whose fields of [a] and
    [b] are disjoint. *)
val distance : Domain.t -> t -> t -> int

(** [num_minterms d c] is the number of minterms of [c], saturated at
    [max_int]. *)
val num_minterms : Domain.t -> t -> int

(** [num_literal_bits d c] counts the asserted bits in non-full fields —
    the PLA literal cost of the cube. *)
val num_literal_bits : Domain.t -> t -> int

(** [pp d ppf c] prints the cube field by field, e.g. [10|111|01]. *)
val pp : Domain.t -> Format.formatter -> t -> unit

val equal : t -> t -> bool
