(** Covers (sets of cubes) of multiple-valued logic functions, with the
    classic unate-recursive operations: cofactor, tautology, complement,
    containment.

    A cover represents the union of the minterm sets of its cubes.
    Multiple-output functions are modelled by making the output a final
    multiple-valued variable of the domain, so that every operation here
    (including complement and tautology) treats the output uniformly as
    one more dimension of the characteristic function. *)

type t = { dom : Domain.t; cubes : Cube.t list }

(** [make d cubes] builds a cover, dropping empty cubes. *)
val make : Domain.t -> Cube.t list -> t

(** [empty d] is the empty cover (the constant-false function). *)
val empty : Domain.t -> t

(** [universe d] is the single-full-cube cover (constant true). *)
val universe : Domain.t -> t

(** [size t] is the number of cubes. *)
val size : t -> int

(** [literal_cost t] is the total PLA literal cost of the cubes. *)
val literal_cost : t -> int

(** [union a b] is the cover containing the cubes of both. *)
val union : t -> t -> t

(** [intersect a b] is the pairwise cube intersection of [a] and [b]. *)
val intersect : t -> t -> t

(** [cofactor t ~wrt] is the cover cofactor against cube [wrt]: the cubes
    intersecting [wrt], each cofactored. The result represents the
    function restricted to the subspace of [wrt]. *)
val cofactor : t -> wrt:Cube.t -> t

(** [single_cube_containment t] removes every cube contained in another
    cube of [t]. *)
val single_cube_containment : t -> t

(** [tautology t] decides whether [t] covers the whole space. *)
val tautology : t -> bool

(** [covers_cube t c] decides whether cube [c]'s minterms are all covered
    by [t]. *)
val covers_cube : t -> Cube.t -> bool

(** [covers a b] decides whether every minterm of [b] is in [a]. *)
val covers : t -> t -> bool

(** [equivalent a b] decides extensional equality of the two functions. *)
val equivalent : t -> t -> bool

(** [complement t] is a cover of the complement of [t] w.r.t. the whole
    space, computed by unate-style recursion with merging. *)
val complement : t -> t

(** [complement_within t ~space] is a cover of [space AND NOT t]. *)
val complement_within : t -> space:Cube.t -> t

(** [diff a b] is a cover of [a AND NOT b]: each cube of [a] met by no
    cube of [b] is kept as is, the others are split with
    [complement_within]. *)
val diff : t -> t -> t

(** [supercube t] is the smallest single cube containing every cube,
    or [None] for the empty cover. *)
val supercube : t -> Cube.t option

(** [contains_minterm t m] evaluates the function at minterm [m] (one
    value per variable). *)
val contains_minterm : t -> int array -> bool

(** [num_minterms t] is the exact number of minterms covered (inclusion-
    exclusion-free: computed by recursive disjoint decomposition; intended
    for small spaces such as test domains). *)
val num_minterms : t -> int

val pp : Format.formatter -> t -> unit
