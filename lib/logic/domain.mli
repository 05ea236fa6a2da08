(** Domains of multiple-valued logic functions.

    A domain is an ordered list of multiple-valued variables; variable [v]
    has [size v] parts (possible values). Binary variables are
    two-part variables. In positional cube notation every cube is a bit
    vector of [width] bits, where variable [v] owns the bit range
    [offset v .. offset v + size v - 1]. *)

type t

(** [create sizes] is the domain with [Array.length sizes] variables,
    variable [v] having [sizes.(v)] parts. Every size must be >= 1. *)
val create : int array -> t

(** [num_vars d] is the number of variables. *)
val num_vars : t -> int

(** [size d v] is the number of parts of variable [v]. *)
val size : t -> int -> int

(** [offset d v] is the first bit of variable [v] in the positional
    representation. *)
val offset : t -> int -> int

(** [width d] is the total number of bits of a cube over [d]. *)
val width : t -> int

(** [var_words d v] and [var_masks d v] give the word-level layout of
    variable [v]'s field over [Bitvec]'s words: the field is the union
    over [i] of the bits [var_masks d v .(i)] of word [var_words d v
    .(i)]. Precomputed at [create] so that the innermost cube loops need
    no division; the returned arrays are shared and must not be
    mutated. *)
val var_words : t -> int -> int array

val var_masks : t -> int -> int array

(** [var_word1 d] and [var_mask1 d] are the flat single-word fast path:
    when variable [v]'s field lies in one word, [var_word1 d .(v)] is
    that word's index and [var_mask1 d .(v)] its mask; a field that
    straddles a word boundary has [var_word1 d .(v) = -1] and callers
    fall back to [var_words]/[var_masks]. Shared arrays — do not
    mutate. *)
val var_word1 : t -> int array

val var_mask1 : t -> int array

(** [pair_low d] and [other_vars d] split the variables for word-parallel
    field tests: [pair_low d .(w)] has the low bit of every 2-part field
    that lies in word [w] (its high bit is the next one up), and
    [other_vars d] lists, in increasing order, every variable left out —
    fields of any other size and 2-part fields straddling a word
    boundary. Shared arrays — do not mutate. *)
val pair_low : t -> int array

val other_vars : t -> int array

(** [equal a b] holds iff the two domains have identical variable sizes. *)
val equal : t -> t -> bool

(** [num_minterms d] is the number of points of the product space,
    [prod_v size d v]. Raises [Invalid_argument] on overflow. *)
val num_minterms : t -> int
