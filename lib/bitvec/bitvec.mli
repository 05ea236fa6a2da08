(** Fixed-length dense bit vectors.

    A [Bitvec.t] is an immutable-by-convention vector of [length t] bits
    backed by an [int array]. All binary operations require operands of
    equal length and raise [Invalid_argument] otherwise. Functions ending
    in [_into] mutate their first argument and are used only in inner
    loops of the logic kernel. *)

type t

(** Number of bits stored per backing word ([Sys.int_size]). *)
val bits_per_word : int

(** [create n] is a vector of [n] zero bits. *)
val create : int -> t

(** [length t] is the number of bits of [t]. *)
val length : t -> int

(** [copy t] is a fresh vector equal to [t]. *)
val copy : t -> t

(** [get t i] is bit [i]; raises [Invalid_argument] if out of range. *)
val get : t -> int -> bool

(** [set t i] sets bit [i] in place. *)
val set : t -> int -> unit

(** [clear t i] clears bit [i] in place. *)
val clear : t -> int -> unit

(** [full n] is a vector of [n] one bits. *)
val full : int -> t

(** [equal a b] is structural equality of the bit contents. *)
val equal : t -> t -> bool

(** [compare a b] is a total order consistent with [equal]. *)
val compare : t -> t -> int

(** [hash t] is a hash consistent with [equal]. *)
val hash : t -> int

(** Hash tables keyed by bit vectors under [equal]/[hash]: no string is
    built per lookup, unlike a table keyed by {!to_string}. Its fold
    order follows [hash], so a [to_string]-keyed table whose fold order
    reaches results cannot be swapped for it without changing that
    order. *)
module Tbl : Hashtbl.S with type key = t

(** [is_empty t] is true iff no bit is set. *)
val is_empty : t -> bool

(** [is_full t] is true iff all bits are set. *)
val is_full : t -> bool

(** [inter a b] is the bitwise AND of [a] and [b]. *)
val inter : t -> t -> t

(** [union a b] is the bitwise OR of [a] and [b]. *)
val union : t -> t -> t

(** [diff a b] is [a AND NOT b]. *)
val diff : t -> t -> t

(** [complement t] flips every bit of [t]. *)
val complement : t -> t

(** [subset a b] is true iff every bit of [a] is set in [b]. *)
val subset : t -> t -> bool

(** [disjoint a b] is true iff [inter a b] is empty. *)
val disjoint : t -> t -> bool

(** [cardinal t] is the number of set bits. *)
val cardinal : t -> int

(** [inter_into dst src] stores [inter dst src] into [dst]. *)
val inter_into : t -> t -> unit

(** [union_into dst src] stores [union dst src] into [dst]. *)
val union_into : t -> t -> unit

(** [iter f t] applies [f] to the index of every set bit, ascending. *)
val iter : (int -> unit) -> t -> unit

(** [fold f acc t] folds [f] over the indices of set bits, ascending. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [to_list t] is the ascending list of set-bit indices. *)
val to_list : t -> int list

(** [of_list n l] is the [n]-bit vector with exactly the bits in [l] set. *)
val of_list : int -> int list -> t

(** [first_set t] is the lowest set-bit index, or [None] if empty. *)
val first_set : t -> int option

(** [range_full t lo len] is true iff bits [lo..lo+len-1] are all set. *)
val range_full : t -> int -> int -> bool

(** [range_empty t lo len] is true iff bits [lo..lo+len-1] are all clear. *)
val range_empty : t -> int -> int -> bool

(** [range_cardinal t lo len] counts set bits among [lo..lo+len-1]. *)
val range_cardinal : t -> int -> int -> int

(** [popcount_word w] counts the set bits of a raw word; exposed for the
    test suite to cross-check the SWAR implementation. *)
val popcount_word : int -> int

(** [word t i] is the raw [i]-th backing word. With [bits_per_word] and
    precomputed masks this lets the cube layer run field tests without
    per-call index arithmetic. *)
val word : t -> int -> int

(** [or_word t i m] ORs mask [m] into the [i]-th backing word in place. *)
val or_word : t -> int -> int -> unit

(** [set_range t lo len] sets bits [lo..lo+len-1] in place. *)
val set_range : t -> int -> int -> unit

(** [clear_range t lo len] clears bits [lo..lo+len-1] in place. *)
val clear_range : t -> int -> int -> unit

(** [pp ppf t] prints [t] as a 0/1 string, bit 0 leftmost. *)
val pp : Format.formatter -> t -> unit

(** [to_string t] is the 0/1 rendering of [pp], byte for byte, built
    without a formatter. Several tables are keyed by it whose iteration
    order reaches results (the cube order of [Cover.merge_on_var], the
    constraint order of [Constraints.of_cover] and [Symbmin], the cache
    serializer), so its bytes must never change. *)
val to_string : t -> string

(** [of_string s] parses a 0/1 string, bit 0 leftmost. *)
val of_string : string -> t
