(** State encodings: an assignment of distinct binary codes to the states
    of a machine. Bit [b] of a code is [(code lsr b) land 1]. *)

type t = private { nbits : int; codes : int array }

(** [make ~nbits codes] validates: every code fits in [nbits] bits and
    codes are pairwise distinct. Raises [Invalid_argument] otherwise. *)
val make : nbits:int -> int array -> t

(** [ceil_log2 n] is the least [k] with [2^k >= n] (0 for [n <= 1]). *)
val ceil_log2 : int -> int

(** [min_code_length n] is [ceil_log2 n], at least 1: the fewest bits
    that give [n] states distinct codes. *)
val min_code_length : int -> int

(** [num_states e] is the number of encoded states. *)
val num_states : t -> int

(** [code e s] is the code of state [s]. *)
val code : t -> int -> int

(** [one_hot n] is the 1-hot encoding of [n] states ([n] bits). *)
val one_hot : int -> t

(** [random rng ~num_states ~nbits] draws distinct random codes. *)
val random : Random.State.t -> num_states:int -> nbits:int -> t

(** [bit e s b] is bit [b] of the code of state [s]. *)
val bit : t -> int -> int -> int

(** [used_codes e] is the sorted list of codes in use. *)
val used_codes : t -> int list

(** [code_string e s] is the code of state [s] as an [nbits]-character
    binary string, most significant bit first. *)
val code_string : t -> int -> string
