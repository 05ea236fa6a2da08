(** Finite state machines as state transition tables.

    A machine has [num_inputs] binary primary inputs, [num_outputs] binary
    primary outputs, and a set of named symbolic states. Each transition
    row maps an input cube and a present state to a next state and an
    output pattern, exactly like a row of a KISS2 file. *)

type transition = {
  input : string;  (** over ['0'], ['1'], ['-']; length [num_inputs] *)
  src : int option;  (** present state, [None] when the row applies to any state *)
  dst : int option;  (** next state, [None] when unspecified *)
  output : string;  (** over ['0'], ['1'], ['-']; length [num_outputs] *)
}

type t = private {
  name : string;
  num_inputs : int;
  num_outputs : int;
  states : string array;
  transitions : transition list;
  reset : int option;
}

(** [create ~name ~num_inputs ~num_outputs ~states ~transitions ?reset ()]
    validates and builds a machine. Raises [Invalid_argument] when a row
    has the wrong field width, an unknown state index, or a bad
    character. *)
val create :
  name:string ->
  num_inputs:int ->
  num_outputs:int ->
  states:string array ->
  transitions:transition list ->
  ?reset:int ->
  unit ->
  t

(** [num_states m] is the number of symbolic states. *)
val num_states : m:t -> int

(** [state_index m name] is the index of the state called [name]. *)
val state_index : t -> string -> int option

(** [min_code_length m] is [ceil (log2 (num_states m))], at least 1: the
    minimum number of encoding bits. *)
val min_code_length : t -> int

type stats = {
  stat_name : string;
  stat_inputs : int;
  stat_outputs : int;
  stat_states : int;
  stat_products : int;  (** number of transition rows *)
}

(** [stats m] is the Table-I style statistics record of [m]. *)
val stats : t -> stats

(** [next m ~input ~src] simulates one step: the first row matching the
    fully-specified [input] string in state [src]. [None] when the
    behaviour is unspecified. The output pattern keeps ['-'] for
    unspecified output bits. *)
val next : t -> input:string -> src:int -> (int option * string) option

