(** The symbolic (multiple-valued) cover of an FSM's combinational logic.

    The domain has one binary (two-part) variable per primary input, one
    multiple-valued variable whose parts are the present states, and a
    final multiple-valued output variable with one part per next state
    (1-hot) followed by one part per binary output — the positional
    representation on which ESPRESSO-MV style minimization runs
    (Section 2.2 of the paper). *)

open Logic

type t = {
  machine : Fsm.t;
  dom : Domain.t;
  rows : Personality.row list;
      (** one per transition: inputs and present state as the base, the
          1-hot next state and the outputs as the output plane *)
  on : Cover.t;  (** one cube per row asserting a next state or output *)
  off : Cover.t;  (** exactly [¬(on ∪ dc t)], built from the rows' 0 entries *)
  care : Cover.t;  (** the on-set points no don't-care covers *)
  state_var : int;  (** index of the present-state variable *)
  output_var : int;  (** index of the output variable *)
}

(** [of_fsm m] builds the symbolic cover. Nothing is complemented: a
    row's 0 entries are the next-state columns other than its
    destination and its ['0'] outputs (see {!Personality.sets}). *)
val of_fsm : Fsm.t -> t

(** [dc t] is the full don't-care cover — the unspecified (input, state)
    region, rows with unspecified next states, and ['-'] output entries —
    computed from the rows with a complement, independently of [t.off].
    For tests; ESPRESSO never needs it. *)
val dc : t -> Cover.t

(** [num_states t] is the number of parts of the state variable. *)
val num_states : t -> int

(** [minimize t] is the ESPRESSO-MV minimized symbolic cover, from
    [t.off] and [t.care]: the same cube list
    [Espresso.minimize ~dc:(dc t) t.on] returns. An
    exhausted [budget] interrupts the minimizer, which degrades to a
    less-minimized (but still correct) cover — see {!Espresso.minimize}. *)
val minimize : ?budget:Budget.t -> t -> Cover.t

(** [present_states t c] is the set of present states asserted by cube
    [c], as a bit vector over the states. *)
val present_states : t -> Cube.t -> Bitvec.t
