(** Encoded (binary) PLA implementation of an FSM under a state encoding.

    The domain has one binary variable per primary input, one per state
    bit, and a final multiple-valued output variable whose parts are the
    next-state bits followed by the binary outputs — the standard
    multiple-output PLA personality. The paper's area model is

    {v area = (2*(#inputs + #bits) + #bits + #outputs) * #cubes v} *)

open Logic

type t = {
  machine : Fsm.t;
  encoding : Encoding.t;
  dom : Domain.t;
  on : Cover.t;  (** one cube per row asserting a next-state bit or output *)
  off : Cover.t;  (** exactly [¬(on ∪ dc t)], built from the rows' 0 entries *)
  care : Cover.t;  (** the on-set points no don't-care covers *)
}

(** [domain m ~nbits] is the PLA domain of [m] under an [nbits]-bit
    encoding: one binary variable per input and per code bit, then the
    output variable with [nbits + #outputs] parts. *)
val domain : Fsm.t -> nbits:int -> Domain.t

(** [build m e] encodes the transition table of [m] with [e]. Nothing is
    complemented: [off] is each row's 0 entries minus what another row
    asserts or leaves free (see {!Personality.sets}). *)
val build : Fsm.t -> Encoding.t -> t

(** [dc t] is the full don't-care cover — the region matched by no row
    (including unused state codes), rows with unspecified next states,
    and ['-'] output entries — computed from the rows with a complement,
    independently of [t.off]. For tests and certification ground truth;
    ESPRESSO never needs it. *)
val dc : t -> Cover.t

(** [minimize t] is the ESPRESSO-minimized encoded cover, from [t.off]
    and [t.care] ({!Espresso.minimize_off}): the same cube list
    [Espresso.minimize ~dc:(dc t) t.on] returns. An exhausted
    [budget] interrupts the minimizer, which degrades to a less-minimized
    (but still correct) cover — see {!Espresso.minimize}. *)
val minimize : ?budget:Budget.t -> t -> Cover.t

(** [area ~machine ~encoding ~num_cubes] is the paper's PLA area model. *)
val area : machine:Fsm.t -> encoding:Encoding.t -> num_cubes:int -> int

type result = { cover : Cover.t; num_cubes : int; area : int }

(** [implement m e] is [build] + [minimize] + the area figures. *)
val implement : ?budget:Budget.t -> Fsm.t -> Encoding.t -> result

(** [eval t cover ~input ~code] evaluates the minimized [cover] at the
    fully specified [input] pattern and present-state [code], returning
    [(next_code, outputs)] where [outputs.(j)] is output [j]. *)
val eval : t -> Cover.t -> input:string -> code:int -> int * bool array
