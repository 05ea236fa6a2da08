(** Baseline state-assignment programs the paper compares against.

    - [kiss_encode]: KISS [9] guarantees satisfaction of {e all} input
      constraints with a heuristic that does not always achieve the
      minimum necessary code length. Re-implemented here as constraint
      accretion at the minimum length followed by projection into as many
      extra dimensions as satisfaction requires.
    - [mustang_encode]: MUSTANG [12] maximizes common-cube sharing in the
      encoded network by building a state-pair attraction graph (fan-out
      or fan-in oriented, optionally weighting output agreement) and
      embedding it greedily in the hypercube, minimizing weighted Hamming
      distance. Used for the two-level and multilevel comparisons of
      Table VII. *)

(** [kiss_encode ~num_states ics] returns an encoding satisfying every
    constraint in [ics] (possibly longer than the minimum length) and the
    number of bits used. It never runs out of budget: its accretion
    search ticks a fresh root of its own. *)
val kiss_encode :
  num_states:int -> ?max_work:int -> Constraints.input_constraint list -> Encoding.t

type mustang_flavor =
  | Fanout  (** [-n]: attraction between present states with common
                behaviour (same next state, same asserted outputs) *)
  | Fanin  (** [-p]: attraction between next states reached from common
               present states *)

(** [mustang_encode m ~flavor ~include_outputs ~nbits] builds the
    attraction graph and embeds it greedily. [include_outputs] adds the
    output-agreement term ([-pt]/[-nt] options of the paper). *)
val mustang_encode :
  Fsm.t -> flavor:mustang_flavor -> include_outputs:bool -> nbits:int -> Encoding.t

(** [mustang_attractions m ~flavor ~include_outputs] exposes the weight
    matrix for tests. *)
val mustang_attractions :
  Fsm.t -> flavor:mustang_flavor -> include_outputs:bool -> int array array
