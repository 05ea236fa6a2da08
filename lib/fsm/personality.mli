(** The on-, off- and don't-care sets of a transition table's PLA
    personality, shared by {!Encoded} and {!Symbolic}.

    A domain here starts with one binary variable per primary input and
    ends with the output variable, whose parts are the next-state
    columns followed by the binary outputs. Each transition row is a
    base cube (its input and present-state fields) and an output plane:
    one character per output part, ['1'] asserted, ['-'] free, anything
    else 0. *)

open Logic

type row

(** [base dom input] is the cube of input pattern [input] over the
    leading binary variables, with every other field full except the
    output field, which is empty. The caller narrows the present-state
    field. *)
val base : Domain.t -> string -> Cube.t

(** [row base plane] is a row with base cube [base] and output plane
    [plane]. *)
val row : Cube.t -> string -> row

(** [zeros dom rows keep] has one cube per row with a 0 entry on some
    output part [p] with [keep p]: the row's base with exactly those
    parts asserted, in row order. *)
val zeros : Domain.t -> row list -> (int -> bool) -> Cover.t

(** The sets ESPRESSO needs, none built from a complement of the whole
    space: [on] has one cube per row asserting some part, [off] is
    exactly [¬(on ∪ dc)] — each row's 0 cube minus the on and free cubes
    of the rows that meet it — and [care] is [on] minus the rows' free
    cubes, the on-set points no don't-care covers. *)
type sets = { on : Cover.t; off : Cover.t; care : Cover.t }

val sets : Domain.t -> row list -> sets

(** [dc dom rows] is the full don't-care cover: the rows' free cubes plus
    the complement of the rows' projections (the region no row matches,
    unused codes included). Computed from the rows alone, never from
    [off]. *)
val dc : Domain.t -> row list -> Cover.t
