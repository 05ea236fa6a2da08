(** KISS2 state-transition-table format.

    The format read and written here is the MCNC benchmark format the
    paper's flow consumes:

    {v
    .i 2
    .o 1
    .s 4
    .p 8
    .r st0
    01 st0 st1 0
    ...
    .e
    v}

    Present state ['*'] (any state) and next state ['-'] (unspecified) are
    accepted. *)

(** A parse failure with its location. [line] and [col] are 1-based;
    either is 0 when unknown (e.g. whole-file complaints such as a
    missing [.i] declaration). *)
type error = { file : string; line : int; col : int; msg : string }

exception Parse_error of error

(** [error_to_string e] is the conventional ["file:line:col: msg"]. *)
val error_to_string : error -> string

(** [parse ~name ?file text] parses the KISS2 [text]. State names are
    collected in order of first appearance when no [.s]-declared order is
    implied. [file] (default ["<input>"]) only labels error locations.
    Raises [Parse_error] on malformed input — truncated directives,
    any dot-directive other than [.i .o .p .s .r .e .end] (the error
    names it; [.symbolic input] among them), rows with the wrong field
    count, duplicate [.r] declarations,
    count mismatches against [.p]/[.s], unknown reset states. *)
val parse : name:string -> ?file:string -> string -> Fsm.t

(** [parse_result ~name ?file text] is [parse] returning the error as a
    value instead of raising. *)
val parse_result : name:string -> ?file:string -> string -> (Fsm.t, error) result

(** [print ppf m] writes [m] back in KISS2 syntax. *)
val print : Format.formatter -> Fsm.t -> unit

(** [to_string m] is [print] to a string. *)
val to_string : Fsm.t -> string
