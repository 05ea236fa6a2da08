(** Simulation and equivalence checking.

    Drives a machine over input traces and cross-checks the symbolic
    machine against its encoded two-level implementation — the
    correctness oracle for a state assignment: whatever the codes, the
    minimized PLA must realize every specified transition and output.

    {!check_cover} walks every (state, input minterm), so it is
    exponential in the input count. Certification does not call it:
    [Check]'s trace-equivalence decides the same question exactly on
    first-match row cubes, at any input width. The walker lives beside
    the tests as that check's oracle, the way [Cover_naive] does for the
    fast cover kernel.

    {2 Don't-care comparison policy}

    The equivalence checks compare the encoded implementation against the
    transition table under the same don't-care semantics {!Encoded.build}
    uses to emit the PLA's DC-set; a point the table leaves unspecified
    never counts as a mismatch:

    - an output entry ['-'] leaves that output bit free — the
      implementation may produce either value there;
    - an unspecified next state (KISS ["-"], [dst = None]) leaves the
      {e entire} next-state field free — the next code is not compared;
    - a (state, input) pair matched by no row is completely free — the
      step is skipped;
    - a present-state ['*'] row ([src = None]) applies in {e every}
      state, including states with no other rows;
    - unreachable states are still checked: every state of the table gets
      a present-state code, so its specified rows must be realized even
      if no trace reaches it;
    - machines with zero outputs compare next codes only.

    Rows are matched first-match-first like {!Fsm.next}. The table is
    assumed deterministic: when two overlapping rows disagree, the
    encoded PLA realizes the {e union} of their asserted bits while the
    checker follows the first row, so a conflicting table can be reported
    as a mismatch — that is a specification bug, not an encoding bug. *)

(** One simulation step outcome. *)
type step = {
  input : string;
  state_before : int;
  state_after : int option;  (** [None] once behaviour became unspecified *)
  outputs : string;  (** as specified by the table, ['-'] kept *)
}

(** [run m ~from trace] drives [m] over the fully specified input strings
    of [trace], stopping early when behaviour becomes unspecified. *)
val run : Fsm.t -> from:int -> string list -> step list

(** Result of an equivalence check. *)
type verdict =
  | Equivalent
  | Mismatch of { state : int; input : string; detail : string }

(** [check_cover enc cover] verifies exhaustively (over every state and
    every input minterm; requires [num_inputs <= 16]) that [cover] —
    interpreted over [enc]'s domain — realizes every specified transition
    and output bit of [enc]'s machine under [enc]'s encoding. Unlike
    {!check_encoding} it takes the cover as given, so an independent
    checker can verify the exact artifact a pipeline produced instead of
    re-minimizing. *)
val check_cover : Encoded.t -> Logic.Cover.t -> verdict

(** [check_at enc cover ~state ~input] is {!check_cover}'s verdict at
    one point: [state] under the fully specified [input]. *)
val check_at : Encoded.t -> Logic.Cover.t -> state:int -> input:string -> verdict

(** [check_encoding m e] is {!check_cover} on the ESPRESSO-minimized
    implementation of [m] under encoding [e]. *)
val check_encoding : Fsm.t -> Encoding.t -> verdict
