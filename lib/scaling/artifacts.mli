(** The point-sample artifacts of [nova bench MODE], beside {!Report}'s
    scaling grid. Each mode runs its machines (default {!machines}),
    prints one progress line per row on the formatter and returns the
    artifact for {!Trace.write_atomic}. Rows keep the identity fields
    ([name], [mode], [algorithm]) [nova bench-diff] matches on. *)

val machines : quick:bool -> Fsm.t list
(** lion, dk15, bbara, ex2, dk16 and a generated 40-state machine; the
    full set adds keyb, styr, sand, planet and an 80-state one instead. *)

val espresso : ?machines:Fsm.t list -> quick:bool -> Format.formatter -> Json_min.t
(** [nova-bench-espresso/v1]: ESPRESSO on a fixed encoding, with the
    kernel block of {!Harness.Telemetry.instrument_block}. *)

val pipeline : ?machines:Fsm.t list -> quick:bool -> Format.formatter -> Json_min.t
(** [nova-bench-pipeline/v1]: ihybrid unlimited and iexact under a 50 ms
    deadline, with the producing rung, degradations and stage sections. *)

val check : ?machines:Fsm.t list -> quick:bool -> Format.formatter -> Json_min.t
(** [nova-bench-check/v1]: ihybrid, igreedy, iohybrid and iexact results
    certified by the independent checker. *)

val parallel :
  ?machines:Fsm.t list -> quick:bool -> jobs:int -> Format.formatter -> Json_min.t
(** [nova-bench-parallel/v1]: the portfolio sequentially, on [jobs]
    domains, bare and supervised, and cold then warm against a fresh
    cache. *)

val fixed : int -> float -> Json_min.t
(** [fixed digits f] is [f] rounded to [digits] decimals: the artifacts'
    resolution for walls (6) and ratios (4). *)

val timed : (unit -> 'a) -> 'a * float
(** The result and its wall-clock seconds. *)

val with_temp_dir : string -> (string -> 'a) -> 'a
(** [with_temp_dir prefix f] runs [f] on a fresh private directory and
    removes it, with everything inside, however [f] exits. *)
