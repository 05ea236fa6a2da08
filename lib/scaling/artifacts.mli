(** The point-sample artifacts of [nova bench MODE], beside {!Report}'s
    scaling grid, and the serve tiers. Each mode runs its machines (default {!machines}),
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
    cache. Its ["gates"] array holds this run's two wall gates, each
    [{"gate", "value_s", "limit_s", "slack", "pass"}] with [pass]
    decided by {!Bench_diff.wall_regressed}: [pool_vs_sequential]
    ([par_wall_s] against [seq_wall_s], slack 0.30) and
    [supervised_vs_bare] (the supervised wall against the bare one,
    slack 0.25). *)

val serve : machine:string -> clients:int -> Format.formatter -> (Json_min.t, string) result
(** [nova-bench-serve/v1]: the daemon's three latency tiers for an
    ihybrid encode of the built-in [machine], against in-process
    servers whose sockets and fresh cache live in a private temporary
    directory: cold compute, certified cache hit (timed again with the
    metrics registry off, for the overhead ratio) and the per-request
    share of [clients] identical concurrent requests coalesced onto one
    computation. Its ["gates"] array holds three wall gates in the
    [parallel] format: [warm_vs_cold] and [coalesced_vs_cold] (the tier
    against a fifth of the recorded cold wall) and [metered_vs_bare],
    each with slack 0.25. Prints one summary line. [Error] names an
    unknown machine (before any file is made) or a request that
    failed. *)

val fixed : int -> float -> Json_min.t
(** [fixed digits f] is [f] rounded to [digits] decimals: the artifacts'
    resolution for walls (6) and ratios (4). *)

val timed : (unit -> 'a) -> 'a * float
(** The result and its wall-clock seconds. *)

val with_temp_dir : string -> (string -> 'a) -> 'a
(** [with_temp_dir prefix f] runs [f] on a fresh private directory and
    removes it, with everything inside, however [f] exits. *)
