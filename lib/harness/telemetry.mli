(** The registry, read back as the per-run blocks of the bench
    artifacts. Callers {!Metrics.Registry.reset} before the run they
    describe. *)

val instrument_block : unit -> Json_min.t
(** The [instrument] block of a [BENCH_espresso.json] row:
    [{"counters": {EVENT: n}, "timers": {SPAN: {"seconds", "calls"}}}]
    over the events of the two-level kernels and the face embedding
    ([logic.*], [espresso.*], [embed.*]) and the sections of those
    kernels plus the driver's fixed ones ([driver.*],
    [pipeline.constraints], [pipeline.symbolic-min]). *)

val pipeline_stages : unit -> Json_min.t
(** The [stages] of a [BENCH_pipeline.json] row: every [pipeline.*]
    section and [espresso.minimize], as [{"name", "seconds", "calls"}]. *)
