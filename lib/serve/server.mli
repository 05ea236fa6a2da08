(** The encode daemon: a long-running server on a Unix-domain socket
    speaking {!Protocol}, with the certified result cache as its hot
    tier and the supervised portfolio as its cold tier.

    {b Request lifecycle}: each connection gets a handler thread;
    each request line is parsed ({!Protocol.parse_request}), passed
    through the [serve] chaos site, and dispatched. [encode]/[report]
    requests resolve their machine, then:

    - a {e plain} request (no [budget_ms]/[max_work] ask) enters the
      in-flight coalescing table ({!Exec.Inflight}) keyed by the job's
      content address — concurrent identical requests share one
      computation, and every requester gets the byte-identical payload.
      The leader takes a compute slot ([max_inflight] gates how many
      computations run at once), consults the cache, else computes
      through {!Exec.Portfolio} (supervision, retry, quarantine intact)
      and stores under the determinism gate. Its 1-hot reference line
      comes from the daemon's {!Onehot_memo} (computed and stored on
      the machine's first plain request);
    - a {e constrained} request (an explicit [budget_ms] or [max_work])
      is computed individually with neither cache read nor write nor
      coalescing nor memo, under [Budget.derive] of its asks and the
      server caps — behaviorally identical to the one-shot CLI with the
      same flags, and immune to serving another request's degradation
      level.

    [encode] and [report] share this one leader rule; only the key and
    the computation differ.

    {b Request record}: each answered line ends as one
    {!Metrics.Flight.entry} (verb, machine, algorithm, tier, wall,
    outcome, exit code, budget spent). It feeds the registry, the
    flight ring, and the access log, whose line is the entry's own
    {!Metrics.Flight.entry_json}. The ring's [seq] is the request id.

    {b Shutdown}: the [shutdown] verb, SIGINT or SIGTERM stop the accept
    loop; in-flight requests drain (bounded), handler reads are
    unblocked, the socket file is unlinked, and the cache directory is
    swept of this process's stale temp files
    ({!Exec.Cache.sweep_own_tmp}) — an interrupted daemon never leaves
    the cache needing a manual fsck.

    {b Tracing}: request handling emits only {e instant} events from
    handler threads (systhreads share one trace track, so spans from
    concurrent threads would interleave); span-emitting work — compute,
    cache recertification, the 1-hot render — runs inside a compute
    slot, serialized when [max_inflight = 1] (the default), so a traced
    serve session exports a valid Perfetto/JSONL artifact. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains for a plain [report]'s portfolio pool *)
  max_inflight : int;  (** concurrent compute slots (not connections) *)
  cap_deadline_ms : float option;  (** per-request admission ceilings... *)
  cap_work : int option;  (** ...each axis the min of cap and ask *)
  cache : Exec.Cache.t option;
  quiet : bool;  (** suppress the stderr banner and shutdown summary *)
  access_log : string option;
      (** append one JSONL line per request, in request-id order: the
          flight entry (seq/id, verb, machine, algorithm, tier, wall,
          outcome/exit code, budget spent) *)
  flight_record : string option;
      (** dump the flight-recorder ring to this path on crash, on
          shutdown, and on each [flightrec] request *)
  flight_capacity : int;  (** flight-ring size (last N requests) *)
}

val default_flight_capacity : int
(** 64 — the default flight-ring size. *)

val default_config : socket_path:string -> config
(** 1 job, 1 compute slot, no caps, no cache, not quiet, no access log,
    no flight-record path, {!default_flight_capacity} ring. *)

(** Counter snapshot of this server instance, as served by the [stats]
    verb. The process-wide view is the registry: per-verb request
    counts, per-tier latency and [nova_inflight_followers_total]. *)
type stats = {
  requests : int;  (** request lines received (malformed included) *)
  served : int;  (** ["ok"] responses *)
  errors : int;  (** ["error"] responses *)
  coalesced : int;  (** requests that shared another request's computation *)
  computed : int;  (** cache misses that reached the portfolio *)
  cache_hits : int;  (** requests answered from the certified cache *)
  inflight_peak : int;  (** max concurrent requests being handled *)
}

(** [run config] binds the socket (refusing when a live server already
    listens there, replacing a stale socket file otherwise) and serves
    until shutdown. Returns [Ok ()] on clean shutdown, [Error] when the
    socket cannot be bound. The final counter snapshot is in
    {!last_stats}. *)
val run : config -> (unit, Nova_error.t) result

(** [last_stats ()] is the counter snapshot of the most recent {!run}
    (live while one is running) — for tests that drive an in-process
    server. *)
val last_stats : unit -> stats
