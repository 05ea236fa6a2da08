(** The process-wide metrics registry: named counters, gauges and
    latency {!Histogram}s, optionally labeled, read out as one sorted
    snapshot by {!Expose}.

    This registry is the only store of counters and timings in the
    tree and is {e on} by default: an observation is an atomic bump
    with no lock and no allocation, cheap enough to leave enabled on
    every serving path and in the minimizer kernels.
    {!set_enabled} [false] exists for the bench harness, which
    measures the metered-vs-bare difference and gates it in CI.

    Instruments register by [(name, labels)] at first use (a mutex
    guards the tables; re-registration returns the existing
    instrument, so the same logical series can be bumped from several
    call sites). Metric names must match the Prometheus grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*], label names [[a-zA-Z_][a-zA-Z0-9_]*];
    violations raise [Invalid_argument] at registration, never at
    observation time. *)

type labels = (string * string) list
(** Label pairs; stored sorted by label name, so two spellings of the
    same label set are the same series. *)

type counter
type gauge

val set_enabled : bool -> unit
val enabled : unit -> bool

val counter : ?help:string -> ?labels:labels -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?help:string -> ?labels:labels -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?help:string -> ?labels:labels -> string -> Histogram.t

val observe : Histogram.t -> float -> unit
(** [observe h seconds] is {!Histogram.observe} behind the enabled
    flag — the off path is a load and a branch. *)

(** One registered series: its name, sorted labels, and the help text
    of the first registration under that name. *)
type series = { s_name : string; s_labels : labels; s_help : string }

(** Everything registered, each section sorted by (name, labels).
    Histograms are returned live (monotone counters: a concurrent bump
    is at worst an earlier valid state). *)
type snapshot = {
  counters : (series * int) list;
  gauges : (series * float) list;
  histograms : (series * Histogram.t) list;
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered instrument, keeping registrations (tests and
    the bench harness). *)
