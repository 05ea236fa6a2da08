(** The one telemetry core. {!Registry} is the only store of counters
    and timings; {!Expose} renders it, {!Flight} keeps the last request
    summaries. On top of the registry sit the two probes the rest of
    the tree uses:

    - an {e event} is one series of the [nova_events_total] counter
      family, labeled [event="<dotted name>"] (kernel and executor
      operation counts, bumped with {!Registry.inc} / {!Registry.add});
    - a {e section} is one series of the [nova_span_seconds] histogram
      family, labeled [span="<dotted name>"]: {!span} times a call into
      it and, when tracing is on, also emits the call as a trace span
      under the same name.

    A handle is interned once (a mutexed registry lookup), at module
    initialization for a fixed name; bumping or timing through it is
    lock-free. *)

module Histogram = Histogram
module Registry = Registry
module Expose = Expose
module Flight = Flight

type event = Registry.counter

val event : string -> event
(** [event name] is the [nova_events_total{event=name}] counter. *)

type section

val section : string -> section
(** [section name] is the timed section [name]: the
    [nova_span_seconds{span=name}] histogram plus the span name. *)

val sections : prefix:string -> string list -> string -> section
(** [sections ~prefix names] interns [section (prefix ^ n)] for every
    [n] of the finite set [names] now, and returns the lookup from [n]
    to its section, which takes no lock. A name outside the set is
    interned on first use. *)

val interned : ('k -> 'a) -> 'k -> 'a
(** [interned make] is [make] memoized per key, for a labeled series
    whose label values are only known at the call site: the first call
    with a key interns the series through [make] (a registry lookup,
    which must be idempotent), and every later one reads it back without
    a lock. Nothing is registered before its first use, so no zero
    series appears that the traffic never touched. Safe across domains:
    callers racing on a fresh key may both call [make] and get the same
    series. Keys are compared structurally. *)

val span :
  ?attrs:Trace.attrs -> ?end_attrs:('a -> Trace.attrs) -> section -> (unit -> 'a) -> 'a
(** [span s f] runs [f ()], observing its wall-clock seconds (also when
    it raises) in [s]'s histogram, and brackets it in a trace span
    named after [s] when tracing is on — [attrs] on the Begin event,
    [end_attrs] of the result on the End event. With the registry off
    and tracing off it is [f ()]. *)

val events : unit -> (string * int) list
(** Every registered event with its count, sorted by name. *)

val spans : unit -> (string * Histogram.t) list
(** Every registered section with its histogram (seconds in
    {!Histogram.sum}, calls in {!Histogram.count}), sorted by name. *)
