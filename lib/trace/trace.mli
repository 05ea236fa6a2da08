(** Structured tracing: explicit Begin/End spans forming a per-run span
    tree, one track per domain, typed attributes with inheritance from
    the enclosing span, and lossless Chrome-trace / JSONL exporters.

    Default-off. While disabled every probe is a load and a branch and
    nothing is allocated; tracing never writes to stdout, so traced and
    untraced runs produce byte-identical standard output. *)

(** Typed attribute values carried by spans and instant events. *)
type value = String of string | Int of int | Float of float | Bool of bool

type attrs = (string * value) list

type kind = Begin | End | Instant

(** One buffered event. [ts] is microseconds since [enable], clamped to
    be non-decreasing within a track; [track] is the emitting domain's
    integer id. *)
type event = { kind : kind; name : string; ts : float; track : int; attrs : attrs }

val enable : unit -> unit
(** Start tracing: resets the clock origin and marks the calling
    domain's track as "main". Also switched on by NOVA_TRACE=1. *)

val disable : unit -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all buffered events, track state and metadata. *)

val event_count : unit -> int

val with_span : ?attrs:attrs -> ?end_attrs:('a -> attrs) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a Begin/End pair on the calling
    domain's track. Exception-safe. The span inherits (and may override)
    the attributes of the enclosing span on the same track; [end_attrs]
    of the result (sizes, verdicts, budget spent) ride on the End event.
    Code outside this library times its sections with [Metrics.span],
    which calls this. *)

val instant : ?attrs:attrs -> string -> unit
(** A point event (degradation, budget trip, cache hit, race win...),
    inheriting the open span's attributes. *)

val set_meta : attrs -> unit
(** Merge key/values into the run manifest ("trace-meta") embedded in
    every export: machine, options fingerprint, code version, jobs,
    totals. Later writes to the same key win. *)

val temp_path : string -> string
(** [temp_path path] is a fresh temp-file name beside [path]:
    [<path>.tmp.<pid>.<n>], [n] from a per-process atomic counter, so no
    two writers in any thread or domain of one process share it. The
    temp name of every atomic writer: {!write_atomic}, the exports and
    the result cache. *)

val write_atomic : path:string -> Json_min.t -> unit
(** [write_atomic ~path v] writes [v] as one JSON line to a temp file
    beside [path], then renames it over [path]: readers never see half a
    file. The writer of every JSON artifact: [BENCH_*.json], flight
    dumps, Chrome traces. @raise Sys_error on I/O failure. *)

val export_chrome : path:string -> unit -> unit
(** Write the buffer as Chrome trace-event JSON (Perfetto /
    chrome://tracing), atomically (tmp + rename). *)

val export_jsonl : path:string -> unit -> unit
(** Write the buffer as an append-only JSONL event log (first line is
    the run manifest), atomically (tmp + rename). *)

val export : path:string -> unit -> unit
(** Dispatch on extension: [.jsonl] → {!export_jsonl}, anything else →
    {!export_chrome}. *)
