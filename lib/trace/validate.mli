(** Well-formedness checks over exported traces (both formats), shared
    by scripts/validate_trace and the test suite: balanced Begin/End
    per track under stack discipline, per-track monotone timestamps,
    machine/algorithm attributes on every span, and a run manifest
    naming the code version. *)

type span_tree = {
  span_name : string;
  span_attrs : Trace.attrs;
  start_ts : float;
  end_ts : float;
  children : span_tree list;
}

type report = {
  errors : string list;
  num_events : int;
  num_spans : int;
  num_instants : int;
  num_tracks : int;
  roots : (int * span_tree list) list;
}

val ok : report -> bool

val decode_file : string -> Trace.event list * Trace.attrs
(** Decode either export format ([.jsonl] → event log, otherwise Chrome
    trace JSON) into the event stream and the run manifest.
    @raise Json_min.Parse_error on malformed input. *)

val check : Trace.event list * Trace.attrs -> report

val check_file : string -> report

val summary : report -> string
