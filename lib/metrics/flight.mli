(** The flight recorder: a fixed-size ring of the last N request
    records, dumped as a JSON artifact on crash, on shutdown, or on
    demand — the forensic record a wedged or chaos-overwhelmed daemon
    leaves behind. The same record, in the same rendering
    ({!entry_json}), is the daemon's access-log line.

    Recording takes a mutex (the entry copy is a few words, and the
    recorder sits after the response is written, off the latency
    path). Dumps are atomic: tmp file + rename, the repo-wide artifact
    idiom. *)

(** One request record. [tier] is the serve origin (computed / cached
    / coalesced, or "none" for bare verbs); [code] is the CLI exit
    code the outcome maps to (0 when [ok]). *)
type entry = {
  seq : int;  (** the request id: assigned by the ring, monotone, never reused *)
  at : float;  (** Unix.gettimeofday at completion *)
  verb : string;
  machine : string;
  algorithm : string;
  tier : string;
  wall_ms : float;
  ok : bool;
  code : int;
  error : string;  (** first line of the error, "" when [ok] *)
  spent : int;  (** budget work behind the answer (a follower's is its leader's) *)
}

type t

val create : int -> t
(** [create capacity] — the ring keeps the last [capacity] entries
    (at least 1). *)

val capacity : t -> int

val record : ?sink:(entry -> unit) -> t -> entry -> unit
(** Append, overwriting the oldest entry once full. The [seq] field of
    the recorded copy is assigned by the ring (callers leave it 0).
    [sink] gets the recorded copy under the ring's lock, so sinks see
    entries in [seq] order. *)

val recorded : t -> int
(** Total entries ever recorded (>= length of {!entries}). *)

val entries : t -> entry list
(** Current contents, oldest first. *)

val entry_json : entry -> Json_min.t
(** [{"seq":…,"at":…,"id":…,"verb":…,"machine":…,"algorithm":…,
     "tier":…,"wall_ms":…,"ok":…,"code":…,"error":…,"spent":…}];
    ["id"] repeats [seq]. *)

val to_json : ?reason:string -> t -> Json_min.t
(** [{"schema":"nova-flightrec/v1","reason":…,"capacity":…,
     "recorded":…,"entries":[…oldest first…]}]. [reason] says why the
    dump happened ("shutdown", "crash", "request"). *)

val dump : ?reason:string -> path:string -> t -> unit
(** Write {!to_json} to [path] atomically (tmp + rename). Best-effort:
    IO errors are swallowed — the dump must never take the daemon down
    with it. *)
