(* What one workload run hands back to the front end, and the JSON line
   the front end ends with. *)

(* The timed phase. A workload's population is a fixed list of op slots,
   each the same work on every pass, and the run repeats whole passes
   until its time is up. A slot's latency is the lowest of its repeats:
   other tenants of a shared host only ever add time, and over a run each
   slot meets at least one quiet moment, where a median would follow the
   host's load. *)
type timing = {
  best : float array;  (** per op slot, its lowest latency over the repeats, seconds *)
  best_pass_s : float;
      (** one pass at each step's lowest duration: the summed [best] for one
          caller, the summed time of each lockstep pair until both its
          replies are in when two connections send *)
  latencies : float list;  (** every timed op, seconds, in the order run *)
  passes : int;
  timed_s : float;
      (** wall time of the timed phase: the ops and the checks between
          them, without the set-ups run in it *)
}

type t = {
  inputs : int;  (** distinct inputs in the workload's population *)
  digest : string;  (** of the seeded input list *)
  attempted : int;  (** timed ops *)
  failures : string list;  (** one line per failed op or hygiene check, naming its input *)
  timing : timing;
  setups : float list;  (** seconds, one per set-up *)
  pla_area_total : int;
  product_terms_total : int;
  peak_rss_mb : float;
  trace : (Spans.t * (string * float) list) option;
      (** the traced replay, with the per-layer metrics the workload
          measured outside it; [None] when untraced *)
  notes : string list;  (** extra lines for the human-readable summary *)
}

let num v = Json_min.Num v

(* The last line of a run: exactly the keys correct, attempted, failed
   and metrics, each metric as {"value": v, "unit": u}. *)
let json_line ~correct ~attempted ~failed metrics =
  Json_min.render
    (Json_min.Obj
       [
         ("correct", Json_min.Bool correct);
         ("attempted", num (float_of_int attempted));
         ("failed", num (float_of_int failed));
         ( "metrics",
           Json_min.Obj
             (List.map
                (fun (name, v) ->
                  ( name,
                    Json_min.Obj [ ("value", num v); ("unit", Json_min.Str (Spec.unit_of name)) ] ))
                metrics) );
       ])
