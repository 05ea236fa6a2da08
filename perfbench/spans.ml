(* The traced run's in-memory trace: spans around the benchmark's calls
   into each layer, per-op counts, and the arithmetic that turns them
   into self times.

   A span's parent is the span whose interval its work belongs to. Most
   parents are lexical (the enclosing [record]); a probe is the
   exception. [Harness.Driver.encode] runs constraint extraction and
   symbolic minimization internally when its ladder needs them,
   [Exec.Cache.find] recertifies internally and [Exec.Cache.store]
   certifies before it writes, so the benchmark times those layers by
   calling them a second time, after the op, and files the probe under
   the span that repeats its work. The parent's self time then excludes
   the probe: nova's search is encode minus constraints and symbmin,
   the cache's own I/O is find or store minus certify. Probes run outside the op
   root, so they never count as the op's own (unattributed) time. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int option;
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;
  mutable counts : (int * string * float) list;
  mutable pending : (unit -> unit) list;
}

let make enabled =
  { enabled; next_id = 0; stack = []; spans = []; counts = []; pending = [] }

let create () = make true

(* The recorder of untraced runs: every call runs its function and
   records nothing, and probes never run. *)
let off = make false

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ?id ?parent ~op name f =
  if not t.enabled then f ()
  else begin
    let id = match id with Some i -> i | None -> fresh_id t in
    let parent =
      match parent with
      | Some _ -> parent
      | None -> ( match t.stack with p :: _ -> Some p | [] -> None)
    in
    let saved = t.stack in
    t.stack <- id :: saved;
    let t0 = Unix.gettimeofday () in
    let finish () =
      t.stack <- saved;
      t.spans <- { id; name; op; parent; t0; t1 = Unix.gettimeofday () } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span whose interval was measured elsewhere (a check's own
   [span_s]), filed under [parent]. *)
let add t ~parent ~op name ~t0 ~t1 =
  if t.enabled then
    t.spans <- { id = fresh_id t; name; op; parent = Some parent; t0; t1 } :: t.spans

let count t ~op name v = if t.enabled then t.counts <- (op, name, v) :: t.counts

let probe t f = if t.enabled then t.pending <- f :: t.pending

let run_probes t =
  let ps = List.rev t.pending in
  t.pending <- [];
  List.iter (fun f -> f ()) ps

let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the durations of the spans filed
   under it. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace children p
            (duration s +. Option.value (Hashtbl.find_opt children p) ~default:0.)
      | None -> ())
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.))
    spans

(* Per op, the summed [value] of the spans called [names]; ops where
   none ran are absent. *)
let per_op ~value names spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, v) ->
      if List.mem s.name names then
        Hashtbl.replace tbl s.op (v +. Option.value (Hashtbl.find_opt tbl s.op) ~default:0.))
    (List.map (fun (s, self) -> (s, value s self)) (self_times spans));
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let self_per_op names spans = per_op ~value:(fun _ self -> self) names spans
let duration_per_op names spans = per_op ~value:(fun s _ -> duration s) names spans

(* The share of root-span time no child span accounts for. Every layer
   span hangs below a root, so 1 minus this share is the sum of layer
   self times over end-to-end op time. *)
let unattributed_share spans =
  let own, total =
    List.fold_left
      (fun (own, total) (s, self) ->
        if s.parent = None then (own +. self, total +. duration s) else (own, total))
      (0., 0.) (self_times spans)
  in
  if total > 0. then own /. total else 0.

(* The durations of the root spans called [name], in recording order:
   each op's own time, without the probes that ran after it. *)
let root_durations name t =
  List.filter_map
    (fun s -> if s.parent = None && s.name = name then Some (duration s) else None)
    (spans t)

let counts_per_op name t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (op, n, v) ->
      if n = name then
        Hashtbl.replace tbl op (v +. Option.value (Hashtbl.find_opt tbl op) ~default:0.))
    t.counts;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* One JSON object per span, for the file the traced run leaves. *)
let to_jsonl oc t =
  List.iter
    (fun s ->
      output_string oc
        (Json_min.render
           (Json_min.Obj
              [
                ("id", Json_min.Num (float_of_int s.id));
                ("name", Json_min.Str s.name);
                ("op", Json_min.Num (float_of_int s.op));
                ( "parent",
                  match s.parent with
                  | Some p -> Json_min.Num (float_of_int p)
                  | None -> Json_min.Null );
                ("start", Json_min.Num s.t0);
                ("end", Json_min.Num s.t1);
              ]));
      output_char oc '\n')
    (spans t)
