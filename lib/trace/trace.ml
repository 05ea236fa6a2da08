(* Structured tracing: an explicit span tree over the whole encoding
   pipeline, with one track per domain so parallel portfolio runs render
   as parallel lanes.

   Everything is default-off: while [on] is false every probe is a load
   and a branch. Enable with [enable ()] — or
   NOVA_TRACE=1 in the environment — run the workload, then [export] the
   buffered events as Chrome trace-event JSON (loadable in Perfetto or
   chrome://tracing) or as an append-only JSONL event log. Both exports
   are lossless views of the same buffer and are written atomically
   (tmp + rename, the cache's idiom).

   Span model
   - [with_span name f] emits a Begin event, runs [f], and emits the
     matching End event (exception-safe). Spans on one track nest
     strictly (a per-track stack), so Begin/End pairs per track are
     balanced and form a tree: the run's span tree.
   - Spans carry typed attributes. A child span *inherits* the
     attributes of its enclosing span on the same track (and may
     override them), so a deep espresso phase span still knows which
     machine and algorithm it serves without threading those through
     every call site.
   - [instant name] emits a point event (degradation, budget trip,
     cache hit, race win...), also inheriting the open span's
     attributes.
   - The track of an event is the integer id of the domain that emitted
     it: Exec.Pool workers land on their own lanes automatically.

   Determinism invariant: tracing writes nothing anywhere except its own
   in-memory buffer, and at export time the one file it was asked for —
   never stdout. Traced and untraced runs (and jobs=1 vs jobs=N runs)
   therefore produce byte-identical stdout.

   Timestamps are microseconds since [enable]. Within one track they are
   clamped to be non-decreasing, so per-track monotonicity is an
   invariant of the buffer (scripts/validate_trace checks it), not an
   accident of the clock. *)

type value = String of string | Int of int | Float of float | Bool of bool

type attrs = (string * value) list

type kind = Begin | End | Instant

type event = { kind : kind; name : string; ts : float; track : int; attrs : attrs }

let on =
  ref
    (match Sys.getenv_opt "NOVA_TRACE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enabled () = !on

(* One lock for the buffer, the per-track stacks and the metadata; held
   for a few list operations at most, never while running user code. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Events are consed and reversed at export: appends are O(1) under the
   lock, and the export order is the emission order. *)
let events : event list ref = ref []
let num_events = ref 0

(* Per-track state: the stack of open spans (name and merged attrs, for
   inheritance) and the last timestamp handed out (for monotonicity). *)
type track_state = { mutable stack : (string * attrs) list; mutable last_ts : float }

let tracks : (int, track_state) Hashtbl.t = Hashtbl.create 8

(* The track that called [enable]: named "main" in the exports. *)
let main_track = ref 0

let meta : attrs ref = ref []

let t0 = ref 0.

let enable () =
  locked @@ fun () ->
  t0 := Unix.gettimeofday ();
  main_track := (Domain.self () :> int);
  on := true

let disable () = on := false

let reset () =
  locked @@ fun () ->
  events := [];
  num_events := 0;
  Hashtbl.reset tracks;
  meta := []

let event_count () = locked (fun () -> !num_events)

let set_meta kvs =
  if !on then
    locked @@ fun () ->
    List.iter
      (fun (k, v) -> meta := (k, v) :: List.remove_assoc k !meta)
      kvs

(* Merge [over] on top of [base]: [over] wins on duplicate keys, and the
   base order is kept stable so exported args are deterministic. *)
let merge_attrs base over =
  List.filter (fun (k, _) -> not (List.mem_assoc k over)) base @ over

let track_state track =
  match Hashtbl.find_opt tracks track with
  | Some s -> s
  | None ->
      let s = { stack = []; last_ts = 0. } in
      Hashtbl.add tracks track s;
      s

(* Must be called under [mutex]. *)
let append kind name attrs =
  let track = (Domain.self () :> int) in
  let st = track_state track in
  let ts =
    let raw = (Unix.gettimeofday () -. !t0) *. 1e6 in
    if raw > st.last_ts then raw else st.last_ts
  in
  st.last_ts <- ts;
  events := { kind; name; ts; track; attrs } :: !events;
  incr num_events;
  st

let instant ?(attrs = []) name =
  if !on then
    locked @@ fun () ->
    let track = (Domain.self () :> int) in
    let inherited = match (track_state track).stack with (_, a) :: _ -> a | [] -> [] in
    ignore (append Instant name (merge_attrs inherited attrs))

let annotate attrs =
  if !on then
    locked @@ fun () ->
    let st = track_state (Domain.self () :> int) in
    match st.stack with
    | [] -> ()
    | (name, a) :: rest -> st.stack <- (name, merge_attrs a attrs) :: rest

let span_begin name attrs =
  locked @@ fun () ->
  let track = (Domain.self () :> int) in
  let st = track_state track in
  let inherited = match st.stack with (_, a) :: _ -> a | [] -> [] in
  let merged = merge_attrs inherited attrs in
  st.stack <- (name, merged) :: st.stack;
  ignore (append Begin name merged)

let span_end name end_attrs =
  locked @@ fun () ->
  let st = track_state (Domain.self () :> int) in
  (match st.stack with
  | (n, _) :: rest when n = name -> st.stack <- rest
  | _ -> () (* unbalanced end: drop the pop, the validator will flag it *));
  ignore (append End name end_attrs)

let with_span ?(attrs = []) ?end_attrs name f =
  if not !on then f ()
  else begin
    span_begin name attrs;
    match f () with
    | v ->
        span_end name (match end_attrs with Some g -> g v | None -> []);
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        span_end name [];
        Printexc.raise_with_backtrace e bt
  end

(* --- export ------------------------------------------------------------ *)

let value_json = function
  | String s -> Json_min.Str s
  | Int i -> Json_min.Num (float_of_int i)
  | Float f -> Json_min.Num f
  | Bool b -> Json_min.Bool b

let attrs_json attrs = Json_min.Obj (List.map (fun (k, v) -> (k, value_json v)) attrs)

(* A consistent snapshot of the buffer, in emission order, plus the
   per-track names for the exports. *)
let snapshot () =
  locked @@ fun () ->
  let evs = List.rev !events in
  let track_ids =
    Hashtbl.fold (fun id _ acc -> id :: acc) tracks [] |> List.sort compare
  in
  (evs, track_ids, !meta, !main_track)

let track_name ~main id = if id = main then "main" else Printf.sprintf "domain-%d" id

(* Unique per write within the process, so two threads or domains
   writing one path never share a temp file. *)
let temp_count = Atomic.make 0

let temp_path path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add temp_count 1)

(* tmp + rename, like the cache: a reader never sees a half-written
   file, and a crashed write leaves the previous file intact. *)
let write_channel path render =
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  match
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> render oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let output_line oc v =
  output_string oc (Json_min.render v);
  output_char oc '\n'

let write_atomic ~path v = write_channel path (fun oc -> output_line oc v)

let phase = function Begin -> "B" | End -> "E" | Instant -> "i"

let int n = Json_min.Num (float_of_int n)

(* Chrome trace-event JSON: the run manifest rides in "metadata" (shown
   by Perfetto under Info & stats) and per-track thread_name metadata
   events label the lanes. *)
let export_chrome ~path () =
  let evs, track_ids, meta, main = snapshot () in
  let open Json_min in
  let thread_name id =
    Obj
      [
        ("name", Str "thread_name"); ("ph", Str "M"); ("pid", int 1); ("tid", int id);
        ("args", Obj [ ("name", Str (track_name ~main id)) ]);
      ]
  in
  let event e =
    let scope = match e.kind with Instant -> [ ("s", Str "t") ] | Begin | End -> [] in
    Obj
      ([ ("name", Str e.name); ("ph", Str (phase e.kind)); ("ts", Num e.ts); ("pid", int 1);
         ("tid", int e.track) ]
      @ scope
      @ [ ("args", attrs_json e.attrs) ])
  in
  write_atomic ~path
    (Obj
       [
         ("traceEvents", Arr (List.map thread_name track_ids @ List.map event evs));
         ("displayTimeUnit", Str "ms");
         ("metadata", attrs_json meta);
       ])

(* JSONL: one event per line, the first line being the run manifest —
   an append-only log a tail-reader can follow record by record. *)
let export_jsonl ~path () =
  let evs, track_ids, meta, main = snapshot () in
  let open Json_min in
  write_channel path @@ fun oc ->
  output_line oc
    (Obj
       [
         ("type", Str "meta"); ("meta", attrs_json meta);
         ( "tracks",
           Obj (List.map (fun id -> (string_of_int id, Str (track_name ~main id))) track_ids) );
       ]);
  List.iter
    (fun e ->
      output_line oc
        (Obj
           [
             ("type", Str (phase e.kind)); ("ts", Num e.ts); ("track", int e.track);
             ("name", Str e.name); ("attrs", attrs_json e.attrs);
           ]))
    evs

(* Format dispatch on the extension: .jsonl is the event log, anything
   else the Chrome trace. *)
let export ~path () =
  if Filename.check_suffix path ".jsonl" then export_jsonl ~path ()
  else export_chrome ~path ()
