(* Well-formedness checks over an exported trace, shared by the
   scripts/validate_trace entry point and the test suite. Both export
   formats decode to the same event stream, so one checker covers both:

   - per track, Begin/End events balance under stack discipline with
     matching names (the span tree is well formed);
   - per track, timestamps are monotone (non-decreasing);
   - every span carries the "machine" and "algorithm" attributes (the
     self-description contract: any lane of any trace can be read on
     its own);
   - the run manifest is present and names the code version. *)

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
  roots : (int * span_tree list) list;  (** per track, outermost spans in order *)
}

let ok r = r.errors = []

(* --- decoding ----------------------------------------------------------- *)

let attr_of_json (k, j) =
  let v =
    match j with
    | Json_min.Str s -> Trace.String s
    | Json_min.Num f -> if Float.is_integer f then Trace.Int (int_of_float f) else Trace.Float f
    | Json_min.Bool b -> Trace.Bool b
    | Json_min.Null | Json_min.Arr _ | Json_min.Obj _ -> Trace.String "<composite>"
  in
  (k, v)

let attrs_of_json = function
  | Some (Json_min.Obj kvs) -> List.map attr_of_json kvs
  | _ -> []

let kind_of_phase = function
  | "B" -> Some Trace.Begin
  | "E" -> Some Trace.End
  | "i" | "I" -> Some Trace.Instant
  | _ -> None

let event_of_obj ~name_key ~track_key j =
  match
    ( Option.bind (Json_min.member "ph" j) Json_min.to_string,
      Option.bind (Json_min.member "type" j) Json_min.to_string )
  with
  | None, None -> None
  | ph, ty -> (
      let phase = match ph with Some p -> p | None -> Option.value ty ~default:"" in
      match kind_of_phase phase with
      | None -> None (* metadata events ("M") and the JSONL meta line *)
      | Some kind ->
          let str k = Option.bind (Json_min.member k j) Json_min.to_string in
          let num k = Option.bind (Json_min.member k j) Json_min.to_float in
          Some
            {
              Trace.kind;
              name = Option.value (str name_key) ~default:"";
              ts = Option.value (num "ts") ~default:0.;
              track = int_of_float (Option.value (num track_key) ~default:0.);
              attrs = attrs_of_json (Json_min.member (if track_key = "tid" then "args" else "attrs") j);
            })

let decode_chrome j =
  let events =
    match Option.bind (Json_min.member "traceEvents" j) Json_min.to_list with
    | Some l -> List.filter_map (event_of_obj ~name_key:"name" ~track_key:"tid") l
    | None -> []
  in
  let meta = attrs_of_json (Json_min.member "metadata" j) in
  (events, meta)

let decode_jsonl text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  let events = ref [] and meta = ref [] in
  List.iter
    (fun line ->
      let j = Json_min.of_string line in
      match Option.bind (Json_min.member "type" j) Json_min.to_string with
      | Some "meta" -> meta := attrs_of_json (Json_min.member "meta" j)
      | _ -> (
          match event_of_obj ~name_key:"name" ~track_key:"track" j with
          | Some e -> events := e :: !events
          | None -> ()))
    lines;
  (List.rev !events, !meta)

let decode_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if Filename.check_suffix path ".jsonl" then decode_jsonl text
  else decode_chrome (Json_min.of_string text)

(* --- checking ----------------------------------------------------------- *)

(* Fold one track's events into its span forest, collecting errors. *)
let check_track track evs =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let last_ts = ref neg_infinity in
  (* Stack of open spans: (name, attrs, start_ts, reversed children). *)
  let stack = ref [] in
  let roots = ref [] in
  let close_into name attrs start_ts ts children =
    let t = { span_name = name; span_attrs = attrs; start_ts; end_ts = ts; children } in
    match !stack with
    | [] -> roots := t :: !roots
    | (n, a, s, kids) :: rest -> stack := (n, a, s, t :: kids) :: rest
  in
  let spans = ref 0 and instants = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      if e.ts < !last_ts then
        err "track %d: timestamp goes backwards at %S (%.1f < %.1f)" track e.name e.ts !last_ts;
      last_ts := e.ts;
      match e.kind with
      | Trace.Begin ->
          incr spans;
          if not (List.mem_assoc "machine" e.attrs) then
            err "track %d: span %S has no \"machine\" attribute" track e.name;
          if not (List.mem_assoc "algorithm" e.attrs) then
            err "track %d: span %S has no \"algorithm\" attribute" track e.name;
          stack := (e.name, e.attrs, e.ts, []) :: !stack
      | Trace.End -> (
          match !stack with
          | [] -> err "track %d: End %S with no open span" track e.name
          | (n, a, s, kids) :: rest ->
              if n <> e.name then err "track %d: End %S closes open span %S" track e.name n;
              stack := rest;
              close_into n a s e.ts (List.rev kids))
      | Trace.Instant -> incr instants)
    evs;
  List.iter (fun (n, _, _, _) -> err "track %d: span %S never ends" track n) !stack;
  (List.rev !errors, List.rev !roots, !spans, !instants)

let check (events, meta) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_track e.track
        (e :: (try Hashtbl.find by_track e.track with Not_found -> [])))
    events;
  let tracks =
    Hashtbl.fold (fun id evs acc -> (id, List.rev evs) :: acc) by_track []
    |> List.sort compare
  in
  let num_spans = ref 0 and num_instants = ref 0 in
  let roots =
    List.map
      (fun (id, evs) ->
        let errs, roots, spans, instants = check_track id evs in
        errors := List.rev_append errs !errors;
        num_spans := !num_spans + spans;
        num_instants := !num_instants + instants;
        (id, roots))
      tracks
  in
  if !num_spans = 0 then err "trace contains no spans";
  if not (List.mem_assoc "code_version" meta) then
    err "run manifest has no \"code_version\" (trace-meta missing or incomplete)";
  {
    errors = List.rev !errors;
    num_events = List.length events;
    num_spans = !num_spans;
    num_instants = !num_instants;
    num_tracks = List.length tracks;
    roots;
  }

let check_file path = check (decode_file path)

let summary r =
  Printf.sprintf "%d events (%d spans, %d instants) on %d tracks" r.num_events r.num_spans
    r.num_instants r.num_tracks
