type config = {
  socket_path : string;
  jobs : int;
  max_inflight : int;
  cap_deadline_ms : float option;
  cap_work : int option;
  cache : Exec.Cache.t option;
  quiet : bool;
  access_log : string option;
  flight_record : string option;
  flight_capacity : int;
}

let default_flight_capacity = 64

let default_config ~socket_path =
  {
    socket_path; jobs = 1; max_inflight = 1; cap_deadline_ms = None; cap_work = None;
    cache = None; quiet = false; access_log = None; flight_record = None;
    flight_capacity = default_flight_capacity;
  }

type stats = {
  requests : int;
  served : int;
  errors : int;
  coalesced : int;
  computed : int;
  cache_hits : int;
  inflight_peak : int;
}

(* What one request resolves to, shared verbatim between coalesced
   requesters: the rendered stdout payload (when any), the error that
   sets the response code (when any — a report table with error rows
   carries both), where the result came from, and the budget work the
   computation charged (followers report the leader's spend — it is the
   work behind the bytes they received). *)
type served = {
  payload : string option;
  err : Nova_error.t option;
  origin : string;
  spent : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  active : int Atomic.t;
  c_requests : int Atomic.t;
  c_served : int Atomic.t;
  c_errors : int Atomic.t;
  c_coalesced : int Atomic.t;
  c_computed : int Atomic.t;
  c_hits : int Atomic.t;
  peak : int Atomic.t;
  slots : Semaphore.Counting.t;
  inflight : served Exec.Inflight.t;
  onehot : Onehot_memo.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_mutex : Mutex.t;
  started : float;
  flight : Metrics.Flight.t;  (* its sequence numbers are the request ids *)
  access : out_channel option;
}

(* Production metrics (default-on, see lib/metrics): request counts by
   verb, full-request latency by (tier, verb), and the four lifecycle
   phases. The per-request series are interned once per label value, on
   the first request that carries it. *)
let m_requests =
  Metrics.interned (fun verb ->
      Metrics.Registry.counter ~help:"Requests by verb (malformed lines count as invalid)."
        ~labels:[ ("verb", verb) ] "nova_serve_requests_total")

let m_request_seconds =
  Metrics.interned (fun (tier, verb) ->
      Metrics.Registry.histogram
        ~help:"Full request latency by serving tier and verb."
        ~labels:[ ("tier", tier); ("verb", verb) ]
        "nova_serve_request_seconds")

let m_phase phase =
  Metrics.Registry.histogram ~help:"Request lifecycle phase latency."
    ~labels:[ ("phase", phase) ] "nova_serve_phase_seconds"

let m_parse = m_phase "parse"
let m_admission = m_phase "admission"
let m_compute = m_phase "compute"
let m_render = m_phase "render"

let m_onehot source =
  Metrics.Registry.counter
    ~help:"1-hot reference lines rendered into encode payloads, by source (memo or computed)."
    ~labels:[ ("source", source) ] "nova_serve_onehot_total"

let m_onehot_memo = m_onehot "memo"
let m_onehot_computed = m_onehot "computed"
let s_onehot = Metrics.section "render.onehot"

let timed h f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Metrics.Registry.observe h (Unix.gettimeofday () -. t0);
  r

let snapshot t =
  {
    requests = Atomic.get t.c_requests;
    served = Atomic.get t.c_served;
    errors = Atomic.get t.c_errors;
    coalesced = Atomic.get t.c_coalesced;
    computed = Atomic.get t.c_computed;
    cache_hits = Atomic.get t.c_hits;
    inflight_peak = Atomic.get t.peak;
  }

let zero_stats =
  {
    requests = 0; served = 0; errors = 0; coalesced = 0; computed = 0; cache_hits = 0;
    inflight_peak = 0;
  }

let current : t option ref = ref None
let last = ref zero_stats
let last_stats () = match !current with Some t -> snapshot t | None -> !last

let resolve_machine = function
  | Protocol.Builtin name -> (
      match Benchmarks.Suite.find name with
      | m -> Ok m
      | exception Not_found ->
          Error
            (Nova_error.Invalid_request
               (Printf.sprintf
                  "no built-in machine called %S (send KISS2 text in \"kiss2\" instead)" name)))
  | Protocol.Kiss2 { name; text } -> (
      let name = Option.value name ~default:"request" in
      match Kiss.parse_result ~name ~file:"<kiss2>" text with
      | Ok m -> Ok m
      | Error { Kiss.file; line; col; msg } ->
          Error (Nova_error.Parse_error { file; line; col; msg }))

let caps t = { Budget.cap_deadline_ms = t.cfg.cap_deadline_ms; cap_work = t.cfg.cap_work }

(* One compute slot: [max_inflight] gates how many computations run at
   once (coalesced followers never take one — they only wait). All
   span-emitting work happens inside a slot, so with the default single
   slot a traced session keeps one balanced span stack per track. The
   admission budget is derived *after* the queue wait — it meters the
   compute, not the line. *)
let with_slot t f =
  let t0 = Unix.gettimeofday () in
  Semaphore.Counting.acquire t.slots;
  let queue_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Metrics.Registry.observe m_admission (queue_ms /. 1000.);
  if Trace.enabled () && queue_ms > 0.5 then
    Trace.instant "serve.queue" ~attrs:[ ("queue_ms", Trace.Float queue_ms) ];
  Fun.protect ~finally:(fun () -> Semaphore.Counting.release t.slots) (fun () -> f ())

let count_origin t (row : Exec.Job.row) =
  match row.Exec.Job.origin with
  | Exec.Job.Computed -> Atomic.incr t.c_computed
  | Exec.Job.Cached -> Atomic.incr t.c_hits
  | Exec.Job.Cancelled_by_race -> ()

let source_name = function `Memo -> "memo" | `Computed -> "computed"

(* The 1-hot reference line. A plain request reads it from the daemon's
   memo, which only ever holds the unlimited-budget value; a constrained
   request computes it under its own budget, as the one-shot CLI with
   the same flags does. *)
let onehot_reference t ~plain ~budget m =
  let onehot, source =
    Metrics.span s_onehot
      ~end_attrs:(fun (_, src) -> [ ("source", Trace.String (source_name src)) ])
    @@ fun () ->
    if plain then Onehot_memo.reference t.onehot ~key:(Exec.Job.machine_digest m) ~budget m
    else (Render.onehot_reference ~budget m, `Computed)
  in
  Metrics.Registry.inc (match source with `Memo -> m_onehot_memo | `Computed -> m_onehot_computed);
  onehot

let render_encode t ~plain m (s : Exec.Job.success) ~budget =
  Render.encode_text m s.Exec.Job.encoding ~num_cubes:s.Exec.Job.num_cubes
    ~area:s.Exec.Job.area
    ~onehot:(onehot_reference t ~plain ~budget m)

let refused e = { payload = None; err = Some e; origin = "request"; spent = 0 }

(* The one coalesced leader of [encode] and [report]. A plain request
   (no budget_ms / max_work ask) passes a [key] and takes the full
   serving path: the coalescing table, then [lead] with the daemon's
   cache (read, and store under the determinism gate); a follower gets
   the leader's value under origin "coalesced". A constrained request
   passes no key and leads alone without the cache — its degradation
   level depends on its asks, so sharing a computation (or a cached
   full-quality entry whose fingerprint never saw the ask) would break
   "byte-identical to the one-shot CLI with the same flags". Either way
   the leader runs in a compute slot. *)
let coalesced t ?key lead =
  let in_slot cache () = with_slot t (fun () -> lead cache) in
  match key with
  | None -> in_slot None ()
  | Some key -> (
      match Exec.Inflight.run t.inflight ~key (in_slot t.cfg.cache) with
      | served, `Leader -> served
      | served, `Coalesced ->
          Atomic.incr t.c_coalesced;
          { served with origin = "coalesced" })

let serve_encode t (req : Protocol.encode_request) =
  match resolve_machine req.Protocol.machine with
  | Error e -> refused e
  | Ok m ->
      let task = Exec.Job.task ?bits:req.bits ~fallback:req.fallback m req.algorithm in
      let plain = req.budget_ms = None && req.max_work = None in
      coalesced t ?key:(if plain then Some (Exec.Job.key task) else None) @@ fun cache ->
      let budget = Budget.derive ?deadline_ms:req.budget_ms ?max_work:req.max_work (caps t) in
      let row = timed m_compute (fun () -> Exec.Portfolio.run_task ?cache ~budget task) in
      count_origin t row;
      let spent = Budget.spent budget in
      let origin = Exec.Portfolio.origin_name row.Exec.Job.origin in
      (match row.Exec.Job.result with
      | Ok s ->
          {
            payload = Some (timed m_render (fun () -> render_encode t ~plain m s ~budget));
            err = None;
            origin;
            spent;
          }
      | Error e -> { payload = None; err = Some e; origin; spent })

let serve_report t ~budget_ms machine =
  match resolve_machine machine with
  | Error e -> refused e
  | Ok m ->
      let tasks = Exec.Portfolio.tasks_for m in
      let plain = budget_ms = None in
      let unconstrained = plain && t.cfg.cap_deadline_ms = None && t.cfg.cap_work = None in
      let key () =
        Digest.to_hex
          (Digest.string (String.concat "\x00" ("report" :: List.map Exec.Job.key tasks)))
      in
      coalesced t ?key:(if plain then Some (key ()) else None) @@ fun cache ->
      let rows, spent =
        timed m_compute @@ fun () ->
        if unconstrained then
          (* No external budget anywhere: run the real portfolio pool
             (rows are jobs-independent, so --jobs only buys time). *)
          (Exec.Portfolio.run ~jobs:t.cfg.jobs ?cache tasks, 0)
        else
          (* A budget tree is ticked by one domain: under a request
             deadline the tasks run sequentially, sharing the request
             budget — a per-request ceiling, not a per-task one. *)
          let budget = Budget.derive ?deadline_ms:budget_ms (caps t) in
          let rows = List.map (fun task -> Exec.Portfolio.run_task ?cache ~budget task) tasks in
          (rows, Budget.spent budget)
      in
      List.iter (count_origin t) rows;
      let err = Exec.Portfolio.first_error rows in
      let origin =
        if List.exists (fun (r : Exec.Job.row) -> r.Exec.Job.origin = Exec.Job.Computed) rows
        then "computed"
        else "cached"
      in
      {
        payload =
          Some (timed m_render (fun () -> Render.report_table ~race:false ~num_machines:1 rows));
        err;
        origin;
        spent;
      }

(* The quarantine registry as JSON rows — runtime visibility into the
   pairs the supervisor has written off (and how much work the skips
   saved), embedded in the stats response. *)
let quarantine_json () =
  Json_min.Arr
    (List.map
       (fun (q : Exec.Supervise.quarantine_entry) ->
         Json_min.Obj
           [
             ("machine", Json_min.Str q.Exec.Supervise.q_machine);
             ("algorithm", Json_min.Str q.Exec.Supervise.q_algorithm);
             ("cycles", Json_min.Num (float_of_int q.Exec.Supervise.q_cycles));
             ("skips", Json_min.Num (float_of_int q.Exec.Supervise.q_skips));
             ( "quarantined",
               Json_min.Bool (q.Exec.Supervise.q_cycles >= Exec.Supervise.quarantine_threshold)
             );
             ("detail", Json_min.Str q.Exec.Supervise.q_detail);
           ])
       (Exec.Supervise.quarantine_snapshot ()))

let stats_response t ~id =
  let s = snapshot t in
  let num n = Json_min.Num (float_of_int n) in
  let cache_fields, cache_line =
    match t.cfg.cache with
    | None -> ([], "cache: off")
    | Some c ->
        let cs = Exec.Cache.stats c in
        ( [
            ("cache_hits", num s.cache_hits); ("cache_misses", num cs.Exec.Cache.misses);
            ("cache_stores", num cs.Exec.Cache.stores);
            ("cache_rejected", num cs.Exec.Cache.rejected);
          ],
          Printf.sprintf "cache: %d hits, %d misses, %d stores, %d rejected (%s)"
            cs.Exec.Cache.hits cs.Exec.Cache.misses cs.Exec.Cache.stores
            cs.Exec.Cache.rejected (Exec.Cache.dir c) )
  in
  let payload =
    Printf.sprintf
      "serve stats: %d requests, %d served, %d errors\n\
       coalesced %d, computed %d, cache hits %d, peak in-flight %d\n\
       %s\n"
      s.requests s.served s.errors s.coalesced s.computed s.cache_hits s.inflight_peak
      cache_line
  in
  Protocol.ok_response ?id
    ~extra:
      ([
         ("proto", Json_min.Str Protocol.proto);
         ("requests", num s.requests); ("served", num s.served); ("errors", num s.errors);
         ("coalesced", num s.coalesced); ("computed", num s.computed);
         ("inflight_peak", num s.inflight_peak);
         ("uptime_s", Json_min.Num (Unix.gettimeofday () -. t.started));
       ]
      @ cache_fields
      (* New keys only ever append: every pre-metrics key above stays
         byte-compatible (pinned by test_serve). *)
      @ [ ("metrics", Metrics.Expose.json ()); ("quarantine", quarantine_json ()) ])
    ~payload ()

let metrics_response ~id =
  Protocol.ok_response ?id
    ~extra:[ ("proto", Json_min.Str Protocol.proto); ("metrics", Metrics.Expose.json ()) ]
    ~payload:(Metrics.Expose.prometheus ()) ()

(* The flightrec payload is the same JSON document a crash/shutdown
   dump writes; when a --flight-record path is configured the request
   also refreshes the on-disk artifact. *)
let flightrec_response t ~id =
  let doc = Metrics.Flight.to_json ~reason:"request" t.flight in
  (match t.cfg.flight_record with
  | Some path -> Metrics.Flight.dump ~reason:"request" ~path t.flight
  | None -> ());
  Protocol.ok_response ?id
    ~extra:[ ("proto", Json_min.Str Protocol.proto) ]
    ~payload:(Json_min.render doc ^ "\n")
    ()

let respond_served t ~id (s : served) =
  match s.err with
  | None ->
      Atomic.incr t.c_served;
      Protocol.ok_response ?id ~origin:s.origin
        ~payload:(Option.value s.payload ~default:"")
        ()
  | Some e ->
      Atomic.incr t.c_errors;
      Protocol.error_response ?id ?payload:s.payload e

let machine_ref_name = function
  | Protocol.Builtin name -> name
  | Protocol.Kiss2 { name; _ } -> Option.value name ~default:"<kiss2>"

(* Error identities in request records stay short: the first line,
   capped — flight dumps and access logs are records, not crash
   reports. *)
let error_brief e =
  let s = Nova_error.to_string e in
  let s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s in
  if String.length s > 160 then String.sub s 0 160 else s

(* A request's record before the flight ring numbers it and
   [record_request] stamps its clock. [tier] is the serve origin, "none"
   for bare verbs. *)
let request_entry ?(machine = "") ?(algorithm = "") ?(tier = "none") ?(spent = 0) ?err verb =
  {
    Metrics.Flight.seq = 0;
    at = 0.;
    verb;
    machine;
    algorithm;
    tier;
    wall_ms = 0.;
    ok = err = None;
    code = (match err with None -> 0 | Some e -> Nova_error.exit_code e);
    error = (match err with None -> "" | Some e -> error_brief e);
    spent;
  }

let served_entry verb ~machine ~algorithm (s : served) =
  request_entry ~machine ~algorithm ~tier:s.origin ~spent:s.spent ?err:s.err verb

(* One record, three sinks: the (tier, verb) latency histogram + verb
   counter, the flight ring, and one JSONL access-log line in the
   ring's own rendering. The ring writes that line under its lock as it
   numbers the entry, so lines from concurrent handler threads never
   interleave and the log runs in request-id order. *)
let record_request t (e : Metrics.Flight.entry) ~wall =
  Metrics.Registry.inc (m_requests e.Metrics.Flight.verb);
  Metrics.Registry.observe (m_request_seconds (e.Metrics.Flight.tier, e.Metrics.Flight.verb)) wall;
  let sink =
    Option.map
      (fun oc e ->
        try
          output_string oc (Json_min.render (Metrics.Flight.entry_json e) ^ "\n");
          flush oc
        with Sys_error _ -> ())
      t.access
  in
  Metrics.Flight.record ?sink t.flight
    { e with Metrics.Flight.at = Unix.gettimeofday (); wall_ms = wall *. 1000. }

(* One request line in, one response line out. A line that could not
   be read whole arrives as its error and is answered and recorded like
   an unparsable one. Anything non-fatal the dispatch raises — the serve
   chaos site included — becomes a typed Job_crashed response (the
   daemon's exit-7 equivalent); fatal exceptions are never absorbed. *)
let handle_line t line =
  Atomic.incr t.c_requests;
  let t0 = Unix.gettimeofday () in
  let verb_of = function
    | Protocol.Ping -> "ping"
    | Protocol.Stats -> "stats"
    | Protocol.Metrics -> "metrics"
    | Protocol.Flightrec -> "flightrec"
    | Protocol.Shutdown -> "shutdown"
    | Protocol.Encode _ -> "encode"
    | Protocol.Report _ -> "report"
  in
  let parsed =
    match line with
    | Error e -> Error (None, e)
    | Ok line -> timed m_parse (fun () -> Protocol.parse_request line)
  in
  let response, entry =
    match parsed with
    | Error (id, e) ->
        Atomic.incr t.c_errors;
        (Protocol.error_response ?id e, request_entry ~err:e "invalid")
    | Ok { Protocol.id; request } -> (
        let verb = verb_of request in
        let serve ok () =
          Atomic.incr t.c_served;
          (ok, request_entry verb)
        in
        try
          Exec.Chaos.maybe_raise Exec.Chaos.Serve;
          match request with
          | Protocol.Ping ->
              serve
                (Protocol.ok_response ?id
                   ~extra:[ ("proto", Json_min.Str Protocol.proto) ]
                   ~payload:"pong" ())
                ()
          | Protocol.Stats -> serve (stats_response t ~id) ()
          | Protocol.Metrics -> serve (metrics_response ~id) ()
          | Protocol.Flightrec -> serve (flightrec_response t ~id) ()
          | Protocol.Shutdown ->
              Atomic.set t.stop true;
              serve (Protocol.ok_response ?id ~payload:"shutting down" ()) ()
          | Protocol.Encode req ->
              let machine = machine_ref_name req.Protocol.machine in
              let algorithm = Harness.Driver.name req.Protocol.algorithm in
              let served = serve_encode t req in
              (respond_served t ~id served, served_entry verb ~machine ~algorithm served)
          | Protocol.Report { machine; budget_ms } ->
              let served = serve_report t ~budget_ms machine in
              ( respond_served t ~id served,
                served_entry verb ~machine:(machine_ref_name machine) ~algorithm:"portfolio"
                  served )
        with e when not (Nova_error.is_fatal e) ->
          Atomic.incr t.c_errors;
          let err =
            Nova_error.Job_crashed
              { job = "serve:" ^ verb; attempts = 1; detail = Printexc.to_string e }
          in
          (Protocol.error_response ?id err, request_entry ~err verb))
  in
  let wall = Unix.gettimeofday () -. t0 in
  record_request t entry ~wall;
  if Trace.enabled () then
    Trace.instant "serve.request"
      ~attrs:
        [ ("verb", Trace.String entry.Metrics.Flight.verb);
          ("wall_ms", Trace.Float (wall *. 1000.)) ];
  response

(* --- connection plumbing ------------------------------------------------ *)

let bump_peak t =
  let a = Atomic.get t.active in
  let rec go () =
    let p = Atomic.get t.peak in
    if a > p && not (Atomic.compare_and_set t.peak p a) then go ()
  in
  go ()

(* A reply to a client that disconnected is dropped. *)
let send fd s = try ignore (Line_io.write_all fd s) with Unix.Unix_error (_, _, _) -> ()

let handle_conn t fd =
  let reader = Line_io.reader fd in
  let rec loop () =
    if not (Atomic.get t.stop) then
      match Line_io.read_line reader with
      | Error (Line_io.Eof | Line_io.Failed _) -> ()
      | Error Line_io.Too_long ->
          (* The stream cannot be resynchronized: answer once and close. *)
          send fd
            (handle_line t
               (Error
                  (Nova_error.Invalid_request
                     (Printf.sprintf "request line exceeds %d bytes" Protocol.max_line_bytes))))
      | Ok line ->
          (* [active] covers handling *and* the response write, so the
             shutdown drain never closes a socket under a reply. *)
          Atomic.incr t.active;
          bump_peak t;
          Fun.protect
            ~finally:(fun () -> Atomic.decr t.active)
            (fun () ->
              (* A client that disconnected mid-request gets nothing;
                 its work still settled (and cached/coalesced). *)
              send fd (handle_line t (Ok line)));
          loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.conns_mutex;
      Hashtbl.remove t.conns fd;
      Mutex.unlock t.conns_mutex;
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    loop

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              Mutex.lock t.conns_mutex;
              Hashtbl.replace t.conns fd ();
              Mutex.unlock t.conns_mutex;
              ignore (Thread.create (fun () -> handle_conn t fd) ())
          | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Bind, refusing to evict a live server: if something answers on the
   path it stays; a socket file nothing listens on (a crashed daemon's
   leftover) is replaced. *)
let bind_socket path =
  let stale_removed =
    if Sys.file_exists path then begin
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error (_, _, _) -> false
      in
      (try Unix.close probe with Unix.Unix_error (_, _, _) -> ());
      if live then Error ()
      else begin
        (try Sys.remove path with Sys_error _ -> ());
        Ok ()
      end
    end
    else Ok ()
  in
  match stale_removed with
  | Error () ->
      Error
        (Nova_error.Invalid_request
           (Printf.sprintf "another server is already listening on %s" path))
  | Ok () -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          Error
            (Nova_error.Invalid_request
               (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))))

let with_signals t f =
  let install s h = try Some (Sys.signal s h) with Invalid_argument _ | Sys_error _ -> None in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set t.stop true) in
  let old_int = install Sys.sigint on_signal in
  let old_term = install Sys.sigterm on_signal in
  let old_pipe = install Sys.sigpipe Sys.Signal_ignore in
  let restore s old = match old with Some h -> ignore (install s h) | None -> () in
  Fun.protect
    ~finally:(fun () ->
      restore Sys.sigint old_int;
      restore Sys.sigterm old_term;
      restore Sys.sigpipe old_pipe)
    f

let drain_timeout_s = 10.

let run cfg =
  match bind_socket cfg.socket_path with
  | Error e -> Error e
  | Ok listen_fd ->
      (* The access log opens append-only before the first request and
         fails the run loudly: a daemon asked to keep a request record
         must not serve without one. *)
      let access =
        match cfg.access_log with
        | None -> Ok None
        | Some path -> (
            match open_out_gen [ Open_append; Open_creat ] 0o644 path with
            | oc -> Ok (Some oc)
            | exception Sys_error msg ->
                Error (Nova_error.Invalid_request ("cannot open access log: " ^ msg)))
      in
      (match access with
       | Error e ->
           (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
           (try Sys.remove cfg.socket_path with Sys_error _ -> ());
           Error e
       | Ok access ->
      let t =
        {
          cfg; listen_fd; stop = Atomic.make false; active = Atomic.make 0;
          c_requests = Atomic.make 0; c_served = Atomic.make 0; c_errors = Atomic.make 0;
          c_coalesced = Atomic.make 0; c_computed = Atomic.make 0; c_hits = Atomic.make 0;
          peak = Atomic.make 0;
          slots = Semaphore.Counting.make (max 1 cfg.max_inflight);
          inflight = Exec.Inflight.create ();
          onehot = Onehot_memo.create ();
          conns = Hashtbl.create 16;
          conns_mutex = Mutex.create ();
          started = Unix.gettimeofday ();
          flight = Metrics.Flight.create (max 1 cfg.flight_capacity);
          access;
        }
      in
      current := Some t;
      if not cfg.quiet then
        Printf.eprintf "serve: listening on %s (%d slot%s%s)\n%!" cfg.socket_path
          (max 1 cfg.max_inflight)
          (if cfg.max_inflight = 1 then "" else "s")
          (match cfg.cache with
          | Some c -> ", cache " ^ Exec.Cache.dir c
          | None -> ", no cache");
      let dump_flight reason =
        match cfg.flight_record with
        | Some path -> Metrics.Flight.dump ~reason ~path t.flight
        | None -> ()
      in
      let serve_until_shutdown () =
        with_signals t (fun () ->
            accept_loop t;
            (* Drain: let in-flight requests finish writing, bounded so a
               wedged request cannot hold shutdown hostage. *)
            let deadline = Unix.gettimeofday () +. drain_timeout_s in
            while Atomic.get t.active > 0 && Unix.gettimeofday () < deadline do
              Thread.delay 0.01
            done;
            (* Unblock handler threads parked in read; they observe EOF
               and close their fds themselves. *)
            Mutex.lock t.conns_mutex;
            Hashtbl.iter
              (fun fd () ->
                try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ())
              t.conns;
            Mutex.unlock t.conns_mutex;
            Thread.delay 0.05;
            (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
            (try Sys.remove cfg.socket_path with Sys_error _ -> ());
            let swept =
              match cfg.cache with None -> 0 | Some c -> Exec.Cache.sweep_own_tmp c
            in
            dump_flight "shutdown";
            (match t.access with Some oc -> (try close_out oc with Sys_error _ -> ()) | None -> ());
            let s = snapshot t in
            last := s;
            current := None;
            if not cfg.quiet then
              Printf.eprintf
                "serve: shutdown after %d requests (%d served, %d errors, %d coalesced, peak \
                 in-flight %d%s)\n\
                 %!"
                s.requests s.served s.errors s.coalesced s.inflight_peak
                (if swept > 0 then Printf.sprintf ", %d stale tmp swept" swept else "");
            Ok ())
      in
      (* A fatal exception escaping the serve loop is the crash the
         flight recorder exists for: dump the ring on the way down. *)
      (try serve_until_shutdown ()
       with e ->
         dump_flight "crash";
         (match t.access with Some oc -> (try close_out oc with Sys_error _ -> ()) | None -> ());
         current := None;
         raise e))
