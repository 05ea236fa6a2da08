(* Tests for the encode daemon (lib/serve): protocol parsing and its
   fuzz resistance, byte-exact payload parity with the one-shot CLI,
   in-flight coalescing (K concurrent clients, one computation), the
   serve chaos site, and shutdown hygiene (socket unlinked, own cache
   temp files swept). The daemon runs in-process on a thread; the
   two-process cache sharing test spawns test/serve_racer.exe (OCaml 5
   forbids [Unix.fork] once other suites have spawned domains). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_dir f =
  let dir = Filename.temp_file "nova-serve-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Protocol: parsing, rendering, and fuzz resistance *)

let parse_ok line =
  match Serve.Protocol.parse_request line with
  | Ok p -> p
  | Error (_, e) -> Alcotest.failf "unexpected parse failure: %s" (Nova_error.to_string e)

let parse_err line =
  match Serve.Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "expected a parse failure for %S" line
  | Error (id, e) -> (id, e)

let test_protocol_verbs () =
  List.iter
    (fun (verb, expect) ->
      let { Serve.Protocol.id; request } = parse_ok (Serve.Protocol.verb_line verb) in
      check ("verb " ^ verb) true (request = expect);
      check "no id by default" true (id = None))
    [
      ("ping", Serve.Protocol.Ping); ("stats", Serve.Protocol.Stats);
      ("shutdown", Serve.Protocol.Shutdown);
    ];
  let { Serve.Protocol.id; _ } =
    parse_ok (Serve.Protocol.verb_line ~id:(Json_min.Str "req-7") "ping")
  in
  check "id round-trips" true (id = Some (Json_min.Str "req-7"))

let test_protocol_encode_roundtrip () =
  let line =
    Serve.Protocol.encode_line ~id:(Json_min.Num 3.) ~bits:5 ~max_work:1000 ~fallback:false
      ~budget_ms:250. ~algorithm:"igreedy"
      (Serve.Protocol.Builtin "lion")
  in
  match (parse_ok line).Serve.Protocol.request with
  | Serve.Protocol.Encode r ->
      check "machine" true (r.Serve.Protocol.machine = Serve.Protocol.Builtin "lion");
      check "algorithm" true (r.Serve.Protocol.algorithm = Harness.Driver.Igreedy);
      check "bits" true (r.Serve.Protocol.bits = Some 5);
      check "max_work" true (r.Serve.Protocol.max_work = Some 1000);
      check "fallback" false r.Serve.Protocol.fallback;
      check "budget_ms" true (r.Serve.Protocol.budget_ms = Some 250.)
  | _ -> Alcotest.fail "expected an encode request"

let test_protocol_kiss2_and_report () =
  let text = ".i 1\n.o 1\n.p 2\n0 a a 0\n1 a a 1\n.e\n" in
  let line =
    Serve.Protocol.report_line (Serve.Protocol.Kiss2 { name = Some "tiny"; text })
  in
  match (parse_ok line).Serve.Protocol.request with
  | Serve.Protocol.Report { machine = Serve.Protocol.Kiss2 { name; text = t }; budget_ms } ->
      check "kiss2 name" true (name = Some "tiny");
      check_str "kiss2 text" text t;
      check "no budget" true (budget_ms = None)
  | _ -> Alcotest.fail "expected a kiss2 report request"

let test_protocol_errors_typed () =
  (* Malformed JSON: a parse error (exit code 2). *)
  let _, e = parse_err "{garbage" in
  check "malformed is Parse_error" true
    (match e with Nova_error.Parse_error _ -> true | _ -> false);
  (* Structurally valid JSON, wrong shape: invalid request (code 5),
     and the id still comes back for the response to echo. *)
  List.iter
    (fun line ->
      let _, e = parse_err line in
      check ("invalid: " ^ line) true
        (match e with Nova_error.Invalid_request _ -> true | _ -> false))
    [
      "{}"; "{\"verb\":\"nope\"}"; "{\"verb\":42}"; "[1,2,3]"; "null"; "\"ping\"";
      "{\"verb\":\"encode\"}"; "{\"verb\":\"encode\",\"machine\":7}";
      "{\"verb\":\"encode\",\"machine\":\"lion\",\"algorithm\":\"bogus\"}";
      "{\"verb\":\"encode\",\"machine\":\"lion\",\"bits\":\"five\"}";
      "{\"verb\":\"report\"}";
    ];
  let id, _ = parse_err "{\"id\":99,\"verb\":\"nope\"}" in
  check "id survives a bad verb" true (id = Some (Json_min.Num 99.))

(* Deterministic garbage: [parse_request] must never raise, whatever
   bytes arrive on the wire. *)
let fuzz_lines =
  let st = Random.State.make [| 0xC0FFEE |] in
  List.init 500 (fun _ ->
      let len = Random.State.int st 120 in
      String.init len (fun _ ->
          (* any byte but the line terminator (framing strips it) *)
          let c = Random.State.int st 255 in
          Char.chr (if c >= Char.code '\n' then c + 1 else c)))

let test_protocol_fuzz_never_raises () =
  List.iter
    (fun line ->
      match Serve.Protocol.parse_request line with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "parse_request raised on %S: %s" line (Printexc.to_string e))
    fuzz_lines

let test_protocol_reply_roundtrip () =
  let ok =
    Serve.Protocol.ok_response ~id:(Json_min.Str "a") ~origin:"cached" ~payload:"hello\n" ()
  in
  (match Serve.Protocol.parse_reply ok with
  | Ok r ->
      check "ok" true r.Serve.Protocol.ok;
      check_int "ok code" 0 r.Serve.Protocol.code;
      check "origin" true (r.Serve.Protocol.origin = Some "cached");
      check "payload" true (r.Serve.Protocol.payload = Some "hello\n");
      check "id" true (r.Serve.Protocol.reply_id = Some (Json_min.Str "a"))
  | Error m -> Alcotest.failf "reply did not parse: %s" m);
  let err = Serve.Protocol.error_response (Nova_error.Invalid_request "nope") in
  match Serve.Protocol.parse_reply err with
  | Ok r ->
      check "error not ok" false r.Serve.Protocol.ok;
      check_int "error code" 5 r.Serve.Protocol.code;
      check "error text" true (r.Serve.Protocol.error <> None)
  | Error m -> Alcotest.failf "error reply did not parse: %s" m

(* ------------------------------------------------------------------ *)
(* In-process server harness *)

let request_line ?budget_ms ?max_work ~algorithm machine =
  Serve.Protocol.encode_line ?budget_ms ?max_work ~algorithm (Serve.Protocol.Builtin machine)

let must_connect path =
  match Serve.Client.connect path with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let must_request c line =
  match Serve.Client.request c line with
  | Ok r -> r
  | Error m -> Alcotest.failf "request: %s" m

(* Start a server on a thread, await readiness over the real socket,
   run [f], then shut down through the protocol and demand a clean
   exit with the socket file gone. *)
let with_server ?(tweak = fun c -> c) f =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "s.sock" in
  let config =
    tweak { (Serve.Server.default_config ~socket_path:path) with Serve.Server.quiet = true }
  in
  let result = ref (Error (Nova_error.Invalid_request "server never ran")) in
  let th = Thread.create (fun () -> result := Serve.Server.run config) () in
  let rec await n =
    if n = 0 then Alcotest.fail "server did not come up"
    else
      match Serve.Client.connect path with
      | Error _ ->
          Thread.delay 0.02;
          await (n - 1)
      | Ok c -> (
          match Serve.Client.request c (Serve.Protocol.verb_line "ping") with
          | Ok r when r.Serve.Protocol.ok -> Serve.Client.close c
          | _ ->
              Serve.Client.close c;
              Thread.delay 0.02;
              await (n - 1))
  in
  await 250;
  Fun.protect
    ~finally:(fun () ->
      (match Serve.Client.connect path with
      | Ok c ->
          ignore (Serve.Client.request c (Serve.Protocol.verb_line "shutdown"));
          Serve.Client.close c
      | Error _ -> ());
      Thread.join th;
      check "clean shutdown" true (!result = Ok ());
      check "socket removed" false (Sys.file_exists path))
    (fun () -> f path)

(* The byte-exact expectation: what the one-shot CLI prints for this
   encode (with [--max-work] when given), built from the same renderer
   the CLI and daemon share. *)
let oneshot_stdout ?max_work machine algorithm =
  let m = Benchmarks.Suite.find machine in
  let budget = Budget.create ?max_work () in
  match Exec.Job.run ~budget (Exec.Job.task m algorithm) with
  | Error e -> Alcotest.failf "one-shot reference failed: %s" (Nova_error.to_string e)
  | Ok s ->
      Serve.Render.encode_text m s.Exec.Job.encoding ~num_cubes:s.Exec.Job.num_cubes
        ~area:s.Exec.Job.area
        ~onehot:(Serve.Render.onehot_reference ~budget m)

let test_serve_ping_and_stats () =
  with_server @@ fun path ->
  let c = must_connect path in
  let r = must_request c (Serve.Protocol.verb_line "ping") in
  check "pong" true (r.Serve.Protocol.payload = Some "pong");
  let r = must_request c (Serve.Protocol.verb_line "stats") in
  check "stats ok" true r.Serve.Protocol.ok;
  (match r.Serve.Protocol.raw with
  | Json_min.Obj fields ->
      check "stats carries proto" true
        (List.assoc_opt "proto" fields = Some (Json_min.Str Serve.Protocol.proto));
      check "stats counts requests" true
        (match List.assoc_opt "requests" fields with
        | Some (Json_min.Num n) -> n >= 2.
        | _ -> false)
  | _ -> Alcotest.fail "stats reply is not an object");
  Serve.Client.close c

let test_serve_payload_byte_identical () =
  with_server @@ fun path ->
  let c = must_connect path in
  let r = must_request c (request_line ~algorithm:"igreedy" "lion") in
  check "encode ok" true r.Serve.Protocol.ok;
  check "origin computed" true (r.Serve.Protocol.origin = Some "computed");
  check_str "payload equals one-shot stdout"
    (oneshot_stdout "lion" Harness.Driver.Igreedy)
    (Option.value r.Serve.Protocol.payload ~default:"");
  Serve.Client.close c

let test_serve_warm_hits_cache () =
  with_temp_dir @@ fun cache_dir ->
  with_server ~tweak:(fun c ->
      { c with Serve.Server.cache = Some (Exec.Cache.open_dir cache_dir) })
  @@ fun path ->
  let c = must_connect path in
  let line = request_line ~algorithm:"igreedy" "dk15" in
  let cold = must_request c line in
  let warm = must_request c line in
  check "cold computed" true (cold.Serve.Protocol.origin = Some "computed");
  check "warm cached" true (warm.Serve.Protocol.origin = Some "cached");
  check "warm payload identical" true
    (cold.Serve.Protocol.payload = warm.Serve.Protocol.payload);
  let s = Serve.Server.last_stats () in
  check_int "one computation" 1 s.Serve.Server.computed;
  check_int "one cache hit" 1 s.Serve.Server.cache_hits;
  Serve.Client.close c

(* A constrained request (an explicit ask) bypasses cache and
   coalescing: a work-starved ask must degrade exactly like the
   one-shot CLI would, and its degraded result must not poison the
   cache for plain requests. *)
let test_serve_constrained_is_individual () =
  with_temp_dir @@ fun cache_dir ->
  with_server ~tweak:(fun c ->
      { c with Serve.Server.cache = Some (Exec.Cache.open_dir cache_dir) })
  @@ fun path ->
  let c = must_connect path in
  let starved = must_request c (request_line ~max_work:1 ~algorithm:"ihybrid" "dk15") in
  let s = Serve.Server.last_stats () in
  check_int "constrained never reads the cache" 0 s.Serve.Server.cache_hits;
  let plain = must_request c (request_line ~algorithm:"ihybrid" "dk15") in
  check "plain after starved is computed fresh" true
    (plain.Serve.Protocol.origin = Some "computed");
  (* Whatever the starved ask produced (degraded success or budget
     error), the plain result must be the full-quality one. *)
  check "plain payload is the one-shot payload" true
    (plain.Serve.Protocol.payload = Some (oneshot_stdout "dk15" Harness.Driver.Ihybrid));
  ignore starved;
  Serve.Client.close c

let test_serve_report_parity () =
  with_server @@ fun path ->
  let c = must_connect path in
  let r =
    must_request c (Serve.Protocol.report_line (Serve.Protocol.Builtin "lion"))
  in
  check "report ok" true r.Serve.Protocol.ok;
  let expected =
    let tasks = Exec.Portfolio.tasks_for (Benchmarks.Suite.find "lion") in
    let rows = List.map (fun t -> Exec.Portfolio.run_task t) tasks in
    Serve.Render.report_table ~race:false ~num_machines:1 rows
  in
  check_str "report payload equals one-shot stdout" expected
    (Option.value r.Serve.Protocol.payload ~default:"");
  Serve.Client.close c

(* ------------------------------------------------------------------ *)
(* Fuzzing the live wire: garbage, truncation, oversized lines,
   mid-request disconnects — typed errors or a clean close, never a
   crash or a hang. *)

let test_serve_wire_garbage () =
  with_server @@ fun path ->
  let c = must_connect path in
  List.iteri
    (fun i line ->
      match Serve.Client.request c line with
      | Ok r ->
          check (Printf.sprintf "garbage %d is a typed error" i) false r.Serve.Protocol.ok;
          check (Printf.sprintf "garbage %d has an exit code" i) true
            (r.Serve.Protocol.code > 0)
      | Error m -> Alcotest.failf "transport failure on garbage %d: %s" i m)
    [ ""; "{"; "[1,2"; "null"; "\"ping\""; "{\"verb\":\"nope\"}"; "\x00\x01\x02"; "}{" ];
  (* A slice of the random corpus, newline-stripped for framing. *)
  List.iteri
    (fun i line ->
      let line = String.map (fun ch -> if ch = '\n' then ' ' else ch) line in
      match Serve.Client.request c line with
      | Ok r -> check (Printf.sprintf "fuzz %d typed" i) false r.Serve.Protocol.ok
      | Error m -> Alcotest.failf "transport failure on fuzz line %d: %s" i m)
    (List.filteri (fun i _ -> i < 40) fuzz_lines);
  (* The server is still fully alive. *)
  let r = must_request c (Serve.Protocol.verb_line "ping") in
  check "ping after garbage" true r.Serve.Protocol.ok;
  Serve.Client.close c

let test_serve_wire_truncation_reassembly () =
  with_server @@ fun path ->
  let c = must_connect path in
  (* A request split across writes arrives intact... *)
  (match Serve.Client.send c "{\"verb\":\"pi" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "send: %s" m);
  Thread.delay 0.05;
  (match Serve.Client.request c "ng\"}" with
  | Ok r -> check "split request served" true r.Serve.Protocol.ok
  | Error m -> Alcotest.failf "split request: %s" m);
  Serve.Client.close c;
  (* ...and a connection dropped mid-request neither crashes nor wedges
     the server. *)
  let c = must_connect path in
  (match Serve.Client.send c "{\"verb\":\"encode\",\"machine\":\"li" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "send: %s" m);
  Serve.Client.close c;
  Thread.delay 0.05;
  let c = must_connect path in
  let r = must_request c (Serve.Protocol.verb_line "ping") in
  check "ping after mid-request disconnect" true r.Serve.Protocol.ok;
  Serve.Client.close c

(* The lines of a JSONL access log, parsed. *)
let read_jsonl path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev_map Json_min.of_string !lines

let test_serve_wire_oversized_line () =
  with_temp_dir @@ fun dir ->
  let log = Filename.concat dir "access.jsonl" in
  with_server ~tweak:(fun c -> { c with Serve.Server.access_log = Some log }) (fun path ->
      let c = must_connect path in
      let giant = String.make (Serve.Protocol.max_line_bytes + 16) 'a' in
      (match Serve.Client.request_raw c giant with
      | Ok line -> (
          match Serve.Protocol.parse_reply line with
          | Ok r ->
              check "oversized answered with a typed error" false r.Serve.Protocol.ok;
              check_int "oversized is an invalid request" 5 r.Serve.Protocol.code
          | Error m -> Alcotest.failf "oversized reply did not parse: %s" m)
      | Error m -> Alcotest.failf "oversized request transport failure: %s" m);
      (* Past an unframeable line the stream cannot resync: the server
         closes this connection — and keeps serving new ones. *)
      check "connection closed after oversized" true
        (match Serve.Client.request c (Serve.Protocol.verb_line "ping") with
        | Error _ -> true
        | Ok _ -> false);
      Serve.Client.close c;
      let c = must_connect path in
      let r = must_request c (Serve.Protocol.verb_line "ping") in
      check "fresh connection after oversized" true r.Serve.Protocol.ok;
      Serve.Client.close c);
  (* The over-long line is recorded like an unparsable one: a request,
     an error and an "invalid" access-log line with exit code 5. *)
  let s = Serve.Server.last_stats () in
  check_int "oversized is the only error" 1 s.Serve.Server.errors;
  let docs = read_jsonl log in
  check_int "one access-log line per request" s.Serve.Server.requests (List.length docs);
  let str k d = Option.bind (Json_min.member k d) Json_min.to_string in
  check "oversized logged as invalid with its exit code" true
    (List.exists
       (fun d ->
         str "verb" d = Some "invalid"
         && Option.bind (Json_min.member "code" d) Json_min.to_float = Some 5.)
       docs)

(* The serve chaos site: a seeded fault between parse and dispatch must
   surface as a typed code-7 response on exactly the scheduled request,
   with the daemon fully alive afterwards. *)
let test_serve_chaos_typed_crash () =
  with_server @@ fun path ->
  Fun.protect ~finally:Exec.Chaos.disable @@ fun () ->
  (match Exec.Chaos.configure ~seed:11 "serve:1" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "chaos spec: %s" m);
  let c = must_connect path in
  (* One fault among the site's first two invocations: exactly one of
     these two pings draws it. *)
  let r1 = must_request c (Serve.Protocol.verb_line "ping") in
  let r2 = must_request c (Serve.Protocol.verb_line "ping") in
  let crashed =
    List.filter (fun (r : Serve.Protocol.reply) -> not r.Serve.Protocol.ok) [ r1; r2 ]
  in
  check_int "exactly one injected crash" 1 (List.length crashed);
  check_int "crash is the typed exit-7 response" 7 (List.hd crashed).Serve.Protocol.code;
  Exec.Chaos.disable ();
  let r = must_request c (Serve.Protocol.verb_line "ping") in
  check "alive after the injected crash" true r.Serve.Protocol.ok;
  Serve.Client.close c

(* ------------------------------------------------------------------ *)
(* Coalescing: K concurrent identical requests, one computation *)

(* Process-wide registry reads, for before/after deltas; [labels]
   picks one series, else every series of [name] is summed. *)
let registry_counter ?labels name =
  List.fold_left
    (fun acc ((s : Metrics.Registry.series), v) ->
      if s.Metrics.Registry.s_name = name
         && Option.fold ~none:true ~some:(( = ) s.Metrics.Registry.s_labels) labels
      then acc + v
      else acc)
    0 (Metrics.Registry.snapshot ()).Metrics.Registry.counters

let registry_observations ~labels name =
  List.fold_left
    (fun acc ((s : Metrics.Registry.series), h) ->
      if s.Metrics.Registry.s_name = name && s.Metrics.Registry.s_labels = labels then
        acc + Metrics.Histogram.count h
      else acc)
    0 (Metrics.Registry.snapshot ()).Metrics.Registry.histograms

let computed_encodes () =
  registry_observations ~labels:[ ("tier", "computed"); ("verb", "encode") ]
    "nova_serve_request_seconds"

let test_inflight_unit () =
  let table = Exec.Inflight.create () in
  let gate = Mutex.create () in
  let k = 6 in
  let roles = Array.make k `Leader in
  let values = Array.make k 0 in
  Mutex.lock gate;
  let started = Atomic.make 0 in
  let ths =
    List.init k (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr started;
            let v, role =
              Exec.Inflight.run table ~key:"shared" (fun () ->
                  (* Leader blocks until the main thread opens the gate,
                     so every other thread provably arrives in time. *)
                  Mutex.lock gate;
                  Mutex.unlock gate;
                  42)
            in
            roles.(i) <- role;
            values.(i) <- v)
          ())
  in
  while Atomic.get started < k || Exec.Inflight.inflight table = 0 do
    Thread.delay 0.005
  done;
  Thread.delay 0.05;
  Mutex.unlock gate;
  List.iter Thread.join ths;
  let leaders = Array.to_list roles |> List.filter (( = ) `Leader) |> List.length in
  check_int "exactly one leader" 1 leaders;
  Array.iter (fun v -> check_int "shared value" 42 v) values;
  check_int "table drains" 0 (Exec.Inflight.inflight table);
  (* A leader crash wakes every follower with the same exception and
     clears the slot for the next request. *)
  let raised = ref 0 in
  let ths =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            match Exec.Inflight.run table ~key:"boom" (fun () -> failwith "injected") with
            | _ -> ()
            | exception Failure _ -> incr raised)
          ())
  in
  List.iter Thread.join ths;
  check_int "every joiner observes the crash" 3 !raised;
  let v, role = Exec.Inflight.run table ~key:"boom" (fun () -> 7) in
  check "crash is not sticky" true (v = 7 && role = `Leader)

let test_serve_coalescing () =
  with_temp_dir @@ fun cache_dir ->
  with_server ~tweak:(fun c ->
      { c with Serve.Server.cache = Some (Exec.Cache.open_dir cache_dir) })
  @@ fun path ->
  let base = Serve.Server.last_stats () in
  let computed0 = computed_encodes () in
  let followers0 = registry_counter "nova_inflight_followers_total" in
  (* A blocker occupies the single compute slot (~0.5 s of real work),
     so the K identical requests provably overlap: their leader queues
     on the slot while the followers pile into the in-flight table. *)
  let blocker = ref None in
  let blocker_th =
    Thread.create
      (fun () ->
        let c = must_connect path in
        blocker := Some (must_request c (request_line ~algorithm:"ihybrid" "styr"));
        Serve.Client.close c)
      ()
  in
  let rec await_blocker n =
    if n = 0 then Alcotest.fail "blocker request never arrived"
    else if (Serve.Server.last_stats ()).Serve.Server.requests <= base.Serve.Server.requests
    then begin
      Thread.delay 0.01;
      await_blocker (n - 1)
    end
  in
  await_blocker 200;
  Thread.delay 0.05;
  let k = 4 in
  let replies = Array.make k None in
  let ths =
    List.init k (fun i ->
        Thread.create
          (fun () ->
            let c = must_connect path in
            replies.(i) <- Some (must_request c (request_line ~algorithm:"ihybrid" "keyb"));
            Serve.Client.close c)
          ())
  in
  List.iter Thread.join ths;
  Thread.join blocker_th;
  let replies =
    Array.to_list replies
    |> List.map (function Some r -> r | None -> Alcotest.fail "missing reply")
  in
  List.iter (fun (r : Serve.Protocol.reply) -> check "coalesced ok" true r.Serve.Protocol.ok) replies;
  (* K byte-identical payloads... *)
  let payloads =
    List.map (fun (r : Serve.Protocol.reply) ->
        Option.value r.Serve.Protocol.payload ~default:"")
      replies
  in
  List.iter (fun p -> check_str "payload identical across clients" (List.hd payloads) p) payloads;
  check_str "and identical to the one-shot stdout"
    (oneshot_stdout "keyb" Harness.Driver.Ihybrid)
    (List.hd payloads);
  (* ...from exactly one computation. *)
  let origin o =
    List.length
      (List.filter (fun (r : Serve.Protocol.reply) -> r.Serve.Protocol.origin = Some o) replies)
  in
  check_int "one leader computed" 1 (origin "computed");
  check_int "the rest coalesced" (k - 1) (origin "coalesced");
  let s = Serve.Server.last_stats () in
  check_int "computations: blocker + leader" 2
    (s.Serve.Server.computed - base.Serve.Server.computed);
  check_int "coalesced counter" (k - 1) (s.Serve.Server.coalesced - base.Serve.Server.coalesced);
  check_int "no cache hit involved" 0 (s.Serve.Server.cache_hits - base.Serve.Server.cache_hits);
  (* The same story through the metrics registry. *)
  check_int "registry: computed encode requests" 2 (computed_encodes () - computed0);
  check_int "registry: in-flight followers" (k - 1)
    (registry_counter "nova_inflight_followers_total" - followers0);
  match !blocker with
  | Some r -> check "blocker served" true r.Serve.Protocol.ok
  | None -> Alcotest.fail "blocker reply missing"

(* ------------------------------------------------------------------ *)
(* The 1-hot reference memo *)

let onehot_count source =
  registry_counter ~labels:[ ("source", source) ] "nova_serve_onehot_total"

let payload (r : Serve.Protocol.reply) = Option.value r.Serve.Protocol.payload ~default:""

(* Plain requests share one reference per machine: the second
   algorithm and the warm hit both read it, and every payload is still
   the one-shot stdout. A constrained request computes its own under
   its ask, so a starved one prints no reference line even though the
   memo holds one. *)
let test_serve_onehot_memo () =
  with_temp_dir @@ fun cache_dir ->
  with_server ~tweak:(fun c ->
      { c with Serve.Server.cache = Some (Exec.Cache.open_dir cache_dir) })
  @@ fun path ->
  let c = must_connect path in
  let memo0 = onehot_count "memo" and computed0 = onehot_count "computed" in
  let origins =
    List.map
      (fun (name, algorithm) ->
        let r = must_request c (request_line ~algorithm:name "lion") in
        check_str ("plain " ^ name ^ " payload is the one-shot stdout")
          (oneshot_stdout "lion" algorithm) (payload r);
        r.Serve.Protocol.origin)
      [ ("ihybrid", Harness.Driver.Ihybrid); ("igreedy", Harness.Driver.Igreedy);
        ("ihybrid", Harness.Driver.Ihybrid) ]
  in
  check "cold, cold, warm" true
    (origins = [ Some "computed"; Some "computed"; Some "cached" ]);
  check_int "two memo reads" 2 (onehot_count "memo" - memo0);
  check_int "one reference computed" 1 (onehot_count "computed" - computed0);
  let starved = must_request c (request_line ~max_work:10 ~algorithm:"ihybrid" "lion") in
  Serve.Client.close c;
  let expected = oneshot_stdout ~max_work:10 "lion" Harness.Driver.Ihybrid in
  check_str "constrained payload is the one-shot stdout under the same max_work" expected
    (payload starved);
  check "the starved ask prints no reference line" false
    (List.exists (String.starts_with ~prefix:"(1-hot") (String.split_on_char '\n' expected));
  check_int "constrained never reads the memo" 2 (onehot_count "memo" - memo0)

(* A daemon whose work cap lets the encode finish but trips inside the
   reference run: the tripped value is what the one-shot CLI prints
   under the same --max-work, and it never enters the memo — the
   repeat request computes its reference again. *)
let test_serve_onehot_capped_never_fills () =
  let m = Benchmarks.Suite.find "lion" in
  let budget = Budget.create () in
  ignore (Exec.Job.run ~budget (Exec.Job.task m Harness.Driver.Igreedy));
  let encode = Budget.spent budget in
  ignore (Serve.Render.onehot_reference ~budget m);
  let total = Budget.spent budget in
  check "the reference charges work" true (total - encode >= 2);
  let cap = encode + ((total - encode) / 2) in
  with_server ~tweak:(fun c -> { c with Serve.Server.cap_work = Some cap }) @@ fun path ->
  let c = must_connect path in
  let memo0 = onehot_count "memo" and computed0 = onehot_count "computed" in
  let expected = oneshot_stdout ~max_work:cap "lion" Harness.Driver.Igreedy in
  for _ = 1 to 2 do
    check_str "capped payload is the one-shot stdout under the cap" expected
      (payload (must_request c (request_line ~algorithm:"igreedy" "lion")))
  done;
  Serve.Client.close c;
  check_int "no memo read" 0 (onehot_count "memo" - memo0);
  check_int "both references computed" 2 (onehot_count "computed" - computed0)

let test_onehot_memo_fill_rule () =
  let m = Benchmarks.Suite.find "lion" in
  let key = Exec.Job.machine_digest m in
  let memo = Serve.Onehot_memo.create () in
  let starved = Budget.create ~max_work:5 () in
  let v, source = Serve.Onehot_memo.reference memo ~key ~budget:starved m in
  check "a tripped run is computed" true (source = `Computed);
  check "and returned as the budget left it" true
    (v = Serve.Render.onehot_reference ~budget:(Budget.create ~max_work:5 ()) m);
  check_int "but not stored" 0 (Serve.Onehot_memo.length memo);
  let full = Serve.Render.onehot_reference ~budget:(Budget.create ()) m in
  let v, source = Serve.Onehot_memo.reference memo ~key ~budget:(Budget.create ()) m in
  check "an untripped run is computed" true (source = `Computed && v = full);
  check "and stored" true (Serve.Onehot_memo.find memo key = Some full);
  (* A stored value serves any budget, even one already spent. *)
  let v, source = Serve.Onehot_memo.reference memo ~key ~budget:starved m in
  check "then read back" true (source = `Memo && v = full)

(* The memo is exact: on every suite machine the stored value is the
   unlimited-budget reference the one-shot CLI prints. *)
let test_onehot_memo_exact_on_suite () =
  let memo = Serve.Onehot_memo.create () in
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let m = Lazy.force e.Benchmarks.Suite.machine in
      if (not e.Benchmarks.Suite.heavy) && Fsm.num_states ~m <= 60 then begin
        let key = Exec.Job.machine_digest m in
        ignore (Serve.Onehot_memo.reference memo ~key ~budget:(Budget.create ()) m);
        check (e.Benchmarks.Suite.name ^ ": memoized value is the one-shot reference") true
          (Serve.Onehot_memo.find memo key
          = Some (Serve.Render.onehot_reference ~budget:(Budget.create ()) m))
      end)
    Benchmarks.Suite.all

(* Distinct two-state machines, [i] spelled into the state names. *)
let tiny_machine i =
  Kiss.parse ~name:"tiny"
    (Printf.sprintf ".i 1\n.o 1\n0 a%d b%d 0\n1 b%d a%d 1\n.e\n" i i i i)

let test_onehot_memo_bounded () =
  let memo = Serve.Onehot_memo.create () in
  let n = Serve.Onehot_memo.capacity + 1 in
  let keys =
    List.init n (fun i ->
        let m = tiny_machine i in
        let key = Exec.Job.machine_digest m in
        ignore (Serve.Onehot_memo.reference memo ~key ~budget:(Budget.create ()) m);
        key)
  in
  check_int "at most capacity entries" Serve.Onehot_memo.capacity
    (Serve.Onehot_memo.length memo);
  check "the oldest was evicted" true (Serve.Onehot_memo.find memo (List.hd keys) = None);
  check "the newest is kept" true
    (Serve.Onehot_memo.find memo (List.nth keys (n - 1)) <> None)

(* ------------------------------------------------------------------ *)
(* Observability: stats byte-compat, the metrics verb, the access log,
   and the flight recorder *)

(* The stats response may only ever APPEND keys: every pre-metrics
   field — names, order, values — is pinned here against last_stats,
   so an existing client parsing the object sees identical bytes. *)
let test_serve_stats_byte_compat () =
  with_server @@ fun path ->
  let c = must_connect path in
  ignore (must_request c (Serve.Protocol.verb_line "ping"));
  let r = must_request c (Serve.Protocol.verb_line "stats") in
  Serve.Client.close c;
  let s = Serve.Server.last_stats () in
  let fields =
    match r.Serve.Protocol.raw with
    | Json_min.Obj fields -> fields
    | _ -> Alcotest.fail "stats reply is not an object"
  in
  (* Key order: the legacy keys exactly as before, new keys strictly
     after them (no cache configured here, so no cache_* fields). *)
  let legacy =
    [
      "status"; "payload"; "proto"; "requests"; "served"; "errors"; "coalesced";
      "computed"; "inflight_peak"; "uptime_s";
    ]
  in
  check "legacy keys first, in order, then only appended keys" true
    (List.filteri (fun i _ -> i < List.length legacy) (List.map fst fields) = legacy);
  check "metrics key appended" true (List.mem_assoc "metrics" fields);
  check "quarantine key appended" true (List.mem_assoc "quarantine" fields);
  (* Legacy values still mean what they meant. *)
  let num k =
    match List.assoc_opt k fields with Some (Json_min.Num n) -> int_of_float n | _ -> -1
  in
  check_int "requests" s.Serve.Server.requests (num "requests");
  (* The stats response counts itself as served only after its own
     snapshot was taken. *)
  check_int "served" (s.Serve.Server.served - 1) (num "served");
  check_int "errors" s.Serve.Server.errors (num "errors");
  check_int "coalesced" s.Serve.Server.coalesced (num "coalesced");
  check_int "computed" s.Serve.Server.computed (num "computed");
  check_int "inflight_peak" s.Serve.Server.inflight_peak (num "inflight_peak");
  (* The human payload is rebuilt byte-identically from the counters. *)
  let expected_payload =
    Printf.sprintf
      "serve stats: %d requests, %d served, %d errors\n\
       coalesced %d, computed %d, cache hits %d, peak in-flight %d\n\
       cache: off\n"
      s.Serve.Server.requests (s.Serve.Server.served - 1) s.Serve.Server.errors
      s.Serve.Server.coalesced s.Serve.Server.computed s.Serve.Server.cache_hits
      s.Serve.Server.inflight_peak
  in
  check_str "stats payload byte-compatible" expected_payload
    (Option.value r.Serve.Protocol.payload ~default:"")

let test_serve_metrics_verb () =
  with_server @@ fun path ->
  let c = must_connect path in
  ignore (must_request c (request_line ~algorithm:"igreedy" "lion"));
  let r = must_request c (Serve.Protocol.verb_line "metrics") in
  Serve.Client.close c;
  check "metrics ok" true r.Serve.Protocol.ok;
  let text = Option.value r.Serve.Protocol.payload ~default:"" in
  (match Metrics.Expose.lint text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "served exposition does not lint: %s" m);
  let doc = Option.get (Json_min.member "metrics" r.Serve.Protocol.raw) in
  let rows field =
    Option.value (Option.bind (Json_min.member field doc) Json_min.to_list) ~default:[]
  in
  let series_with name field =
    List.filter
      (fun row -> Option.bind (Json_min.member "name" row) Json_min.to_string = Some name)
      (rows field)
  in
  check "request counter present" true
    (series_with "nova_serve_requests_total" "counters" <> []);
  (* The encode above produced a per-tier latency series with quantiles. *)
  (* The registry is process-global, so earlier suites may have grown
     this series already — presence and positive quantiles are the
     invariant, not an absolute count. *)
  let tiered =
    List.filter
      (fun row ->
        match Json_min.member "labels" row with
        | Some labels ->
            Option.bind (Json_min.member "tier" labels) Json_min.to_string
              = Some "computed"
            && Option.bind (Json_min.member "verb" labels) Json_min.to_string
               = Some "encode"
        | None -> false)
      (series_with "nova_serve_request_seconds" "histograms")
  in
  (match tiered with
  | [ row ] ->
      let n k = Option.bind (Json_min.member k row) Json_min.to_float in
      check "computed tier counted" true
        (match n "count" with Some v -> v >= 1. | None -> false);
      List.iter
        (fun k -> check (k ^ " positive") true (match n k with Some v -> v > 0. | None -> false))
        [ "p50"; "p90"; "p99"; "sum" ]
  | rows -> Alcotest.failf "expected one computed-encode series, got %d" (List.length rows))

(* Every request line answered — good, bad, bare — is one access-log
   line; the 1:1 invariant is against the server's own request
   counter. *)
let test_serve_access_log () =
  with_temp_dir @@ fun dir ->
  let log = Filename.concat dir "access.jsonl" in
  with_server ~tweak:(fun c -> { c with Serve.Server.access_log = Some log }) (fun path ->
      let c = must_connect path in
      ignore (must_request c (request_line ~algorithm:"igreedy" "lion"));
      ignore (must_request c "{\"verb\":\"nope\"}");
      ignore (must_request c (Serve.Protocol.verb_line "stats"));
      Serve.Client.close c);
  let s = Serve.Server.last_stats () in
  let docs = read_jsonl log in
  check_int "one line per request, shutdown included" s.Serve.Server.requests
    (List.length docs);
  let str k d = Option.bind (Json_min.member k d) Json_min.to_string in
  let encode_line_doc = List.find (fun d -> str "verb" d = Some "encode") docs in
  check "encode logged with machine" true (str "machine" encode_line_doc = Some "lion");
  check "encode logged with algorithm" true
    (str "algorithm" encode_line_doc = Some "igreedy");
  check "encode logged with tier" true (str "tier" encode_line_doc = Some "computed");
  check "encode logged ok" true
    (Json_min.member "ok" encode_line_doc = Some (Json_min.Bool true));
  check "spent is a number" true
    (match Option.bind (Json_min.member "spent" encode_line_doc) Json_min.to_float with
    | Some v -> v >= 0.
    | None -> false);
  let invalid = List.find (fun d -> str "verb" d = Some "invalid") docs in
  check "bad request logged as invalid with its exit code" true
    (Option.bind (Json_min.member "code" invalid) Json_min.to_float = Some 5.);
  (* Request ids are unique and monotone. *)
  let ids =
    List.filter_map (fun d -> Option.bind (Json_min.member "id" d) Json_min.to_float) docs
  in
  check "ids monotone" true (List.sort_uniq compare ids = ids)

(* A chaos-crashed request must be recoverable from the flight
   recorder: the ring keeps its verb and exit code 7, through the
   flightrec verb and the shutdown dump alike. *)
let test_serve_flight_recorder () =
  with_temp_dir @@ fun dir ->
  let dump = Filename.concat dir "flight.json" in
  with_server ~tweak:(fun c ->
      { c with Serve.Server.flight_record = Some dump; flight_capacity = 8 })
    (fun path ->
      Fun.protect ~finally:Exec.Chaos.disable @@ fun () ->
      (match Exec.Chaos.configure ~seed:11 "serve:1" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "chaos spec: %s" m);
      let c = must_connect path in
      let r1 = must_request c (Serve.Protocol.verb_line "ping") in
      let r2 = must_request c (Serve.Protocol.verb_line "ping") in
      check_int "one injected crash" 1
        (List.length
           (List.filter (fun (r : Serve.Protocol.reply) -> not r.Serve.Protocol.ok) [ r1; r2 ]));
      Exec.Chaos.disable ();
      let r = must_request c (Serve.Protocol.verb_line "flightrec") in
      check "flightrec ok" true r.Serve.Protocol.ok;
      let doc = Json_min.of_string (Option.value r.Serve.Protocol.payload ~default:"null") in
      check "flightrec schema" true
        (Option.bind (Json_min.member "schema" doc) Json_min.to_string
        = Some "nova-flightrec/v1");
      let entries =
        Option.value (Option.bind (Json_min.member "entries" doc) Json_min.to_list)
          ~default:[]
      in
      let crashed =
        List.filter
          (fun e -> Option.bind (Json_min.member "code" e) Json_min.to_float = Some 7.)
          entries
      in
      check_int "the crashed ping is in the ring" 1 (List.length crashed);
      check "crash recorded as a ping" true
        (Option.bind (Json_min.member "verb" (List.hd crashed)) Json_min.to_string
        = Some "ping");
      (* The flightrec request refreshed the on-disk artifact too. *)
      check "flight-record artifact written" true (Sys.file_exists dump);
      Serve.Client.close c);
  (* Shutdown rewrote the artifact with its own reason, and the crash
     is still recoverable from disk. *)
  let doc = Json_min.of_file dump in
  check "shutdown dump reason" true
    (Option.bind (Json_min.member "reason" doc) Json_min.to_string = Some "shutdown");
  let entries =
    Option.value (Option.bind (Json_min.member "entries" doc) Json_min.to_list) ~default:[]
  in
  check "crash recoverable from the shutdown dump" true
    (List.exists
       (fun e -> Option.bind (Json_min.member "code" e) Json_min.to_float = Some 7.)
       entries)

(* ------------------------------------------------------------------ *)
(* Lifecycle: stale sockets, live refusal, shutdown sweep *)

let test_serve_stale_socket_replaced () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "s.sock" in
  (* A leftover socket file nothing listens on must not block startup —
     with_server's clean-shutdown checks prove the rebind worked. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  check "stale socket file present" true (Sys.file_exists path);
  let config =
    { (Serve.Server.default_config ~socket_path:path) with Serve.Server.quiet = true }
  in
  let result = ref (Error (Nova_error.Invalid_request "never ran")) in
  let th = Thread.create (fun () -> result := Serve.Server.run config) () in
  let rec await n =
    if n = 0 then Alcotest.fail "server did not replace the stale socket"
    else
      match Serve.Client.connect path with
      | Ok c -> c
      | Error _ ->
          Thread.delay 0.02;
          await (n - 1)
  in
  let c = await 250 in
  (* A second server pointed at the live socket must refuse. *)
  check "live socket refused" true
    (match Serve.Server.run config with
    | Error (Nova_error.Invalid_request _) -> true
    | Ok () | Error _ -> false);
  ignore (Serve.Client.request c (Serve.Protocol.verb_line "shutdown"));
  Serve.Client.close c;
  Thread.join th;
  check "clean shutdown" true (!result = Ok ());
  check "socket removed" false (Sys.file_exists path)

(* A stale writer temp file of this very process (the exact signature
   sweep_own_tmp hunts) planted before the run: shutdown must remove
   it without touching foreign processes' files. The check runs after
   [with_server] returns — shutdown has happened by then. *)
let test_serve_shutdown_sweep () =
  with_temp_dir @@ fun cache_dir ->
  let own =
    Filename.concat cache_dir
      (Printf.sprintf "deadbeef.nova-cache.tmp.%d.0" (Unix.getpid ()))
  in
  let foreign = Filename.concat cache_dir "cafe.nova-cache.tmp.999999.0" in
  List.iter
    (fun p ->
      let oc = open_out p in
      output_string oc "partial";
      close_out oc)
    [ own; foreign ];
  with_server ~tweak:(fun c ->
      { c with Serve.Server.cache = Some (Exec.Cache.open_dir cache_dir) })
    (fun _path -> ());
  check "own stale tmp swept at shutdown" false (Sys.file_exists own);
  check "foreign tmp untouched" true (Sys.file_exists foreign)

(* ------------------------------------------------------------------ *)
(* Two processes, one cache directory: serve_racer.exe runs a second
   daemon against the same cache while this one serves — the on-disk
   lock protocol must keep both payloads byte-identical and the
   directory structurally clean. *)

let test_serve_two_process_shared_cache () =
  with_temp_dir @@ fun cache_dir ->
  with_temp_dir @@ fun sock_dir ->
  let racer = Filename.concat (Filename.dirname Sys.executable_name) "serve_racer.exe" in
  check "racer helper built" true (Sys.file_exists racer);
  let spawn i =
    let out = Filename.concat sock_dir (Printf.sprintf "racer%d.out" i) in
    let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process racer
        [|
          racer;
          Filename.concat sock_dir (Printf.sprintf "racer%d.sock" i);
          cache_dir; "keyb";
        |]
        Unix.stdin fd Unix.stderr
    in
    Unix.close fd;
    (pid, out)
  in
  let a = spawn 0 and b = spawn 1 in
  let digest_of (pid, out) =
    let _, status = Unix.waitpid [] pid in
    check "racer exited cleanly" true (status = Unix.WEXITED 0);
    let ic = open_in out in
    let d = input_line ic in
    close_in ic;
    d
  in
  let da = digest_of a and db = digest_of b in
  check_str "both daemons served the identical payload" da db;
  (* The shared directory survived the concurrent stores. *)
  let r = Exec.Cache.fsck (Exec.Cache.open_dir cache_dir) in
  check "cache structurally clean after the race" true
    (r.Exec.Cache.valid = r.Exec.Cache.scanned && r.Exec.Cache.scanned >= 1)

(* The line transport under signals: a writer blocked on a full
   socketpair while a slow reader drains it, with SIGALRM firing every
   millisecond and masked in the reader, so it lands on the writer or
   on a thread that does not block. Every byte must arrive exactly once
   and in order whether or not a signal interrupted a write; the log
   says whether one did. The pattern's period (251) shares no factor
   with the 64 KiB write chunk, so a repeated or skipped chunk shows.
   The timer stops after 200 signals: a write that restarts from its
   first byte on every signal would otherwise never finish. *)
let test_line_io_write_survives_signals () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.init (1 lsl 20) (fun i -> Char.chr (i mod 251)) in
  let received = Buffer.create (String.length payload) in
  let reader =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ]);
        let chunk = Bytes.create 16384 in
        let rec go () =
          match Unix.read b chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes received chunk 0 n;
              Thread.delay 0.001;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ())
      ()
  in
  let signals = ref 0 in
  let timer period = { Unix.it_interval = period; it_value = period } in
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           incr signals;
           if !signals = 200 then ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.))))
  in
  let interrupted =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.));
        (* A signal still pending runs the counting handler, not the
           default action, before the old handler comes back. *)
        Unix.sleepf 0.01;
        Sys.set_signal Sys.sigalrm old)
      (fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.001));
        Serve.Line_io.write_all a payload)
  in
  Unix.close a;
  Thread.join reader;
  Unix.close b;
  check_int "every byte arrived once" (String.length payload) (Buffer.length received);
  check "in order" true (String.equal payload (Buffer.contents received));
  Printf.printf "write_all: %d of %d SIGALRMs interrupted a write (EINTR %s)\n" interrupted
    !signals
    (if interrupted > 0 then "landed" else "did not land")

(* The line reader on lines that share a read and on one that spans
   many: a writer sends several lines in pieces that end mid-line, and
   the reader must return each line whole, in order, then end of stream. *)
let test_line_io_reads_lines_across_chunks () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let long = String.init 300_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let lines = [ "a"; ""; "bb"; long; "c" ] in
  let text = String.concat "\n" lines ^ "\n" in
  let writer =
    Thread.create
      (fun () ->
        let rec go off =
          if off < String.length text then begin
            let len = min 70_001 (String.length text - off) in
            ignore (Serve.Line_io.write_all a (String.sub text off len));
            go (off + len)
          end
        in
        go 0;
        Unix.close a)
      ()
  in
  let r = Serve.Line_io.reader b in
  List.iter
    (fun want ->
      match Serve.Line_io.read_line r with
      | Ok got ->
          check_int "line length" (String.length want) (String.length got);
          check "line bytes" true (String.equal want got)
      | Error _ -> Alcotest.fail "line missing")
    lines;
  check "then end of stream" true (Serve.Line_io.read_line r = Error Serve.Line_io.Eof);
  Thread.join writer;
  Unix.close b

let suite =
  [
    Alcotest.test_case "protocol: verb lines" `Quick test_protocol_verbs;
    Alcotest.test_case "protocol: encode round-trip" `Quick test_protocol_encode_roundtrip;
    Alcotest.test_case "protocol: kiss2 report round-trip" `Quick test_protocol_kiss2_and_report;
    Alcotest.test_case "protocol: typed errors" `Quick test_protocol_errors_typed;
    Alcotest.test_case "protocol: fuzz never raises" `Quick test_protocol_fuzz_never_raises;
    Alcotest.test_case "protocol: reply round-trip" `Quick test_protocol_reply_roundtrip;
    Alcotest.test_case "serve: ping and stats" `Quick test_serve_ping_and_stats;
    Alcotest.test_case "serve: payload byte-identical to one-shot" `Quick
      test_serve_payload_byte_identical;
    Alcotest.test_case "serve: warm requests hit the cache" `Quick test_serve_warm_hits_cache;
    Alcotest.test_case "serve: constrained requests are individual" `Quick
      test_serve_constrained_is_individual;
    Alcotest.test_case "serve: report parity" `Slow test_serve_report_parity;
    Alcotest.test_case "serve: wire garbage" `Quick test_serve_wire_garbage;
    Alcotest.test_case "serve: truncation and disconnect" `Quick
      test_serve_wire_truncation_reassembly;
    Alcotest.test_case "serve: oversized line" `Quick test_serve_wire_oversized_line;
    Alcotest.test_case "line transport: a signalled write delivers every byte once" `Quick
      test_line_io_write_survives_signals;
    Alcotest.test_case "line transport: lines across chunk boundaries" `Quick
      test_line_io_reads_lines_across_chunks;
    Alcotest.test_case "serve: chaos site answers typed" `Quick test_serve_chaos_typed_crash;
    Alcotest.test_case "serve: plain requests share one 1-hot reference" `Quick
      test_serve_onehot_memo;
    Alcotest.test_case "serve: a capped reference never fills the memo" `Quick
      test_serve_onehot_capped_never_fills;
    Alcotest.test_case "onehot memo: fill rule" `Quick test_onehot_memo_fill_rule;
    Alcotest.test_case "onehot memo: exact on the suite" `Slow test_onehot_memo_exact_on_suite;
    Alcotest.test_case "onehot memo: bounded, oldest evicted" `Quick test_onehot_memo_bounded;
    Alcotest.test_case "serve: stats keys byte-compatible" `Quick test_serve_stats_byte_compat;
    Alcotest.test_case "serve: metrics verb lints and carries tiers" `Quick
      test_serve_metrics_verb;
    Alcotest.test_case "serve: access log is 1:1 with requests" `Quick test_serve_access_log;
    Alcotest.test_case "serve: flight recorder keeps the crash" `Quick
      test_serve_flight_recorder;
    Alcotest.test_case "inflight: one leader, shared result" `Quick test_inflight_unit;
    Alcotest.test_case "serve: K clients coalesce to one computation" `Slow
      test_serve_coalescing;
    Alcotest.test_case "serve: stale socket replaced, live refused" `Quick
      test_serve_stale_socket_replaced;
    Alcotest.test_case "serve: shutdown sweeps own cache tmp" `Quick test_serve_shutdown_sweep;
    Alcotest.test_case "serve: two processes share one cache" `Slow
      test_serve_two_process_shared_cache;
  ]
