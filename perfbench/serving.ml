(* serve-hit and serve-miss: the built [nova serve] runs as a child
   process on a private socket and cache directory; two connections from
   this process send plain encode requests in a closed loop, in lockstep
   pairs. *)

open Harness

type kind = Hit | Miss

let connections = 2

(* Within a pair, connection [i] sends [stagger] after connection
   [i - 1]. The daemon's request threads share one OCaml domain, so the
   request that takes the runtime lock first computes first and the
   other waits; sent together, which one wins is a race, and a slot's
   best latency would come from whichever run it went the rare way. Sent
   this far apart, connection 0's request is always under way first. *)
let stagger = 0.002

(* How a request names its machine, so the check can rebuild it. *)
type request = { label : string; line : string; machine : Serve.Protocol.machine_ref; base : int }

type sent = { conn : int; req : request; reply : (Serve.Protocol.reply, string) result; latency : float }

let algorithm = function Hit -> Inputs.hit_algorithm | Miss -> Inputs.miss_algorithm

let request kind machine ~label ~base =
  let line = Serve.Protocol.encode_line ~algorithm:(Driver.name (algorithm kind)) machine in
  { label; line; machine; base }

(* Cycle [cycle] of connection [conn]'s request stream. *)
let cycle_of kind ~seed ~bases ~conn ~cycle =
  match kind with
  | Hit ->
      Array.to_list
        (Array.map
           (fun name -> request kind (Serve.Protocol.Builtin name) ~label:name ~base:(-1))
           (Inputs.hit_cycle ~seed ~conn))
  | Miss ->
      List.map
        (fun (x : Inputs.miss_input) ->
          request kind
            (Serve.Protocol.Kiss2 { name = Some x.Inputs.name; text = x.Inputs.kiss2 })
            ~label:x.Inputs.name ~base:x.Inputs.base)
        (Inputs.miss_requests ~block:Inputs.miss_block.(conn) (Inputs.miss_cycle ~seed ~conn ~cycle bases))

(* A client connection of the benchmark's own: one request line out,
   one response line back, so both connections can be read as their
   replies arrive. *)
type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let send c line =
  let n = String.length line in
  let b = Bytes.of_string (if n > 0 && line.[n - 1] = '\n' then line else line ^ "\n") in
  let rec go off = if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off)) in
  go 0

(* Read what is available; [Some line] once a whole reply is in. *)
let read_reply c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then Some (Error "server closed the connection")
  else begin
    Buffer.add_subbytes c.buf c.chunk 0 n;
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
        Some (Serve.Protocol.parse_reply (String.sub s 0 i))
  end

(* The closed loop: both connections send their next request, [stagger]
   apart, and the next pair goes once both have replied, so each request
   meets the same concurrent request on every run. Each latency runs from
   the request's own send. Whole cycles from [first],
   until [seconds] of wall time have gone, at least one. Request [k] of
   connection [c] is op slot [k * connections + c] and the same work on
   every cycle; a pair's step is the time until both replies are in.
   [between] runs after each pair, given the time gone, and returns the
   time it took, which the timed phase leaves out. Returns each
   connection's requests in order, and the timing. *)
let drive ?(between = fun ~elapsed:_ -> 0.) ~socket ~first ~seconds next_cycle =
  let conns = Array.init connections (fun _ -> connect socket) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()) conns)
  @@ fun () ->
  let sent = Array.make connections [] in
  let pair (reqs : request array) =
    let t0 = Unix.gettimeofday () in
    let sent_at = Array.make connections t0 in
    let pending = ref [] in
    (* Read replies as they arrive, until [until] or none is pending. *)
    let collect ~until =
      while !pending <> [] && Unix.gettimeofday () < until do
        let wait = if until = infinity then -1. else until -. Unix.gettimeofday () in
        let ready, _, _ = Unix.select (List.map (fun i -> conns.(i).fd) !pending) [] [] (Float.max 0. wait) in
        List.iter
          (fun i ->
            if List.mem conns.(i).fd ready then
              match read_reply conns.(i) with
              | None -> ()
              | Some reply ->
                  let latency = Unix.gettimeofday () -. sent_at.(i) in
                  sent.(i) <- { conn = i; req = reqs.(i); reply; latency } :: sent.(i);
                  pending := List.filter (( <> ) i) !pending)
          !pending
      done
    in
    for i = 0 to connections - 1 do
      if i > 0 then collect ~until:(Unix.gettimeofday () +. stagger);
      sent_at.(i) <- Unix.gettimeofday ();
      send conns.(i) reqs.(i).line;
      pending := !pending @ [ i ]
    done;
    collect ~until:infinity;
    Unix.gettimeofday () -. t0
  in
  let steps = List.length (next_cycle ~conn:0 ~cycle:first) in
  let best = Array.make (steps * connections) infinity in
  let best_step = Array.make steps infinity in
  let start = Unix.gettimeofday () in
  let paused = ref 0. in
  let elapsed () = Unix.gettimeofday () -. start -. !paused in
  let cycle = ref first in
  while !cycle = first || elapsed () < seconds do
    let streams = Array.init connections (fun conn -> Array.of_list (next_cycle ~conn ~cycle:!cycle)) in
    for k = 0 to steps - 1 do
      best_step.(k) <- Float.min best_step.(k) (pair (Array.map (fun st -> st.(k)) streams));
      Array.iteri
        (fun c replies ->
          let slot = (k * connections) + c in
          best.(slot) <- Float.min best.(slot) (List.hd replies).latency)
        sent;
      paused := !paused +. between ~elapsed:(elapsed ())
    done;
    incr cycle
  done;
  let timed_s = elapsed () in
  let sent = Array.map List.rev sent in
  ( sent,
    {
      Outcome.best;
      best_pass_s = Array.fold_left ( +. ) 0. best_step;
      latencies = List.concat_map (fun s -> List.map (fun x -> x.latency) s) (Array.to_list sent);
      passes = !cycle - first;
      timed_s;
    } )

(* --- set-up ------------------------------------------------------------------ *)

(* serve-miss warms the daemon with one compute outside its stream. *)
let warm_up =
  Serve.Protocol.encode_line ~algorithm:(Driver.name Inputs.miss_algorithm) (Serve.Protocol.Builtin "bbara")

(* Set-up [k]: generate the inputs, spawn a daemon on a fresh socket and
   cache directory, wait for its ping, then warm it: serve-hit fills the
   cache with one pass over the working set. *)
let setup kind ~nova ~tmp ~seed ~k =
  let t0 = Unix.gettimeofday () in
  let bases =
    match kind with
    | Hit -> [||]
    | Miss -> Array.of_list (List.map Inputs.base_machine Inputs.miss_bases)
  in
  let next_cycle = cycle_of kind ~seed ~bases in
  let cache_dir = Filename.concat tmp (Printf.sprintf "cache-%d" k) in
  let socket = Filename.concat tmp (Printf.sprintf "d%d.sock" k) in
  let d = Daemon.spawn ~nova ~socket ~cache_dir in
  match Daemon.connect d ~timeout_s:30. with
  | Error e -> failwith ("nova serve did not come up: " ^ e)
  | Ok ctl ->
      (match kind with
      | Hit -> ignore (drive ~socket ~first:(-1) ~seconds:0. next_cycle)
      | Miss -> ignore (Daemon.request ctl warm_up));
      (d, ctl, next_cycle, Unix.gettimeofday () -. t0)

(* --- checks ------------------------------------------------------------------ *)

type expected = { payload : string; success : Exec.Job.success }

(* The machine a request names, as the daemon resolves it. *)
let resolve r ~op = function
  | Serve.Protocol.Builtin name -> Ok (Benchmarks.Suite.find name)
  | Serve.Protocol.Kiss2 { name; text } ->
      Result.map_error Kiss.error_to_string
        (Layers.parse r ~op ~name:(Option.value name ~default:"request") text)

(* The reference for a request: a fresh in-process [Driver.report] of
   the same input, rendered as the one-shot CLI would print it. *)
let expect kind (req : request) =
  match resolve Spans.off ~op:0 req.machine with
  | Error e -> Error e
  | Ok m -> (
      let budget = Budget.create () in
      match Driver.report ~budget m (algorithm kind) with
      | Error e -> Error (Nova_error.to_string e)
      | Ok (o, impl) ->
          let s = Layers.success_of o impl in
          let cert = Check.certify m (Exec.Job.artifacts_of s) in
          if not cert.Check.ok then Error (Check.summary cert)
          else
            let onehot = Serve.Render.onehot_reference ~budget m in
            Ok
              {
                payload =
                  Serve.Render.encode_text m o.Driver.encoding ~num_cubes:impl.Encoded.num_cubes
                    ~area:impl.Encoded.area ~onehot;
                success = s;
              })

(* The references are computed once per distinct input, on both cores:
   the daemon is stopped by now, and the check is outside the timing. *)
let check kind sent =
  let distinct = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace distinct s.req.label s.req) sent;
  let reqs = Array.of_seq (Hashtbl.to_seq_values distinct) in
  let refs = Exec.Pool.map ~jobs:2 reqs ~f:(expect kind) in
  let expected = Hashtbl.create 64 in
  Array.iteri (fun i (req : request) -> Hashtbl.replace expected req.label refs.(i)) reqs;
  let failures =
    List.filter_map
      (fun s ->
        let fail why = Some (Printf.sprintf "%s (connection %d): %s" s.req.label s.conn why) in
        match (s.reply, Hashtbl.find expected s.req.label) with
        | Error e, _ -> fail ("transport: " ^ e)
        | Ok r, _ when not r.Serve.Protocol.ok ->
            fail ("error reply: " ^ Option.value r.Serve.Protocol.error ~default:"")
        | Ok _, Error e -> fail ("in-process reference: " ^ e)
        | Ok r, Ok e ->
            if r.Serve.Protocol.payload <> Some e.payload then fail "payload differs from the one-shot bytes"
            else None)
      sent
  in
  (failures, expected)

(* --- per-layer metrics --------------------------------------------------------- *)

let phase before after p =
  Daemon.hist_sum after ~labels:[ ("phase", p) ] "nova_serve_phase_seconds"
  -. Daemon.hist_sum before ~labels:[ ("phase", p) ] "nova_serve_phase_seconds"

let delta before after ?labels name = Daemon.counter after ?labels name -. Daemon.counter before ?labels name

(* The daemon's own view of the timed phase, from its metrics verb: the
   four lifecycle phases as means per op (histogram sums over ops, so
   they add up), the round trip the clients saw, and what is left for
   the socket, framing, thread hand-off and machine resolution. *)
let daemon_metrics before after latencies =
  let n = float_of_int (max 1 (List.length latencies)) in
  let per_op p = Layers.ms (phase before after p /. n) in
  let parse = per_op "parse" and admission = per_op "admission" in
  let compute = per_op "compute" and render = per_op "render" in
  let roundtrip = Layers.ms (Stats.mean latencies) in
  let event e = delta before after ~labels:[ ("event", e) ] "nova_cache_events_total" in
  [
    ("serve.roundtrip_ms", roundtrip); ("serve.parse_ms", parse);
    ("serve.admission_wait_ms", admission); ("serve.compute_ms", compute);
    ("serve.render_ms", render);
    ("serve.transport_ms", roundtrip -. (parse +. admission +. compute +. render));
    ("serve.coalesced", delta before after "nova_inflight_followers_total");
    ("cache.hit_ratio", Layers.ratio (event "hit") (event "hit" +. event "miss"));
  ]

(* The in-process replay of one served request, against a cache
   directory in the state the daemon's was in. *)
let replay_op r ~op ~cache line =
  Spans.record r ~op "op" @@ fun () ->
  match Layers.parse_request r ~op line with
  | Error (_, e) -> Error (Nova_error.to_string e)
  | Ok { Serve.Protocol.request = Serve.Protocol.Encode req; id } -> (
      match resolve r ~op req.Serve.Protocol.machine with
      | Error e -> Error e
      | Ok m -> (
          let task =
            Exec.Job.task ?bits:req.Serve.Protocol.bits ~fallback:req.Serve.Protocol.fallback m
              req.Serve.Protocol.algorithm
          in
          let budget = Budget.create () in
          let result, origin =
            match Layers.cache_find r ~op cache task with
            | Some s -> (Ok s, "cached")
            | None -> (
                match Layers.job r ~op ~budget task with
                | Ok s ->
                    Layers.cache_store r ~op cache task s;
                    (Ok s, "computed")
                | Error e -> (Error e, "computed"))
          in
          match result with
          | Error e -> Error (Nova_error.to_string e)
          | Ok s ->
              let onehot = Layers.onehot r ~op ~budget m in
              let payload =
                Layers.text r ~op m s.Exec.Job.encoding ~num_cubes:s.Exec.Job.num_cubes
                  ~area:s.Exec.Job.area onehot
              in
              Ok (Layers.ok_response r ~op ?id ~origin payload)))
  | Ok _ -> Error "not an encode request"

(* Requests replayed per connection: whole cycles (two of serve-hit's,
   one of serve-miss's), few enough to keep the traced run short. *)
let replay_per_connection = function
  | Hit -> 2 * Array.length Inputs.hit_halves.(0)
  | Miss -> 2 * List.length Inputs.miss_bases

let replay kind ~tmp ~cache_dir streams =
  let lines =
    List.concat_map
      (fun stream -> List.filteri (fun i _ -> i < replay_per_connection kind) stream)
      (Array.to_list streams)
  in
  let run r dir =
    let cache = Exec.Cache.open_dir dir in
    List.mapi
      (fun i s ->
        let t0 = Unix.gettimeofday () in
        Layers.traced_op r (fun () -> ignore (replay_op r ~op:i ~cache s.req.line));
        Unix.gettimeofday () -. t0)
      lines
  in
  (* serve-hit replays against the daemon's filled cache; serve-miss
     against an empty one, fresh for each replay. The untraced replay's
     latencies are the base of the tracing overhead. *)
  let dir name = match kind with Hit -> cache_dir | Miss -> Filename.concat tmp name in
  let untraced = run Spans.off (dir "replay-plain") in
  let r = Spans.create () in
  ignore (run r (dir "replay-traced"));
  (r, Layers.overhead r untraced)

(* --- the workload --------------------------------------------------------------- *)

let run kind ~nova ~tmp ~seed ~seconds ~trace =
  let hygiene = ref [] in
  (* The first set-up's daemon serves the timed phase; each of the others
     is started between pairs and shut down at once. *)
  let d, ctl, next_cycle, first = setup kind ~nova ~tmp ~seed ~k:0 in
  let k = ref 0 in
  let setups =
    Layers.spread_setups ~seconds ~first (fun () ->
        incr k;
        let d, ctl, _, dt = setup kind ~nova ~tmp ~seed ~k:!k in
        hygiene := !hygiene @ Daemon.shutdown d ctl;
        dt)
  in
  let before = Result.get_ok (Daemon.scrape ctl) in
  let streams, timing =
    drive ~between:setups.Layers.tick ~socket:d.Daemon.socket ~first:0 ~seconds next_cycle
  in
  let after = Result.get_ok (Daemon.scrape ctl) in
  let setups = setups.Layers.finish () in
  let peak_rss_mb = Daemon.peak_rss_mb d.Daemon.pid in
  hygiene := !hygiene @ Daemon.shutdown d ctl;
  let sent = List.concat (Array.to_list streams) in
  let failures, expected = check kind sent in
  (* Quality over the distinct inputs: the working set on serve-hit,
     one copy of each generated base on serve-miss. *)
  let per_input = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let key = match kind with Hit -> s.req.label | Miss -> string_of_int s.req.base in
      match Hashtbl.find_opt expected s.req.label with
      | Some (Ok e) when not (Hashtbl.mem per_input key) -> Hashtbl.add per_input key e.success
      | _ -> ())
    sent;
  let area, cubes =
    Hashtbl.fold (fun _ (s : Exec.Job.success) (a, c) -> (a + s.Exec.Job.area, c + s.Exec.Job.num_cubes)) per_input (0, 0)
  in
  let latencies = List.map (fun s -> s.latency) sent in
  let trace =
    if not trace then None
    else
      let r, overhead = replay kind ~tmp ~cache_dir:d.Daemon.cache_dir streams in
      Some (r, ("trace_overhead_ratio", overhead) :: daemon_metrics before after latencies)
  in
  let population =
    match kind with
    | Hit -> Array.fold_left (fun n half -> n + Array.length half) 0 Inputs.hit_halves
    | Miss -> List.length Inputs.miss_bases
  in
  {
    Outcome.inputs = population;
    digest =
      Inputs.digest
        (List.concat_map
           (fun conn -> List.map (fun q -> q.line) (next_cycle ~conn ~cycle:0))
           (List.init connections Fun.id));
    attempted = List.length sent;
    failures = failures @ !hygiene;
    timing;
    setups;
    pla_area_total = area;
    product_terms_total = cubes;
    peak_rss_mb;
    trace;
    notes =
      [
        Printf.sprintf "daemon: %d set-ups, %d hygiene failures; hits %.0f, misses %.0f, coalesced %.0f"
          Spec.setups (List.length !hygiene)
          (delta before after ~labels:[ ("event", "hit") ] "nova_cache_events_total")
          (delta before after ~labels:[ ("event", "miss") ] "nova_cache_events_total")
          (delta before after "nova_inflight_followers_total");
      ];
  }
