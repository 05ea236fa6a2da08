(* The benchmark's calls into each layer's public function. Untraced
   runs pass {!Spans.off} and get the bare calls; the traced run records
   one span per call, the counts beside it, and the probes described in
   {!Spans}. *)

open Harness

let parse r ~op ~name text = Spans.record r ~op "fsm.parse" (fun () -> Kiss.parse_result ~name text)

(* What a finished [Driver.encode] computed upstream of its rungs. The
   encode builds both artifacts lazily, once each, as the rungs it
   visits need them: the input constraints for the constraint-driven
   rungs, the symbolic-minimization problem for iohybrid and iovariant;
   [Symbolic.of_fsm] runs when either does. Mustang, one-hot and random
   use neither. *)
type forced = { constraints : bool; symbmin : bool }

let forced (o : Driver.outcome) =
  let visited = o.Driver.produced_by :: List.map fst o.Driver.degradations in
  let any rungs = List.exists (fun r -> List.mem r rungs) visited in
  {
    constraints =
      any
        Driver.
          [ Rung_iexact; Rung_semiexact; Rung_project; Rung_ihybrid; Rung_igreedy; Rung_kiss ];
    symbmin = any Driver.[ Rung_iohybrid; Rung_iovariant ];
  }

(* [Driver.encode] is the nova layer plus whatever constraint extraction
   and symbolic minimization its ladder forced; those are probed after
   the op, only when the encode ran them, and filed under this span. *)
let encode r ~op ~budget ?bits ~fallback m algo =
  let id = Spans.fresh_id r in
  let res = Spans.record r ~id ~op "nova.search" (fun () -> Driver.encode ?bits ~budget ~fallback m algo) in
  (match res with
  | Ok o ->
      let f = forced o in
      if f.constraints || f.symbmin then
        Spans.probe r (fun () ->
            let sym =
              Spans.record r ~parent:id ~op "constraints.extract" (fun () ->
                  let sym = Symbolic.of_fsm m in
                  if f.constraints then begin
                    let ics = Constraints.of_symbolic sym in
                    Spans.count r ~op "constraints.input_constraints" (float_of_int (List.length ics))
                  end;
                  sym)
            in
            if f.symbmin then
              Spans.record r ~parent:id ~op "symbmin.run" (fun () -> ignore (Symbmin.run sym)));
      Spans.count r ~op "nova.runs" 1.;
      Spans.count r ~op "nova.work_ticks" (float_of_int (Budget.spent budget));
      Spans.count r ~op "nova.degraded" (if o.Driver.degradations = [] then 0. else 1.)
  | Error _ -> ());
  res

let implement r ~op ~budget m encoding =
  let impl =
    Spans.record r ~op "espresso.implement" (fun () -> Encoded.implement ~budget m encoding)
  in
  Spans.count r ~op "espresso.cubes_out" (float_of_int impl.Encoded.num_cubes);
  impl

let onehot r ~op ~budget m =
  Spans.record r ~op "render.onehot" (fun () -> Serve.Render.onehot_reference ~budget m)

let text r ~op m encoding ~num_cubes ~area onehot =
  Spans.record r ~op "render.text" (fun () ->
      Serve.Render.encode_text m encoding ~num_cubes ~area ~onehot)

(* [Check.certify], with its trace-equivalence check filed beneath it
   from the certificate's own timing. *)
let certify r ?parent ~op m artifacts =
  let id = Spans.fresh_id r in
  let t0 = Unix.gettimeofday () in
  let cert = Spans.record r ~id ?parent ~op "check.certify" (fun () -> Check.certify m artifacts) in
  List.iter
    (fun (c : Check.outcome) ->
      if c.Check.id = Check.Trace_equivalence then
        Spans.add r ~parent:id ~op "check.trace_equivalence" ~t0 ~t1:(t0 +. c.Check.span_s))
    cert.Check.checks;
  cert

(* The job's result as [Exec.Job.run] packages it. *)
let success_of (o : Driver.outcome) (impl : Encoded.result) =
  {
    Exec.Job.encoding = o.Driver.encoding;
    produced_by = o.Driver.produced_by;
    degraded = List.map fst o.Driver.degradations;
    claims = o.Driver.claims;
    cover = impl.Encoded.cover;
    num_cubes = impl.Encoded.num_cubes;
    area = impl.Encoded.area;
  }

(* [Exec.Job.run] spelled out ([Driver.report] is encode then
   implement), so its nova and espresso shares are timed apart. *)
let job r ~op ~budget (task : Exec.Job.task) =
  let m = task.Exec.Job.machine in
  match
    encode r ~op ~budget ?bits:task.Exec.Job.bits ~fallback:task.Exec.Job.fallback m
      task.Exec.Job.algorithm
  with
  | Error e -> Error e
  | Ok o -> Ok (success_of o (implement r ~op ~budget m o.Driver.encoding))

(* The budget [Exec.Job.run] gives a task. *)
let task_budget (task : Exec.Job.task) =
  match task.Exec.Job.max_work with
  | Some w -> Budget.create ~max_work:w ()
  | None -> Budget.create ()

(* [Exec.Cache.find] recertifies what it reads, and [Exec.Cache.store]
   certifies what it is given before it writes. Each certificate is
   probed after the op and filed under the find or store it belongs to,
   so their self times are the cache's own checksum, parse and I/O. *)
let certify_under r ~op ~parent (task : Exec.Job.task) s =
  Spans.probe r (fun () ->
      ignore (certify r ~parent ~op task.Exec.Job.machine (Exec.Job.artifacts_of s)))

let cache_find r ~op cache (task : Exec.Job.task) =
  let id = Spans.fresh_id r in
  let found = Spans.record r ~id ~op "cache.find" (fun () -> Exec.Cache.find cache task) in
  (match found with
  | Some s ->
      Spans.count r ~op "espresso.cubes_out" (float_of_int s.Exec.Job.num_cubes);
      certify_under r ~op ~parent:id task s
  | None -> ());
  found

let cache_store r ~op cache task s =
  let id = Spans.fresh_id r in
  Spans.record r ~id ~op "cache.store" (fun () -> Exec.Cache.store cache task s);
  certify_under r ~op ~parent:id task s

let parse_request r ~op line =
  Spans.record r ~op "protocol.parse" (fun () -> Serve.Protocol.parse_request line)

let ok_response r ~op ?id ~origin payload =
  Spans.record r ~op "protocol.ok" (fun () -> Serve.Protocol.ok_response ?id ~origin ~payload ())

(* --- per-layer metrics from the trace -------------------------------------- *)

let ms x = 1000. *. x

let sum_counts r name = List.fold_left ( +. ) 0. (Spans.counts_per_op name r)

let ratio a b = if b > 0. then a /. b else 0.

(* A [_ms] metric is the median over ops of the layer's summed self
   time in that op, taken over the ops where the layer ran (0 when it
   never did); a count is a mean per op. *)
let span_metrics r =
  let spans = Spans.spans r in
  let self names = ms (Stats.median (Spans.self_per_op names spans)) in
  let mean_count name = Stats.mean (Spans.counts_per_op name r) in
  [
    ("fsm.parse_ms", self [ "fsm.parse" ]);
    ("constraints.extract_ms", self [ "constraints.extract" ]);
    ("constraints.input_constraints", mean_count "constraints.input_constraints");
    ("symbmin.run_ms", self [ "symbmin.run" ]);
    ("nova.search_ms", self [ "nova.search" ]);
    ("nova.work_ticks", mean_count "nova.work_ticks");
    ("nova.degraded_ratio", ratio (sum_counts r "nova.degraded") (sum_counts r "nova.runs"));
    ("espresso.implement_ms", self [ "espresso.implement" ]);
    ("espresso.cubes_out", mean_count "espresso.cubes_out");
    ("render.onehot_ms", self [ "render.onehot" ]);
    ("render.text_ms", self [ "render.text" ]);
    ("check.certify_ms", self [ "check.certify"; "check.trace_equivalence" ]);
    ("check.trace_equivalence_ms", self [ "check.trace_equivalence" ]);
    ("cache.find_ms", ms (Stats.median (Spans.duration_per_op [ "cache.find" ] spans)));
    ("cache.find_io_ms", self [ "cache.find" ]);
    ("cache.store_ms", self [ "cache.store" ]);
    ("protocol.codec_ms", self [ "protocol.parse"; "protocol.ok" ]);
    ("portfolio.run_ms", self [ "portfolio.run" ]);
    ("unattributed_share", Spans.unattributed_share spans);
  ]

(* Every per-layer metric, [given] first, then the trace's, then 0 for
   layers this workload never runs. *)
let complete given r =
  let from_trace = span_metrics r in
  List.map
    (fun (m : Spec.metric) ->
      let v =
        match List.assoc_opt m.Spec.metric given with
        | Some v -> v
        | None -> Option.value (List.assoc_opt m.Spec.metric from_trace) ~default:0.
      in
      (m.Spec.metric, v))
    Spec.per_layer

(* A run's [Spec.setups] set-ups. The first ran before the timed phase
   and took [first] seconds; [tick] runs each of the others between ops,
   outside their timing, once its share of the timed phase's [seconds]
   has gone, so their median samples the host over the whole run rather
   than one moment. [tick] returns the wall time it took, which the timed
   phase leaves out; [finish] runs any still due and returns every
   set-up's time. *)
type setups = { tick : elapsed:float -> float; finish : unit -> float list }

let spread_setups ~seconds ~first setup =
  let times = ref [ first ] in
  let due ~elapsed =
    let k = List.length !times in
    k < Spec.setups && elapsed >= seconds *. float_of_int k /. float_of_int Spec.setups
  in
  let tick ~elapsed =
    let t0 = Unix.gettimeofday () in
    while due ~elapsed do
      times := setup () :: !times
    done;
    Unix.gettimeofday () -. t0
  in
  { tick; finish = (fun () -> ignore (tick ~elapsed:infinity); List.rev !times) }

(* One caller's closed loop over whole passes until [seconds] of wall
   time have gone, at least one. [pass i] is pass [i]'s order of the
   [slots] population indices. [check] sees each op's result right after
   the op, and [setups] may run a set-up then, both outside the timed
   interval, so no result is held for later and neither costs op time.
   [after_pass i] runs once pass [i] is done. *)
let closed_loop ~after_pass ~seconds ~setups ~slots ~pass ~op ~check =
  let best = Array.make slots infinity in
  let lats = ref [] in
  let start = Unix.gettimeofday () in
  let paused = ref 0. in
  let elapsed () = Unix.gettimeofday () -. start -. !paused in
  let passes = ref 0 in
  while !passes = 0 || elapsed () < seconds do
    Array.iter
      (fun i ->
        let t0 = Unix.gettimeofday () in
        let r = op i in
        let dt = Unix.gettimeofday () -. t0 in
        lats := dt :: !lats;
        best.(i) <- Float.min best.(i) dt;
        check i r;
        paused := !paused +. setups.tick ~elapsed:(elapsed ()))
      (pass !passes);
    after_pass !passes;
    incr passes
  done;
  {
    Outcome.best;
    best_pass_s = Array.fold_left ( +. ) 0. best;
    latencies = List.rev !lats;
    passes = !passes;
    timed_s = elapsed ();
  }

(* Run one traced op (its root span), then its probes. *)
let traced_op r f =
  let v = f () in
  Spans.run_probes r;
  v

(* The tracing overhead: the mean of the traced ops' root spans, which
   leave out the probes and anything replayed beside the ops, over the
   mean untraced latency of the same ops. *)
let overhead r untraced = Stats.mean (Spans.root_durations "op" r) /. Stats.mean untraced

(* The in-process peak memory: VmHWM once the first pass is done, after
   the set-up and every op of the population once. Read at the end of a
   run it would grow with the number of passes, which follows the host's
   speed: each op spawns two domains and the heap grows by a varying
   amount over thousands of them (65 to 135 MiB over ten report-pool
   runs). *)
let first_pass_rss () =
  let rss = ref 0. in
  (rss, fun pass -> if pass = 0 then rss := Daemon.peak_rss_mb 0)

(* The first pass's untraced latencies, the base of the in-process
   tracing overhead. *)
let first_pass (t : Outcome.timing) n = List.filteri (fun i _ -> i < n) t.Outcome.latencies
