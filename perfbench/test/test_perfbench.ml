open Perfbench

(* --- tail percentile ------------------------------------------------------- *)

let test_tail_rule () =
  let tail = Alcotest.(check (option int)) in
  tail "99 samples: no tail qualifies" None (Stats.tail_percentile 99);
  tail "100 samples: p90" (Some 90) (Stats.tail_percentile 100);
  tail "199 samples: still p90" (Some 90) (Stats.tail_percentile 199);
  tail "200 samples: p95" (Some 95) (Stats.tail_percentile 200);
  tail "999 samples: p95" (Some 95) (Stats.tail_percentile 999);
  tail "1000 samples: p99" (Some 99) (Stats.tail_percentile 1000);
  Alcotest.(check int) "p90 of 100 leaves 10 beyond" 10 (Stats.beyond ~p:90 100);
  Alcotest.(check int) "p95 of 212 leaves 10 beyond" 10 (Stats.beyond ~p:95 212)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p90 is the 90th smallest" 90. (Stats.percentile ~p:90 xs);
  Alcotest.(check (float 0.)) "p99 is the 99th smallest" 99. (Stats.percentile ~p:99 xs);
  Alcotest.(check (float 0.)) "even median averages" 50.5 (Stats.median xs);
  Alcotest.(check (float 0.)) "odd median" 2. (Stats.median [ 3.; 1.; 2. ])

(* --- names ----------------------------------------------------------------- *)

let test_grammar () =
  List.iter
    (fun s -> Alcotest.(check bool) ("valid name " ^ s) true (Stats.valid_name s))
    [ "latency_p50_ms"; "nova.search_ms"; "serve-hit"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) ("invalid name " ^ s) false (Stats.valid_name s))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) ("valid unit " ^ s) true (Stats.valid_unit s))
    [ "ms"; "op/s"; "%"; "1"; "MiB"; "count" ];
  List.iter
    (fun s -> Alcotest.(check bool) ("invalid unit " ^ s) false (Stats.valid_unit s))
    [ ""; "m s"; String.make 17 'u' ]

let strings key j =
  List.map
    (fun x -> Option.get (Option.bind (Json_min.member key x) Json_min.to_string))
    (Option.get (Json_min.to_list j))

(* BENCHMARK.json names exactly the workloads and metrics Spec defines. *)
let test_benchmark_json () =
  let j = Json_min.of_file "../../BENCHMARK.json" in
  let get k = Option.get (Json_min.member k j) in
  let check_metrics key (expected : Spec.metric list) =
    Alcotest.(check (list string)) (key ^ " names")
      (List.map (fun (m : Spec.metric) -> m.Spec.metric) expected)
      (strings "name" (get key));
    Alcotest.(check (list string)) (key ^ " units")
      (List.map (fun (m : Spec.metric) -> m.Spec.unit_) expected)
      (strings "unit" (get key))
  in
  Alcotest.(check (list string)) "workloads"
    (List.filter_map
       (fun (w : Spec.workload_spec) -> if w.Spec.gated then Some w.Spec.name else None)
       Spec.workloads)
    (strings "name" (get "workloads"));
  check_metrics "end_to_end" Spec.end_to_end;
  check_metrics "per_layer" Spec.per_layer;
  List.iter
    (fun n -> Alcotest.(check bool) ("grammar: " ^ n) true (Stats.valid_name n))
    (strings "name" (get "workloads") @ strings "name" (get "end_to_end")
   @ strings "name" (get "per_layer"));
  List.iter
    (fun (m : Spec.metric) -> Alcotest.(check bool) ("unit of " ^ m.Spec.metric) true (Stats.valid_unit m.Spec.unit_))
    (Spec.end_to_end @ Spec.per_layer)

(* --- seeds ----------------------------------------------------------------- *)

let oneshot_order seed =
  let pairs = Inputs.oneshot_pairs () in
  Array.to_list
    (Array.map
       (fun i ->
         let p = pairs.(i) in
         p.Inputs.machine ^ "/" ^ Harness.Driver.name p.Inputs.algorithm)
       (Inputs.oneshot_pass ~seed ~pass:0 (Array.length pairs)))

let miss_texts seed =
  let bases = Array.of_list (List.map Inputs.base_machine Inputs.miss_bases) in
  Array.to_list
    (Array.map (fun (x : Inputs.miss_input) -> x.Inputs.name ^ x.Inputs.kiss2)
       (Inputs.miss_cycle ~seed ~conn:1 ~cycle:2 bases))

let test_seed_determinism () =
  let same name f =
    Alcotest.(check (list string)) (name ^ ": same seed, same inputs") (f 5) (f 5);
    Alcotest.(check bool) (name ^ ": another seed, other inputs") true (f 5 <> f 6)
  in
  same "encode-oneshot" oneshot_order;
  same "report-pool" (fun seed -> List.map string_of_int (Array.to_list (Inputs.pool_pass ~seed ~pass:0)));
  same "serve-hit" (fun seed -> Array.to_list (Inputs.hit_cycle ~seed ~conn:0));
  same "serve-miss" miss_texts;
  Alcotest.(check (list string)) "the seed only orders encode-oneshot's population"
    (List.sort compare (oneshot_order 5))
    (List.sort compare (oneshot_order 6))

(* Every serve-miss machine is requested twice, one block apart (the
   last block may be shorter), both connections send cycles of the same
   length, no two connections share a key, and a slot of the stream is
   the same base on every cycle and seed. *)
let test_miss_stream () =
  let bases = Array.of_list (List.map Inputs.base_machine Inputs.miss_bases) in
  let cycle = Inputs.miss_cycle ~seed:1 ~conn:0 ~cycle:0 bases in
  let n = Array.length cycle in
  let slots seed c =
    Array.map (fun (x : Inputs.miss_input) -> x.Inputs.base) (Inputs.miss_cycle ~seed ~conn:0 ~cycle:c bases)
  in
  Alcotest.(check (array int)) "same bases in the same slots on every cycle and seed" (slots 1 0) (slots 7919 3);
  Alcotest.(check int) "100 op slots: two requests per base on each connection" 100 (2 * 2 * n);
  Array.iter
    (fun block ->
      let reqs = Array.of_list (Inputs.miss_requests ~block cycle) in
      Alcotest.(check int) "two requests per machine" (2 * n) (Array.length reqs);
      Array.iteri
        (fun j (x : Inputs.miss_input) ->
          let at = List.filter (fun i -> reqs.(i).Inputs.name = x.Inputs.name) (List.init (2 * n) Fun.id) in
          let gap = min block (n - (j / block * block)) in
          Alcotest.(check (list int)) ("repeat of " ^ x.Inputs.name ^ " is one block later")
            [ (2 * (j / block * block)) + (j mod block); (2 * (j / block * block)) + (j mod block) + gap ]
            at)
        cycle)
    Inputs.miss_block;
  Array.iter
    (fun (x : Inputs.miss_input) ->
      Alcotest.(check bool) ("KISS2 round trip of " ^ x.Inputs.name) true
        (Result.is_ok (Kiss.parse_result ~name:x.Inputs.name x.Inputs.kiss2)))
    cycle;
  let other = Inputs.miss_cycle ~seed:1 ~conn:1 ~cycle:0 bases in
  Array.iter
    (fun (x : Inputs.miss_input) ->
      Alcotest.(check bool) "keys disjoint across connections" false
        (Array.exists (fun (y : Inputs.miss_input) -> y.Inputs.kiss2 = x.Inputs.kiss2) other))
    cycle

(* --- set-ups ---------------------------------------------------------------- *)

(* The first set-up runs before the timed phase; the others run as their
   share of the run's time goes by, and finish runs any still due. *)
let test_spread_setups () =
  let ran = ref 0 in
  let s = Layers.spread_setups ~seconds:21. ~first:0.5 (fun () -> incr ran; 1.) in
  ignore (s.Layers.tick ~elapsed:0.5);
  Alcotest.(check int) "none due in the first share" 0 !ran;
  ignore (s.Layers.tick ~elapsed:1.);
  Alcotest.(check int) "one due after one share" 1 !ran;
  ignore (s.Layers.tick ~elapsed:10.5);
  Alcotest.(check int) "ten due after ten shares" 10 !ran;
  let all = s.Layers.finish () in
  Alcotest.(check int) "finish runs the rest" Spec.setups (List.length all);
  Alcotest.(check (float 0.)) "the first set-up's time comes first" 0.5 (List.hd all)

(* --- self time ------------------------------------------------------------- *)

let span id name ?parent t0 t1 = { Spans.id; name; op = 0; parent; t0; t1 }

(* An encode op: the root holds parse, the search and espresso; the
   constraints and symbmin probes ran after the op but belong to the
   search, which repeats their work internally. *)
let encode_op =
  [
    span 0 "op" 0. 10.;
    span 1 "fsm.parse" ~parent:0 0. 1.;
    span 2 "nova.search" ~parent:0 1. 7.;
    span 3 "espresso.implement" ~parent:0 7. 9.;
    span 4 "constraints.extract" ~parent:2 10. 11.;
    span 5 "symbmin.run" ~parent:2 11. 13.;
  ]

let test_self_time () =
  let self name = List.hd (Spans.self_per_op [ name ] encode_op) in
  Alcotest.(check (float 1e-9)) "search is encode minus its probes" 3. (self "nova.search");
  Alcotest.(check (float 1e-9)) "probe keeps its own time" 2. (self "symbmin.run");
  Alcotest.(check (float 1e-9)) "root keeps only the glue" 1. (self "op");
  Alcotest.(check (float 1e-9)) "unattributed share" 0.1 (Spans.unattributed_share encode_op);
  let layers = [ "fsm.parse"; "nova.search"; "espresso.implement"; "constraints.extract"; "symbmin.run" ] in
  Alcotest.(check (float 1e-9)) "layer self times add up to the op minus glue" 9.
    (List.hd (Spans.self_per_op layers encode_op));
  Alcotest.(check (float 1e-9)) "duration ignores children" 6.
    (List.hd (Spans.duration_per_op [ "nova.search" ] encode_op))

(* The recorder files a probe under the span it names, outside the op. *)
let test_probe_parenting () =
  let r = Spans.create () in
  let id = Spans.fresh_id r in
  Spans.record r ~op:7 "op" (fun () ->
      Spans.probe r (fun () -> Spans.record r ~parent:id ~op:7 "constraints.extract" ignore);
      Spans.record r ~id ~op:7 "nova.search" ignore);
  Spans.run_probes r;
  let find name = List.find (fun (s : Spans.span) -> s.Spans.name = name) (Spans.spans r) in
  Alcotest.(check (option int)) "root has no parent" None (find "op").Spans.parent;
  Alcotest.(check (option int)) "search sits under the op" (Some (find "op").Spans.id)
    (find "nova.search").Spans.parent;
  Alcotest.(check (option int)) "probe sits under the search" (Some id)
    (find "constraints.extract").Spans.parent;
  Alcotest.(check bool) "probe ran after the op" true
    ((find "constraints.extract").Spans.t0 >= (find "op").Spans.t1);
  Alcotest.(check int) "the off recorder records nothing" 0
    (Spans.record Spans.off ~op:0 "op" (fun () -> List.length (Spans.spans Spans.off)))

(* A traced encode probes only the layers its ladder ran: ihybrid the
   constraints, iohybrid the symbolic minimization, one-hot neither. *)
let test_forced_probes () =
  let m = Benchmarks.Suite.find "lion" in
  let probed algo =
    let r = Spans.create () in
    let res =
      Spans.record r ~op:0 "op" (fun () ->
          Layers.encode r ~op:0 ~budget:(Budget.create ()) ~fallback:true m algo)
    in
    Spans.run_probes r;
    Alcotest.(check bool) (Harness.Driver.name algo ^ " encodes") true (Result.is_ok res);
    let names = List.map (fun (s : Spans.span) -> s.Spans.name) (Spans.spans r) in
    let ran name = List.mem name names in
    (ran "constraints.extract", Spans.counts_per_op "constraints.input_constraints" r <> [], ran "symbmin.run")
  in
  let check algo expected =
    let got = probed algo in
    let show (a, b, c) = Printf.sprintf "extract=%b constraints=%b symbmin=%b" a b c in
    Alcotest.(check string) (Harness.Driver.name algo ^ " probes") (show expected) (show got)
  in
  check Harness.Driver.Ihybrid (true, true, false);
  check Harness.Driver.Iohybrid (true, false, true);
  check Harness.Driver.One_hot (false, false, false);
  check (Harness.Driver.Mustang (Baselines.Fanout, true)) (false, false, false)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "name grammar" `Quick test_grammar;
          Alcotest.test_case "BENCHMARK.json matches Spec" `Quick test_benchmark_json;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "serve-miss stream" `Quick test_miss_stream;
          Alcotest.test_case "set-ups spread over the run" `Quick test_spread_setups;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self-time subtraction" `Quick test_self_time;
          Alcotest.test_case "probe parenting" `Quick test_probe_parenting;
          Alcotest.test_case "probes follow the ladder" `Quick test_forced_probes;
        ] );
    ]
