(* Tests for the parallel portfolio executor: the domain pool's
   deterministic reduction, domain-safe instrumentation and budget
   cancellation, racing, and the content-addressed result cache with
   its re-certification gate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let quick_machines = [ "lion"; "dk15"; "bbara" ]

let with_temp_dir f =
  let dir = Filename.temp_file "nova-exec-test" "" in
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
(* Pool *)

let test_pool_map_deterministic () =
  let tasks = Array.init 64 (fun i -> i) in
  let f i x =
    (* Skewed per-task cost, so completion order differs from index
       order whenever more than one domain runs. *)
    let acc = ref 0 in
    for k = 1 to (x mod 7) * 10_000 do
      acc := !acc + k
    done;
    ignore !acc;
    (i, x * x)
  in
  let seq = Exec.Pool.mapi ~jobs:1 tasks ~f in
  let par = Exec.Pool.mapi ~jobs:4 tasks ~f in
  check "jobs=4 equals jobs=1" true (seq = par);
  Array.iteri (fun i (j, sq) -> check_int "slot index" i j; check_int "square" (i * i) sq) par

let test_pool_exception_propagates () =
  let tasks = Array.init 16 (fun i -> i) in
  let boom i _ = if i = 5 || i = 11 then failwith (Printf.sprintf "boom %d" i) else i in
  (* The lowest-indexed failure is the one re-raised, regardless of
     which domain hit its exception first. *)
  (match Exec.Pool.mapi ~jobs:4 tasks ~f:boom with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> check "lowest-index exception wins" true (msg = "boom 5"))

(* ------------------------------------------------------------------ *)
(* Pool: long-lived helpers *)

let spawned () = Metrics.Registry.counter_value (Metrics.event "exec.pool.domains_spawned")
let self_id () = (Domain.self () :> int)

let squares ~jobs n =
  Exec.Pool.mapi ~jobs (Array.init n (fun i -> i)) ~f:(fun _ x ->
      let acc = ref 0 in
      for k = 1 to (x mod 5) * 1_000 do
        acc := !acc + k
      done;
      ignore !acc;
      x * x)

(* A two-task batch that must reach a helper: whichever task the
   calling domain runs polls (up to 2 s) until a helper has started the
   other. [ran_on.(i)] records the domain that ran task [i]; a helper's
   task returns [on_helper i]. *)
let helper_batch ~ran_on ~on_helper =
  let main = self_id () in
  let helper_started = Atomic.make false in
  Exec.Pool.mapi_isolated ~jobs:2 [| (); () |] ~f:(fun i () ->
      ran_on.(i) <- self_id ();
      if self_id () = main then begin
        let deadline = Unix.gettimeofday () +. 2. in
        while (not (Atomic.get helper_started)) && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        i
      end
      else begin
        Atomic.set helper_started true;
        on_helper i
      end)

(* Poll (up to 1 s) until every helper has passed its idle window and
   retired; the live count at the end. *)
let quiesce () =
  let deadline = Unix.gettimeofday () +. 1. in
  let rec wait () =
    let live = Exec.Pool.live_helpers () in
    if live > 0 && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.01;
      wait ()
    end
    else live
  in
  wait ()

(* A pool with exactly one helper: earlier, wider calls may have left
   more alive. *)
let one_helper () =
  ignore (quiesce ());
  ignore (squares ~jobs:2 16)

let helper_of ran_on =
  match List.filter (fun d -> d <> self_id ()) (Array.to_list ran_on) with
  | [ d ] -> d
  | _ -> Alcotest.fail "exactly one task should have run on a helper"

(* The idle window is wall-clock: a caller descheduled for longer than
   it (a loaded host, or dune running other suites beside this one)
   rightly finds its helper retired and spawns another. So a scenario
   that pins reuse returns whether it saw no spawn and gets three
   attempts; with no window at all, every attempt respawns. *)
let reused scenario = scenario () || scenario () || scenario ()

let test_pool_reuses_helpers () =
  let scenario () =
    one_helper ();
    let before = spawned () in
    for _ = 1 to 200 do
      ignore (squares ~jobs:2 16)
    done;
    check "at most jobs - 1 helpers alive" true (Exec.Pool.live_helpers () <= 1);
    spawned () = before
  in
  check "200 back-to-back calls spawn no domain" true (reused scenario)

let test_pool_crash_on_reused_helper () =
  let scenario () =
    one_helper ();
    let before = spawned () in
    let ran_on = Array.make 2 (-1) in
    let slots =
      helper_batch ~ran_on ~on_helper:(fun i -> failwith (Printf.sprintf "boom %d" i))
    in
    let helper = helper_of ran_on in
    Array.iteri
      (fun i slot ->
        match slot with
        | Ok v -> check "the caller's slot is healthy" true (ran_on.(i) <> helper && v = i)
        | Error (Failure msg, _) ->
            check "the crash settles the helper's own slot" true
              (ran_on.(i) = helper && msg = Printf.sprintf "boom %d" i)
        | Error _ -> Alcotest.fail "unexpected exception type")
      slots;
    let ran_on' = Array.make 2 (-1) in
    let slots' = helper_batch ~ran_on:ran_on' ~on_helper:(fun i -> 10 * i) in
    let helper' = helper_of ran_on' in
    Array.iteri
      (fun i slot ->
        check "the next batch is correct" true
          (slot = Ok (if ran_on'.(i) = helper' then 10 * i else i)))
      slots';
    helper' = helper && spawned () = before
  in
  check "the next batch runs on the same helper" true (reused scenario)

let test_pool_fatal_on_helper () =
  let scenario () =
    one_helper ();
    let before = spawned () in
    let ran_on = Array.make 2 (-1) in
    (match helper_batch ~ran_on ~on_helper:(fun _ -> raise Stack_overflow) with
    | _ -> Alcotest.fail "Stack_overflow on a helper must reach the caller"
    | exception Stack_overflow -> ());
    ignore (helper_of ran_on);
    check "the pool keeps working" true (squares ~jobs:2 16 = squares ~jobs:1 16);
    spawned () = before
  in
  check "the fatal exception spawned no domain" true (reused scenario)

(* Two systhreads share the helpers at once, one of them from a task
   that itself calls the pool: neither waits on a helper busy with the
   other's batch, so both finish, with the sequential results. *)
let test_pool_concurrent_and_nested_callers () =
  let tasks = Array.init 24 (fun i -> i) in
  let nested _ x = x + Array.fold_left ( + ) 0 (squares ~jobs:2 (x mod 6)) in
  let flat _ x = Array.fold_left ( + ) 0 (squares ~jobs:1 (x mod 9)) in
  let expected_nested = Exec.Pool.mapi ~jobs:1 tasks ~f:nested in
  let expected_flat = Exec.Pool.mapi ~jobs:1 tasks ~f:flat in
  let got_nested = ref [||] and got_flat = ref [||] in
  let t1 = Thread.create (fun () -> got_nested := Exec.Pool.mapi ~jobs:2 tasks ~f:nested) () in
  let t2 = Thread.create (fun () -> got_flat := Exec.Pool.mapi ~jobs:2 tasks ~f:flat) () in
  Thread.join t1;
  Thread.join t2;
  check "nested caller matches jobs=1" true (!got_nested = expected_nested);
  check "concurrent caller matches jobs=1" true (!got_flat = expected_flat)

let test_pool_helpers_retire () =
  ignore (squares ~jobs:2 16);
  check_int "every helper retired and was joined" 0 (quiesce ())

(* ------------------------------------------------------------------ *)
(* Satellite: domain-safe instrumentation *)

(* The telemetry core under two domains: an event counter and a timed
   section hammered concurrently lose no bumps and no observations, and
   re-interning the same names from both domains never duplicates a
   series. *)
let test_instrument_two_domain_hammer () =
  let c = Metrics.event "test.exec.hammer" in
  let s = Metrics.section "test.exec.hammer-span" in
  let value name = List.assoc_opt name (Metrics.events ()) in
  let calls name = Option.map Metrics.Histogram.count (List.assoc_opt name (Metrics.spans ())) in
  let before = Option.get (value "test.exec.hammer") in
  let calls_before = Option.get (calls "test.exec.hammer-span") in
  let n = 100_000 in
  let hammer () =
    for _ = 1 to n do
      Metrics.Registry.inc c;
      ignore (Metrics.event "test.exec.hammer");
      Metrics.span s ignore
    done
  in
  let d = Domain.spawn hammer in
  hammer ();
  Domain.join d;
  check_int "no lost bumps across two domains" (2 * n)
    (Option.get (value "test.exec.hammer") - before);
  check_int "no lost span observations" (2 * n)
    (Option.get (calls "test.exec.hammer-span") - calls_before);
  check_int "registry holds one series" 1
    (List.length (List.filter (fun (name, _) -> name = "test.exec.hammer") (Metrics.events ())))

(* ------------------------------------------------------------------ *)
(* Satellite: cross-domain budget cancellation *)

let test_budget_cross_domain_cancel () =
  let parent = Budget.create () in
  let child = Budget.sub parent in
  let ticks = Atomic.make 0 in
  let stopped = Atomic.make false in
  let ticker =
    Domain.spawn (fun () ->
        (* Tick the child until the budget trips; the cancel arrives
           from the other domain mid-loop. *)
        while Budget.tick child do
          Atomic.incr ticks
        done;
        Atomic.set stopped true)
  in
  (* Wait until the ticker is demonstrably inside its loop. *)
  while Atomic.get ticks < 1_000 do
    Domain.cpu_relax ()
  done;
  let at_cancel = Atomic.get ticks in
  Budget.cancel parent;
  Domain.join ticker;
  check "ticker observed the cancel and stopped" true (Atomic.get stopped);
  check "cancel reason propagated to the child" true
    (Budget.reason child = Some Budget.Cancelled);
  (* The tripped flag is atomic and checked on every tick, so the loop
     must die within one poll interval (256 ticks) of the cancel. *)
  check "stopped within one poll interval" true (Atomic.get ticks - at_cancel <= 256 + 1)

(* ------------------------------------------------------------------ *)
(* Cache: keys, round-trip, corruption, tampering *)

let sample_task name = Exec.Job.task (Benchmarks.Suite.find name) Harness.Driver.Igreedy

let test_cache_key_sensitivity () =
  let lion = Benchmarks.Suite.find "lion" in
  let base = Exec.Job.task lion Harness.Driver.Igreedy in
  let diff_algo = Exec.Job.task lion Harness.Driver.Kiss in
  let diff_bits = Exec.Job.task ~bits:4 lion Harness.Driver.Igreedy in
  let diff_work = Exec.Job.task ~max_work:7 lion Harness.Driver.Igreedy in
  let diff_machine = sample_task "dk15" in
  let keys =
    List.map Exec.Job.key [ base; diff_algo; diff_bits; diff_work; diff_machine ]
  in
  check_int "all five keys distinct" 5 (List.length (List.sort_uniq compare keys));
  check "key is stable" true (Exec.Job.key base = Exec.Job.key base)

let test_cache_roundtrip () =
  with_temp_dir @@ fun dir ->
  let tasks = List.map sample_task quick_machines in
  let cold = Exec.Cache.open_dir dir in
  let cold_rows = Exec.Portfolio.run ~cache:cold tasks in
  let st = Exec.Cache.stats cold in
  check_int "cold run misses everything" (List.length tasks) st.Exec.Cache.misses;
  check_int "cold run stores everything" (List.length tasks) st.Exec.Cache.stores;
  let warm = Exec.Cache.open_dir dir in
  let warm_rows = Exec.Portfolio.run ~cache:warm tasks in
  let st = Exec.Cache.stats warm in
  check_int "warm run hits everything" (List.length tasks) st.Exec.Cache.hits;
  check_int "warm run misses nothing" 0 st.Exec.Cache.misses;
  check_int "warm run rejects nothing" 0 st.Exec.Cache.rejected;
  List.iter2
    (fun (a : Exec.Job.row) (b : Exec.Job.row) ->
      (match (a.Exec.Job.result, b.Exec.Job.result) with
      | Ok x, Ok y -> check "cached result bit-identical" true (Exec.Job.success_equal x y)
      | _ -> Alcotest.fail "portfolio run failed");
      check "cold origin" true (a.Exec.Job.origin = Exec.Job.Computed);
      check "warm origin" true (b.Exec.Job.origin = Exec.Job.Cached))
    cold_rows warm_rows

let test_cache_corrupt_entry_recomputed () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  let c = Exec.Cache.open_dir dir in
  let fresh = Exec.Portfolio.run ~cache:c [ task ] in
  (* Overwrite the entry with garbage: the parser must reject it and
     the executor recompute, never crash. *)
  let path = Filename.concat dir (Exec.Job.key task ^ ".nova-cache") in
  check "entry exists after the store" true (Sys.file_exists path);
  let oc = open_out_bin path in
  output_string oc "\x00garbage\nnot a cache entry\n";
  close_out oc;
  let c2 = Exec.Cache.open_dir dir in
  let rows = Exec.Portfolio.run ~cache:c2 [ task ] in
  let st = Exec.Cache.stats c2 in
  check_int "corrupt entry rejected" 1 st.Exec.Cache.rejected;
  check_int "recomputed, not served" 0 st.Exec.Cache.hits;
  check "rejected entry deleted, fresh one stored" true (Sys.file_exists path);
  (match ((List.hd rows).Exec.Job.result, (List.hd fresh).Exec.Job.result) with
  | Ok a, Ok b -> check "recomputed result matches" true (Exec.Job.success_equal a b)
  | _ -> Alcotest.fail "run failed")

(* Rewrite [task]'s entry payload line by line with [f], then recompute
   the checksum header over the tampered payload: the entry stays
   structurally pristine, so only re-certification can refuse it. (A
   stale checksum would be caught earlier, by [fsck]-level structural
   verification — deliberately bypassed here.) *)
let tamper_entry dir task f =
  let path = Filename.concat dir (Exec.Job.key task ^ ".nova-cache") in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let payload =
    (* strip "nova-cache/v2\nchecksum HEX\n" *)
    let first = String.index text '\n' in
    let second = String.index_from text (first + 1) '\n' in
    String.sub text (second + 1) (String.length text - second - 1)
  in
  let tampered_payload = String.split_on_char '\n' payload |> f |> String.concat "\n" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "nova-cache/v2\nchecksum %s\n%s"
        (Digest.to_hex (Digest.string tampered_payload))
        tampered_payload)

(* The tampered entry is rejected once, never served, and recomputed. *)
let check_rejected_and_recomputed dir task what =
  let c2 = Exec.Cache.open_dir dir in
  let rows = Exec.Portfolio.run ~cache:c2 [ task ] in
  let st = Exec.Cache.stats c2 in
  check_int (what ^ " rejected by re-certification") 1 st.Exec.Cache.rejected;
  check_int (what ^ " never served") 0 st.Exec.Cache.hits;
  check "recomputed fine" true
    (match (List.hd rows).Exec.Job.result with Ok _ -> true | Error _ -> false)

let test_cache_tampered_entry_fails_certification () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  let c = Exec.Cache.open_dir dir in
  ignore (Exec.Portfolio.run ~cache:c [ task ]);
  (* Drop one cube and fix the count: the entry still parses, but the
     cover no longer implements the machine. *)
  let dropping = ref false in
  tamper_entry dir task
    (List.filter_map (fun l ->
         if !dropping then begin
           dropping := false;
           None (* the first cube line after the header *)
         end
         else if String.length l > 6 && String.sub l 0 6 = "cubes " then begin
           dropping := true;
           let k = int_of_string (String.sub l 6 (String.length l - 6)) in
           Some (Printf.sprintf "cubes %d" (k - 1))
         end
         else Some l));
  check_rejected_and_recomputed dir task "tampered entry"

let test_cache_wrong_code_count () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  let c = Exec.Cache.open_dir dir in
  ignore (Exec.Portfolio.run ~cache:c [ task ]);
  (* One code short: the codes stay distinct and in range and the PLA
     domain does not depend on their count, so the entry parses and only
     the injectivity check can refuse it. *)
  tamper_entry dir task
    (List.map (fun l ->
         if String.length l > 6 && String.sub l 0 6 = "codes " then
           String.sub l 0 (String.rindex l ' ')
         else l));
  check_rejected_and_recomputed dir task "short code list"

let test_cache_refuses_uncertified_store () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  match Exec.Job.run task with
  | Error _ -> Alcotest.fail "igreedy on lion failed"
  | Ok s ->
      (* Drop a cube: the cover no longer implements the machine, so
         the pre-store certification must refuse to persist it. *)
      let broken_cover =
        Logic.Cover.make s.Exec.Job.cover.Logic.Cover.dom
          (List.tl s.Exec.Job.cover.Logic.Cover.cubes)
      in
      let broken = { s with Exec.Job.cover = broken_cover } in
      let c = Exec.Cache.open_dir dir in
      Exec.Cache.store c task broken;
      let st = Exec.Cache.stats c in
      check_int "uncertified result not stored" 0 st.Exec.Cache.stores;
      check "no entry file written" false
        (Sys.file_exists (Exec.Cache.entry_path c task));
      Exec.Cache.store c task s;
      check_int "certified result stored" 1 (Exec.Cache.stats c).Exec.Cache.stores

(* ------------------------------------------------------------------ *)
(* Satellite: determinism of the parallel portfolio *)

let row_equal (a : Exec.Job.row) (b : Exec.Job.row) =
  a.Exec.Job.task == b.Exec.Job.task
  &&
  match (a.Exec.Job.result, b.Exec.Job.result) with
  | Ok x, Ok y -> Exec.Job.success_equal x y
  | Error x, Error y -> x = y
  | _ -> false

let portfolio_tasks () =
  List.concat_map
    (fun name -> Exec.Portfolio.tasks_for (Benchmarks.Suite.find name))
    quick_machines

let test_portfolio_jobs_deterministic () =
  let tasks = portfolio_tasks () in
  let seq = Exec.Portfolio.run ~jobs:1 tasks in
  let par = Exec.Portfolio.run ~jobs:4 tasks in
  check_int "same row count" (List.length seq) (List.length par);
  List.iter2
    (fun a b -> check "row identical across jobs levels" true (row_equal a b))
    seq par

let test_race_winner_deterministic () =
  let tasks = Exec.Portfolio.tasks_for (Benchmarks.Suite.find "lion") in
  let _, w1 = Exec.Portfolio.race ~jobs:1 tasks in
  let rows4, w4 = Exec.Portfolio.race ~jobs:4 tasks in
  check "race found a winner" true (w1 <> None);
  check "same winner index at jobs=1 and jobs=4" true (w1 = w4);
  match w4 with
  | None -> Alcotest.fail "no winner"
  | Some i ->
      let row = List.nth rows4 i in
      check "winner row is a success" true
        (match row.Exec.Job.result with Ok _ -> true | Error _ -> false);
      check "winner was computed or cached, not cancelled" true
        (row.Exec.Job.origin <> Exec.Job.Cancelled_by_race)

let test_race_warm_cache_same_winner () =
  with_temp_dir @@ fun dir ->
  let tasks = Exec.Portfolio.tasks_for (Benchmarks.Suite.find "dk15") in
  let cold = Exec.Cache.open_dir dir in
  let rows_cold, w_cold = Exec.Portfolio.race ~cache:cold tasks in
  let warm = Exec.Cache.open_dir dir in
  let rows_warm, w_warm = Exec.Portfolio.race ~cache:warm tasks in
  check "cold and warm race agree on the winner" true (w_cold = w_warm);
  match (w_cold, w_warm) with
  | Some i, Some j ->
      let a = List.nth rows_cold i and b = List.nth rows_warm j in
      (match (a.Exec.Job.result, b.Exec.Job.result) with
      | Ok x, Ok y -> check "winner row bit-identical" true (Exec.Job.success_equal x y)
      | _ -> Alcotest.fail "winner row not a success")
  | _ -> Alcotest.fail "race found no winner"

(* ------------------------------------------------------------------ *)
(* The store rule: a result computed under a tripped outer budget never
   enters the cache *)

let stores c = (Exec.Cache.stats c).Exec.Cache.stores

let test_store_rule_tripped_budget () =
  with_temp_dir @@ fun dir ->
  let c = Exec.Cache.open_dir dir in
  let task = Exec.Job.task (Benchmarks.Suite.find "dk16") Harness.Driver.Ihybrid in
  let past_deadline = Budget.create ~deadline_ms:(-1.) () in
  let row = Exec.Portfolio.run_task ~cache:c ~budget:past_deadline task in
  check "row returned as computed" true (row.Exec.Job.origin = Exec.Job.Computed);
  check_int "nothing stored" 0 (stores c);
  check "no entry file" false (Sys.file_exists (Exec.Cache.entry_path c task));
  (* The same task under an outer budget that never trips stores. *)
  ignore (Exec.Portfolio.run_task ~cache:c ~budget:(Budget.create ()) task);
  check_int "stored once untripped" 1 (stores c);
  check "entry file written" true (Sys.file_exists (Exec.Cache.entry_path c task))

(* An uncapped iexact on dk16 cannot finish before ihybrid, the
   preferred rung: at jobs=2 it is cancelled mid-run (or, on one core,
   never started) and must leave no entry, while the winner's is
   written. *)
let test_store_rule_race_loser () =
  with_temp_dir @@ fun dir ->
  let c = Exec.Cache.open_dir dir in
  let m = Benchmarks.Suite.find "dk16" in
  let winner = Exec.Job.task m Harness.Driver.Ihybrid in
  let loser = Exec.Job.task m Harness.Driver.Iexact in
  let rows, w = Exec.Portfolio.race ~jobs:2 ~cache:c [ winner; loser ] in
  check "the preferred rung wins" true (w = Some 0);
  check "the loser is raced out" true
    ((List.nth rows 1).Exec.Job.origin = Exec.Job.Cancelled_by_race);
  check "no entry for the loser" false (Sys.file_exists (Exec.Cache.entry_path c loser));
  check "the winner's entry is written" true
    (Sys.file_exists (Exec.Cache.entry_path c winner));
  check_int "one store" 1 (stores c)

let suite =
  [
    Alcotest.test_case "pool: jobs=4 map equals jobs=1" `Quick test_pool_map_deterministic;
    Alcotest.test_case "pool: lowest-index exception re-raised" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: back-to-back calls reuse the helpers" `Quick
      test_pool_reuses_helpers;
    Alcotest.test_case "pool: a crash on a reused helper settles its slot" `Quick
      test_pool_crash_on_reused_helper;
    Alcotest.test_case "pool: a fatal exception on a helper reaches the caller" `Quick
      test_pool_fatal_on_helper;
    Alcotest.test_case "pool: concurrent and nested callers finish" `Quick
      test_pool_concurrent_and_nested_callers;
    Alcotest.test_case "pool: idle helpers retire and are joined" `Quick
      test_pool_helpers_retire;
    Alcotest.test_case "instrument: two-domain hammer loses no counts" `Quick
      test_instrument_two_domain_hammer;
    Alcotest.test_case "budget: cross-domain cancel trips within a poll interval" `Quick
      test_budget_cross_domain_cancel;
    Alcotest.test_case "cache: key sensitivity" `Quick test_cache_key_sensitivity;
    Alcotest.test_case "cache: cold/warm round-trip is bit-identical" `Quick
      test_cache_roundtrip;
    Alcotest.test_case "cache: corrupt entry rejected and recomputed" `Quick
      test_cache_corrupt_entry_recomputed;
    Alcotest.test_case "cache: tampered entry fails re-certification" `Quick
      test_cache_tampered_entry_fails_certification;
    Alcotest.test_case "cache: wrong code count rejected" `Quick test_cache_wrong_code_count;
    Alcotest.test_case "cache: uncertified success never stored" `Quick
      test_cache_refuses_uncertified_store;
    Alcotest.test_case "portfolio: jobs=4 rows equal jobs=1" `Quick
      test_portfolio_jobs_deterministic;
    Alcotest.test_case "race: winner independent of jobs" `Quick
      test_race_winner_deterministic;
    Alcotest.test_case "race: warm cache picks the same winner" `Quick
      test_race_warm_cache_same_winner;
    Alcotest.test_case "store rule: a tripped outer budget stores nothing" `Quick
      test_store_rule_tripped_budget;
    Alcotest.test_case "store rule: a cancelled racer stores nothing" `Quick
      test_store_rule_race_loser;
  ]
