(* Tests for the supervision layer and the seeded chaos harness: spec
   parsing, immediate retry, quarantine, pool crash isolation,
   cache checksums / fsck / concurrent-process safety, and the central
   invariant — under any fault schedule the executor returns either
   rows byte-identical to the fault-free run or typed errors, never an
   uncaught exception, and the cache never serves a damaged entry. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_temp_dir f =
  let dir = Filename.temp_file "nova-chaos-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* Every chaos test must leave the global schedule off, crashing or
   not, or it poisons whatever suite runs after it. *)
let with_chaos ?seed spec f =
  (match Exec.Chaos.configure ?seed spec with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("chaos spec rejected: " ^ msg));
  Fun.protect ~finally:(fun () -> Exec.Chaos.disable ()) f

let with_quarantine_reset f =
  Exec.Supervise.reset_quarantine ();
  Fun.protect ~finally:(fun () -> Exec.Supervise.reset_quarantine ()) f

let sample_task name = Exec.Job.task (Benchmarks.Suite.find name) Harness.Driver.Igreedy

let has_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Chaos spec parsing and schedule determinism *)

let test_spec_parsing () =
  (match Exec.Chaos.parse_spec "rung:2,cache-read:1" with
  | Ok [ (Exec.Chaos.Rung, 2); (Exec.Chaos.Cache_read, 1) ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  let rejects s =
    check (Printf.sprintf "spec %S rejected" s) true
      (match Exec.Chaos.parse_spec s with Error _ -> true | Ok _ -> false)
  in
  rejects "";
  rejects "rung";
  rejects "rung:0";
  rejects "rung:-1";
  rejects "rung:2,rung:1";
  rejects "flux-capacitor:1";
  rejects "rung:two";
  List.iter
    (fun site ->
      check "site name round-trips" true
        (Exec.Chaos.site_of_name (Exec.Chaos.site_name site) = Some site))
    Exec.Chaos.all_sites

let fired_indices ~seed spec ~site ~probes =
  with_chaos ~seed spec @@ fun () ->
  let fired = ref [] in
  for i = 0 to probes - 1 do
    if Exec.Chaos.should_fire site then fired := i :: !fired
  done;
  List.rev !fired

let test_schedule_deterministic_and_exhaustible () =
  let a = fired_indices ~seed:42 "rung:3" ~site:Exec.Chaos.Rung ~probes:50 in
  let b = fired_indices ~seed:42 "rung:3" ~site:Exec.Chaos.Rung ~probes:50 in
  check "same seed, same schedule" true (a = b);
  check_int "exactly COUNT faults fire" 3 (List.length a);
  check "all within the 2*COUNT window" true (List.for_all (fun i -> i < 6) a);
  let c = fired_indices ~seed:43 "rung:3" ~site:Exec.Chaos.Rung ~probes:50 in
  (* Not guaranteed for every pair of seeds, but stable for this one —
     and the point (seed moves the schedule) needs some witness. *)
  check "different seed moves the schedule" true (a <> c);
  let other = fired_indices ~seed:42 "rung:3" ~site:Exec.Chaos.Cache_read ~probes:50 in
  check_int "unlisted site never fires" 0 (List.length other)

let test_rewind_replays_schedule () =
  with_chaos ~seed:9 "pool:2" @@ fun () ->
  let draw () =
    let fired = ref [] in
    for i = 0 to 19 do
      if Exec.Chaos.should_fire Exec.Chaos.Pool_worker then fired := i :: !fired
    done;
    List.rev !fired
  in
  let first = draw () in
  let exhausted = draw () in
  check_int "schedule exhausted after the window" 0 (List.length exhausted);
  Exec.Chaos.rewind ();
  check "rewind replays the identical schedule" true (draw () = first)

(* ------------------------------------------------------------------ *)
(* Supervision: retry, quarantine *)

let test_supervise_retries_then_succeeds () =
  with_quarantine_reset @@ fun () ->
  let calls = ref 0 in
  let result =
    Exec.Supervise.run ~machine:"m" ~algorithm:"a" (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky" else Ok "done")
  in
  check "third attempt succeeds" true (result = Ok "done");
  check_int "exactly three attempts" 3 !calls

let test_supervise_exhausts_to_job_crashed () =
  with_quarantine_reset @@ fun () ->
  let calls = ref 0 in
  let result =
    Exec.Supervise.run ~machine:"m" ~algorithm:"a" (fun () ->
        incr calls;
        failwith "always")
  in
  check_int "attempt budget consumed" 3 !calls;
  match result with
  | Error (Nova_error.Job_crashed { attempts = 3; _ }) -> ()
  | _ -> Alcotest.fail "expected Job_crashed with attempts = 3"

let test_supervise_never_retries_typed_errors () =
  with_quarantine_reset @@ fun () ->
  let calls = ref 0 in
  let err = Nova_error.Invalid_request "no" in
  let result =
    Exec.Supervise.run ~machine:"m" ~algorithm:"a" (fun () ->
        incr calls;
        Error err)
  in
  check "typed error passes through" true (result = Error err);
  check_int "typed errors are verdicts, not crashes: one attempt" 1 !calls

let test_quarantine_after_two_exhausted_cycles () =
  with_quarantine_reset @@ fun () ->
  let calls = ref 0 in
  let crash () =
    Exec.Supervise.run ~machine:"m" ~algorithm:"a" (fun () ->
        incr calls;
        failwith "always")
  in
  ignore (crash ());
  check "not yet quarantined after one cycle" true
    (Exec.Supervise.quarantined ~machine:"m" ~algorithm:"a" = None);
  ignore (crash ());
  check "quarantined after two cycles" true
    (Exec.Supervise.quarantined ~machine:"m" ~algorithm:"a" <> None);
  let before = !calls in
  (match crash () with
  | Error (Nova_error.Job_crashed { attempts = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected a quarantine skip (attempts = 0)");
  check_int "quarantine skip runs nothing" before !calls;
  check "other pairs unaffected" true
    (Exec.Supervise.quarantined ~machine:"m2" ~algorithm:"a" = None);
  Exec.Supervise.reset_quarantine ();
  check "reset re-admits" true
    (Exec.Supervise.quarantined ~machine:"m" ~algorithm:"a" = None)

(* ------------------------------------------------------------------ *)
(* Pool crash isolation *)

let test_pool_isolates_crashes_per_slot () =
  let tasks = Array.init 16 (fun i -> i) in
  let slots =
    Exec.Pool.mapi_isolated ~jobs:4 tasks ~f:(fun i x ->
        if i mod 5 = 2 then failwith (Printf.sprintf "boom %d" i) else x * x)
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Ok v -> check_int "healthy slot value" (i * i) v
      | Error (Failure msg, _) ->
          check "crash lands in its own slot" true (msg = Printf.sprintf "boom %d" i);
          check "only scheduled slots crash" true (i mod 5 = 2)
      | Error _ -> Alcotest.fail "unexpected exception type")
    slots;
  check_int "all slots settled" 16 (Array.length slots)

let test_pool_fatal_exceptions_not_isolated () =
  let tasks = Array.init 8 (fun i -> i) in
  match
    Exec.Pool.mapi_isolated ~jobs:2 tasks ~f:(fun i x ->
        if i = 3 then raise Out_of_memory else x)
  with
  | _ -> Alcotest.fail "Out_of_memory must escape isolation"
  | exception Out_of_memory -> ()

let test_pool_injected_fault_isolated_and_restarted () =
  with_quarantine_reset @@ fun () ->
  with_chaos ~seed:5 "pool:2" @@ fun () ->
  let task = sample_task "lion" in
  let rows = Exec.Portfolio.run ~jobs:2 [ task; task; task; task ] in
  check_int "every row settled" 4 (List.length rows);
  List.iter
    (fun (r : Exec.Job.row) ->
      check "pool faults absorbed by inline restart" true
        (match r.Exec.Job.result with Ok _ -> true | Error _ -> false))
    rows

(* ------------------------------------------------------------------ *)
(* Cache: checksums, fsck, concurrent processes *)

let entry_of dir task = Filename.concat dir (Exec.Job.key task ^ ".nova-cache")

let populate dir task =
  let c = Exec.Cache.open_dir dir in
  ignore (Exec.Portfolio.run ~cache:c [ task ]);
  check "entry written" true (Sys.file_exists (entry_of dir task))

let test_cache_truncated_entry_recovered () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  populate dir task;
  let path = entry_of dir task in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 (String.length text / 2)));
  let c = Exec.Cache.open_dir dir in
  let rows = Exec.Portfolio.run ~cache:c [ task ] in
  let st = Exec.Cache.stats c in
  check_int "torn entry rejected, not served" 1 st.Exec.Cache.rejected;
  check_int "no hit from a torn entry" 0 st.Exec.Cache.hits;
  check "recomputed fine" true
    (match (List.hd rows).Exec.Job.result with Ok _ -> true | Error _ -> false);
  check "fresh entry structurally valid again" true
    (let r = Exec.Cache.fsck (Exec.Cache.open_dir dir) in
     r.Exec.Cache.valid = r.Exec.Cache.scanned && r.Exec.Cache.removed = 0)

let test_cache_fsck_sweeps_junk () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  populate dir task;
  let path = entry_of dir task in
  (* A second, torn entry; a stale writer temp file; an orphan lock. *)
  let torn = Filename.concat dir (String.make 32 'f' ^ ".nova-cache") in
  Out_channel.with_open_bin torn (fun oc -> output_string oc "nova-cache/v2\nchecksum ");
  Out_channel.with_open_bin (path ^ ".tmp.999.0") (fun oc -> output_string oc "partial");
  Out_channel.with_open_bin
    (Filename.concat dir (String.make 32 'e' ^ ".nova-cache.lock"))
    (fun oc -> ignore oc);
  let r = Exec.Cache.fsck (Exec.Cache.open_dir dir) in
  check_int "scanned both entries" 2 r.Exec.Cache.scanned;
  check_int "one valid" 1 r.Exec.Cache.valid;
  check_int "torn entry removed" 1 r.Exec.Cache.removed;
  check_int "stale tmp removed" 1 r.Exec.Cache.tmp_removed;
  check "good entry survives" true (Sys.file_exists path);
  check "torn entry gone" false (Sys.file_exists torn);
  let r2 = Exec.Cache.fsck (Exec.Cache.open_dir dir) in
  check "fsck is idempotent" true
    (r2.Exec.Cache.scanned = 1 && r2.Exec.Cache.removed = 0 && r2.Exec.Cache.tmp_removed = 0)

(* A schedule draws COUNT faulting invocations out of the site's first
   2*COUNT, so no fixed seed is guaranteed to hit specific indices —
   search for one that does (deterministic: same search, same seed). *)
let find_seed spec ~site ~must_fire =
  let rec go seed =
    if seed > 500 then Alcotest.fail ("no seed fires wanted indices for " ^ spec)
    else begin
      (match Exec.Chaos.configure ~seed spec with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let top = List.fold_left max 0 must_fire in
      let fired = ref [] in
      for i = 0 to top do
        if Exec.Chaos.should_fire site then fired := i :: !fired
      done;
      Exec.Chaos.disable ();
      if List.for_all (fun i -> List.mem i !fired) must_fire then seed else go (seed + 1)
    end
  in
  go 0

let test_cache_write_fault_skips_store () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  (* A seed that faults the store's write attempt and its one retry
     (Cache_write invocations 0 and 1): the store is skipped, the
     result still returned, and no torn file is left behind. *)
  let seed = find_seed "cache-write:4" ~site:Exec.Chaos.Cache_write ~must_fire:[ 0; 1 ] in
  ( with_chaos ~seed "cache-write:4" @@ fun () ->
    let c = Exec.Cache.open_dir dir in
    let rows = Exec.Portfolio.run ~cache:c [ task ] in
    check "result unaffected by write faults" true
      (match (List.hd rows).Exec.Job.result with Ok _ -> true | Error _ -> false) );
  check "no entry file left" false (Sys.file_exists (entry_of dir task));
  Array.iter
    (fun e -> check "no temp junk left" false (String.length e > 4 && Filename.check_suffix e ".tmp"))
    (Sys.readdir dir);
  (* With chaos off the same cache works again. *)
  populate dir task

(* Two processes hammering one cache directory: a helper executable
   (test/cache_racer.ml — OCaml 5 forbids [Unix.fork] once the pool
   tests have spawned domains) loops store/fsck cycles while this
   process loops find/store; neither may ever observe a torn entry (a
   served entry re-certifies) or crash. *)
let test_cache_two_process_race () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  let success =
    match Exec.Job.run task with Ok s -> s | Error _ -> Alcotest.fail "igreedy failed"
  in
  let rounds = 25 in
  let racer = Filename.concat (Filename.dirname Sys.executable_name) "cache_racer.exe" in
  check "racer helper built" true (Sys.file_exists racer);
  let pid =
    Unix.create_process racer
      [| racer; dir; string_of_int rounds |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let c = Exec.Cache.open_dir dir in
  let served_bad = ref false in
  for _ = 1 to rounds do
    (match Exec.Cache.find c task with
    | None -> () (* raced a reject/fsck delete: a miss, never a tear *)
    | Some s -> if not (Exec.Job.success_equal s success) then served_bad := true);
    Exec.Cache.store c task success
  done;
  let _, status = Unix.waitpid [] pid in
  check "racer process exited cleanly" true (status = Unix.WEXITED 0);
  check "no damaged entry ever served" false !served_bad;
  let r = Exec.Cache.fsck (Exec.Cache.open_dir dir) in
  check "directory structurally clean after the race" true
    (r.Exec.Cache.valid = r.Exec.Cache.scanned)

(* ------------------------------------------------------------------ *)
(* The chaos invariant matrix *)

(* Fault-free reference rows, computed once per matrix run. *)
let reference_rows tasks = Exec.Portfolio.run ~jobs:1 tasks

let rows_equivalent (a : Exec.Job.row list) (b : Exec.Job.row list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Exec.Job.row) (y : Exec.Job.row) ->
         match (x.Exec.Job.result, y.Exec.Job.result) with
         | Ok u, Ok v -> Exec.Job.success_equal u v
         | Error u, Error v -> u = v
         | _ -> false)
       a b

(* One cell: configure the schedule, run supervised, and demand the
   invariant — every row is either bit-identical to the fault-free row
   or a typed Job_crashed; nothing raises; the cache never serves a
   bad entry (every hit re-certifies, so serving one would surface as
   a wrong row). *)
let run_cell ~spec ~seed ~jobs ~tasks ~reference dir =
  with_quarantine_reset @@ fun () ->
  with_chaos ~seed spec @@ fun () ->
  let cache = Exec.Cache.open_dir dir in
  let rows =
    try Exec.Portfolio.run ~jobs ~cache tasks
    with e ->
      Alcotest.failf "uncaught exception under %s seed %d jobs %d: %s" spec seed jobs
        (Printexc.to_string e)
  in
  List.iter2
    (fun (r : Exec.Job.row) (ref_r : Exec.Job.row) ->
      match (r.Exec.Job.result, ref_r.Exec.Job.result) with
      | Ok s, Ok ref_s ->
          check "surviving row identical to fault-free" true
            (Exec.Job.success_equal s ref_s)
      | Error (Nova_error.Job_crashed _), _ -> ()
      | Error e, _ ->
          Alcotest.failf "non-crash error under %s seed %d: %s" spec seed
            (Nova_error.to_string e)
      | Ok _, Error _ -> Alcotest.fail "chaos healed a fault-free failure?")
    rows reference;
  rows

(* The absorbed matrix: schedules whose crash-site budgets stay within
   the supervisor's retries (rung:2 = max_attempts - 1) or touch only
   always-absorbed cache sites. Every cell must reproduce the
   fault-free rows exactly, at jobs=1 and jobs=2 over the same
   schedule (Chaos.rewind). *)
let test_chaos_matrix_absorbed () =
  let tasks = [ sample_task "lion"; sample_task "dk15"; sample_task "bbara" ] in
  let reference = reference_rows tasks in
  let specs =
    [ "rung:2"; "pool:1"; "cache-read:2"; "cache-write:2"; "recertify:2";
      "rung:1,pool:1"; "cache-read:1,cache-write:1,recertify:1" ]
  in
  List.iter
    (fun spec ->
      for seed = 0 to 9 do
        with_temp_dir @@ fun dir ->
        (* Warm the cache so the read/recertify sites actually probe. *)
        ignore (Exec.Portfolio.run ~cache:(Exec.Cache.open_dir dir) tasks);
        let rows1 = run_cell ~spec ~seed ~jobs:1 ~tasks ~reference dir in
        check "absorbed: jobs=1 rows equal fault-free" true
          (rows_equivalent rows1 reference);
        ( with_chaos ~seed spec @@ fun () ->
          Exec.Chaos.rewind ();
          () );
        let rows2 = run_cell ~spec ~seed ~jobs:2 ~tasks ~reference dir in
        check "absorbed: jobs=2 rows equal fault-free" true
          (rows_equivalent rows2 reference)
      done)
    specs

(* The overwhelmed matrix: more rung faults than the retry budget can
   be sure to absorb. Rows may settle as Job_crashed (typed, attempts
   recorded) — but never anything worse, and surviving rows still
   match fault-free. Whether a particular seed concentrates three
   consecutive faults on one task is schedule luck, so the crash
   witness is asserted across the seed sweep, not per cell. *)
let test_chaos_matrix_overwhelmed () =
  let tasks = [ sample_task "lion"; sample_task "dk15"; sample_task "bbara" ] in
  let reference = reference_rows tasks in
  for seed = 0 to 9 do
    with_temp_dir @@ fun dir ->
    let rows = run_cell ~spec:"rung:9,pool:2" ~seed ~jobs:2 ~tasks ~reference dir in
    check_int "every row settled" (List.length tasks) (List.length rows)
  done;
  (* A seed that forces three consecutive rung faults onto one task
     (found by schedule inspection, deterministically): that task MUST
     settle as Job_crashed. *)
  let seed = find_seed "rung:9" ~site:Exec.Chaos.Rung ~must_fire:[ 0; 1; 2 ] in
  with_temp_dir @@ fun dir ->
  let rows = run_cell ~spec:"rung:9" ~seed ~jobs:1 ~tasks ~reference dir in
  match (List.hd rows).Exec.Job.result with
  | Error (Nova_error.Job_crashed { attempts = 3; _ }) -> ()
  | _ -> Alcotest.fail "first task must exhaust its attempts and crash"

(* ------------------------------------------------------------------ *)
(* Satellites: sequential fallback, racing under chaos, error surface *)

let test_effective_jobs_fallback () =
  check_int "no cores, no pool" 1 (Exec.Portfolio.effective_jobs ~available:1 ~requested:8);
  check_int "requested 1 stays 1" 1 (Exec.Portfolio.effective_jobs ~available:16 ~requested:1);
  check_int "cores available, requested honored" 4
    (Exec.Portfolio.effective_jobs ~available:16 ~requested:4);
  check_int "degenerate available" 1 (Exec.Portfolio.effective_jobs ~available:0 ~requested:3);
  check_int "capped at the available cores" 2
    (Exec.Portfolio.effective_jobs ~available:2 ~requested:8)

let test_job_crashed_error_surface () =
  let e = Nova_error.Job_crashed { job = "igreedy on lion"; attempts = 3; detail = "boom" } in
  check_int "Job_crashed exit code" 7 (Nova_error.exit_code e);
  let s = Nova_error.to_string e in
  check "to_string names the job" true
    (has_infix ~affix:"igreedy on lion" s);
  check "to_string counts attempts" true (has_infix ~affix:"3 attempts" s)

let test_supervise_protect_one_shot () =
  (match Exec.Supervise.protect ~what:"ok-path" (fun () -> 42) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "protect must pass the value through");
  let calls = ref 0 in
  (match
     Exec.Supervise.protect ~what:"crash-path" (fun () ->
         incr calls;
         failwith "infra")
   with
  | Error detail -> check "detail names the exception" true
      (has_infix ~affix:"infra" detail)
  | Ok _ -> Alcotest.fail "crash must map to Error");
  check_int "protect never retries" 1 !calls;
  match Exec.Supervise.protect ~what:"fatal" (fun () -> raise Out_of_memory) with
  | _ -> Alcotest.fail "fatal exceptions must escape protect"
  | exception Out_of_memory -> ()

let test_race_falls_through_crashed_rung () =
  with_quarantine_reset @@ fun () ->
  (* Fault the first racer's whole attempt budget: the race must fall
     through to the next-preferred rung, exactly like a degradation. *)
  let seed = find_seed "rung:9" ~site:Exec.Chaos.Rung ~must_fire:[ 0; 1; 2 ] in
  with_chaos ~seed "rung:9" @@ fun () ->
  let m = Benchmarks.Suite.find "lion" in
  let rows, winner = Exec.Portfolio.race ~jobs:1 (Exec.Portfolio.tasks_for m) in
  match winner with
  | None -> Alcotest.fail "race must still produce a winner"
  | Some w ->
      check "crashed primary is not the winner" true (w > 0);
      (match (List.hd rows).Exec.Job.result with
      | Error (Nova_error.Job_crashed _) -> ()
      | _ -> Alcotest.fail "first racer must settle as Job_crashed");
      check "winning row is a success" true
        (match (List.nth rows w).Exec.Job.result with Ok _ -> true | Error _ -> false)

let test_quarantine_skips_repeat_offender_in_run () =
  with_quarantine_reset @@ fun () ->
  let seed = find_seed "rung:30" ~site:Exec.Chaos.Rung ~must_fire:[ 0; 1; 2; 3; 4; 5 ] in
  with_chaos ~seed "rung:30" @@ fun () ->
  let task = sample_task "lion" in
  (* Two exhausted cycles on the same (machine, algorithm) pair... *)
  let rows = Exec.Portfolio.run ~jobs:1 [ task; task ] in
  List.iter
    (fun (r : Exec.Job.row) ->
      match r.Exec.Job.result with
      | Error (Nova_error.Job_crashed _) -> ()
      | _ -> Alcotest.fail "both runs should exhaust their attempts")
    rows;
  (* ...and the third is skipped without running anything: attempts = 0
     and the detail says quarantined. *)
  match Exec.Portfolio.run ~jobs:1 [ task ] with
  | [ { Exec.Job.result = Error (Nova_error.Job_crashed { attempts = 0; detail; _ }); _ } ] ->
      check "detail says quarantined" true (has_infix ~affix:"quarantin" detail)
  | _ -> Alcotest.fail "expected a quarantine skip row"

let test_degradation_warning_counts_attempts () =
  let m = Benchmarks.Suite.find "dk16" in
  let budget = Budget.create ~max_work:10 () in
  match Harness.Driver.encode ~budget m Harness.Driver.Iexact with
  | Error _ -> Alcotest.fail "fallback ladder must land on igreedy"
  | Ok o -> (
      match Harness.Driver.degradation_warning o with
      | None -> Alcotest.fail "a degraded outcome must warn"
      | Some w ->
          check "warning keeps the pinned phrase" true
            (has_infix ~affix:"degraded to" w);
          check "warning counts rung attempts" true
            (has_infix ~affix:"after 4 rung attempts" w);
          (* The ladder tried iexact first: its error is the cause the
             line names, not the last rung's. *)
          check "warning names the primary rung's error" true
            (has_infix ~affix:"(iexact: budget exhausted (work))" w))

let test_cache_read_fault_on_warm_cache_recovers () =
  with_temp_dir @@ fun dir ->
  let task = sample_task "lion" in
  populate dir task;
  let seed = find_seed "cache-read:1" ~site:Exec.Chaos.Cache_read ~must_fire:[ 0 ] in
  ( with_chaos ~seed "cache-read:1" @@ fun () ->
    let c = Exec.Cache.open_dir dir in
    let rows = Exec.Portfolio.run ~cache:c [ task ] in
    let st = Exec.Cache.stats c in
    check "read fault converges on recompute" true
      (match (List.hd rows).Exec.Job.result with Ok _ -> true | Error _ -> false);
    check_int "read fault is a miss, not a hit" 0 st.Exec.Cache.hits;
    check_int "faulted entry rejected" 1 st.Exec.Cache.rejected );
  (* The delete-and-recompute recovery re-stored a pristine entry. *)
  let c = Exec.Cache.open_dir dir in
  check "entry serves again after recovery" true (Exec.Cache.find c task <> None)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "chaos: spec parsing accepts/rejects" test_spec_parsing;
    t "chaos: schedule deterministic, windowed, exhaustible"
      test_schedule_deterministic_and_exhaustible;
    t "chaos: rewind replays the identical schedule" test_rewind_replays_schedule;
    t "supervise: transient crash retries then succeeds" test_supervise_retries_then_succeeds;
    t "supervise: exhausted retries settle as Job_crashed"
      test_supervise_exhausts_to_job_crashed;
    t "supervise: typed errors are never retried" test_supervise_never_retries_typed_errors;
    t "supervise: quarantine after two exhausted cycles"
      test_quarantine_after_two_exhausted_cycles;
    t "pool: crashes isolate per slot" test_pool_isolates_crashes_per_slot;
    t "pool: fatal exceptions escape isolation" test_pool_fatal_exceptions_not_isolated;
    t "pool: injected domain death restarts supervised"
      test_pool_injected_fault_isolated_and_restarted;
    t "cache: truncated entry rejected and recomputed" test_cache_truncated_entry_recovered;
    t "cache: fsck sweeps torn entries, temps, orphan locks" test_cache_fsck_sweeps_junk;
    t "cache: write faults skip the store, leave no junk" test_cache_write_fault_skips_store;
    t "cache: two processes race without serving torn entries" test_cache_two_process_race;
    t "invariant: absorbed schedules reproduce fault-free rows (7 specs x 10 seeds x 2 jobs)"
      test_chaos_matrix_absorbed;
    t "invariant: overwhelming schedules settle as typed crashes (10 seeds)"
      test_chaos_matrix_overwhelmed;
    t "portfolio: effective_jobs falls back to sequential" test_effective_jobs_fallback;
    t "nova-error: Job_crashed exit code and message" test_job_crashed_error_surface;
    t "supervise: protect is one-shot and fatal-transparent" test_supervise_protect_one_shot;
    t "race: crashed primary falls through to next rung" test_race_falls_through_crashed_rung;
    t "portfolio: quarantined pair skipped with typed row"
      test_quarantine_skips_repeat_offender_in_run;
    t "driver: degradation warning counts rung attempts"
      test_degradation_warning_counts_attempts;
    t "cache: warm-cache read fault recovers by recompute"
      test_cache_read_fault_on_warm_cache_recovers;
  ]
