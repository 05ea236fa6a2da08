(* The point-sample artifacts of `nova bench MODE`: per machine, one run
   of the ESPRESSO kernels, the staged pipeline, the certifier, or the
   whole portfolio on the executor. *)

let str s = Json_min.Str s
let int n = Json_min.Num (float_of_int n)

let round digits f =
  let k = 10. ** float_of_int digits in
  Float.round (f *. k) /. k

let fixed digits f = Json_min.Num (round digits f)
let seconds f = fixed 6 f

(* One wall gate of this run, decided where it is measured: [value]
   against [limit], both at the artifact's resolution, by the differ's
   wall rule with [slack] as its threshold. *)
let gate name ~value ~limit ~slack =
  let value = round 6 value and limit = round 6 limit in
  Json_min.Obj
    [
      ("gate", str name); ("value_s", Json_min.Num value);
      ("limit_s", Json_min.Num limit); ("slack", Json_min.Num slack);
      ( "pass",
        Json_min.Bool (not (Bench_diff.wall_regressed ~threshold:slack ~reference:limit value)) );
    ]

let mode_name ~quick = if quick then "quick" else "full"

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let machines ~quick =
  let heavy = if quick then [] else [ "keyb"; "styr"; "sand"; "planet" ] in
  let name, io, num_states, num_rows =
    if quick then ("gen_medium", 6, 40, 160) else ("gen_large", 8, 80, 400)
  in
  List.map Benchmarks.Suite.find ([ "lion"; "dk15"; "bbara"; "ex2"; "dk16" ] @ heavy)
  @ [
      Benchmarks.Generator.generate ~name ~num_inputs:io ~num_outputs:io ~num_states ~num_rows
        ~seed:4242;
    ]

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let artifact schema ~quick fields =
  Json_min.Obj ([ ("schema", str schema); ("mode", str (mode_name ~quick)) ] @ fields)

(* --- espresso ------------------------------------------------------------ *)

(* Encodings are fixed (random, seed 0, minimum width) so runs are
   comparable across commits. *)
let espresso_row ppf (m : Fsm.t) =
  Metrics.Registry.reset ();
  let n = Fsm.num_states ~m and nbits = Fsm.min_code_length m in
  let e = Encoding.random (Random.State.make [| 0 |]) ~num_states:n ~nbits in
  let r = Encoded.implement m e in
  let section name = Report.section_seconds (( = ) name) in
  let minimize_s = section "espresso.minimize" in
  let taut_s = section "logic.tautology" and compl_s = section "logic.complement" in
  let lits = Logic.Cover.literal_cost r.Encoded.cover in
  Format.fprintf ppf
    "%-12s states=%3d rows=%4d  minimize=%8.4fs taut=%8.4fs compl=%8.4fs cubes=%4d lits=%5d@."
    m.Fsm.name n (List.length m.Fsm.transitions) minimize_s taut_s compl_s r.Encoded.num_cubes
    lits;
  ( Json_min.Obj
      [
        ("name", str m.Fsm.name); ("states", int n); ("rows", int (List.length m.Fsm.transitions));
        ("nbits", int nbits); ("minimize_s", seconds minimize_s);
        ("num_cubes", int r.Encoded.num_cubes); ("literal_cost", int lits);
        ("area", int r.Encoded.area); ("tautology_kernel_s", seconds taut_s);
        ("complement_kernel_s", seconds compl_s);
        ("instrument", Harness.Telemetry.instrument_block ());
      ],
    (minimize_s, taut_s, compl_s) )

let espresso ?machines:ms ~quick ppf =
  let ms = Option.value ms ~default:(machines ~quick) in
  Format.fprintf ppf "@.== ESPRESSO kernel benchmark (%s) ==@." (mode_name ~quick);
  let rows = List.map (espresso_row ppf) ms in
  let total f = List.fold_left (fun acc (_, t) -> acc +. f t) 0. rows in
  let t_min = total (fun (m, _, _) -> m) and t_taut = total (fun (_, t, _) -> t) in
  let t_compl = total (fun (_, _, c) -> c) in
  Format.fprintf ppf "%-12s                  minimize=%8.4fs taut=%8.4fs compl=%8.4fs@." "TOTAL"
    t_min t_taut t_compl;
  let totals =
    [
      ("minimize_s", seconds t_min); ("tautology_kernel_s", seconds t_taut);
      ("complement_kernel_s", seconds t_compl);
    ]
  in
  artifact "nova-bench-espresso/v1" ~quick
    [ ("benchmarks", Json_min.Arr (List.map fst rows)); ("totals", Json_min.Obj totals) ]

(* --- pipeline ------------------------------------------------------------ *)

(* ihybrid under an unlimited budget (the reference path) and iexact
   under a 50 ms deadline (the graceful-degradation path: the fallback
   ladder must still produce an encoding). *)
let pipeline_row ppf (m : Fsm.t) ~mode ~algo ~budget =
  Metrics.Registry.reset ();
  let outcome, wall = timed (fun () -> Harness.Driver.report ~budget m algo) in
  let algorithm = Harness.Driver.name algo in
  let body =
    match outcome with
    | Error err ->
        Format.fprintf ppf "%-12s %-12s %-8s FAILED: %s@." m.Fsm.name algorithm mode
          (Nova_error.to_string err);
        [ ("error", str (Nova_error.to_string err)) ]
    | Ok (o, r) ->
        let rung = Harness.Driver.rung_name o.Harness.Driver.produced_by in
        let nbits = o.Harness.Driver.encoding.Encoding.nbits in
        let degradations = o.Harness.Driver.degradations in
        Format.fprintf ppf
          "%-12s %-12s %-8s wall=%8.4fs produced_by=%-10s degradations=%d nbits=%2d cubes=%4d \
           area=%6d@."
          m.Fsm.name algorithm mode wall rung (List.length degradations) nbits r.Encoded.num_cubes
          r.Encoded.area;
        let degradation (rung, err) =
          Json_min.Obj
            [
              ("rung", str (Harness.Driver.rung_name rung));
              ("error", str (Nova_error.to_string err));
            ]
        in
        [
          ("produced_by", str rung);
          ("degradations", Json_min.Arr (List.map degradation degradations));
          ("nbits", int nbits); ("num_cubes", int r.Encoded.num_cubes);
          ("area", int r.Encoded.area);
        ]
  in
  Json_min.Obj
    ([
       ("name", str m.Fsm.name); ("mode", str mode); ("algorithm", str algorithm);
       ("states", int (Fsm.num_states ~m)); ("rows", int (List.length m.Fsm.transitions));
       ("wall_s", seconds wall);
     ]
    @ body
    @ [ ("stages", Harness.Telemetry.pipeline_stages ()) ])

let pipeline ?machines:ms ~quick ppf =
  let ms = Option.value ms ~default:(machines ~quick) in
  Format.fprintf ppf "@.== staged pipeline benchmark (%s) ==@." (mode_name ~quick);
  let runs m =
    let unlimited =
      pipeline_row ppf m ~mode:"unlimited" ~algo:Harness.Driver.Ihybrid ~budget:(Budget.create ())
    in
    let budget = Budget.create ~deadline_ms:50.0 () in
    [ unlimited; pipeline_row ppf m ~mode:"deadline50ms" ~algo:Harness.Driver.Iexact ~budget ]
  in
  artifact "nova-bench-pipeline/v1" ~quick [ ("runs", Json_min.Arr (List.concat_map runs ms)) ]

(* --- check --------------------------------------------------------------- *)

(* Every row is expected to certify clean: a [false] in [ok] is a
   correctness regression, not a slow run. *)
let check_row ppf (m : Fsm.t) algo =
  (* iexact is exponential: the work cap the paper tables use keeps it
     bounded (the fallback ladder still certifies whatever rung
     produced the encoding). *)
  let budget = Budget.create ~max_work:Harness.Driver.iexact_max_work () in
  let algorithm = Harness.Driver.name algo in
  let head = [ ("name", str m.Fsm.name); ("algorithm", str algorithm) ] in
  match Harness.Driver.report ~budget m algo with
  | Error err ->
      Format.fprintf ppf "%-12s %-10s FAILED: %s@." m.Fsm.name algorithm (Nova_error.to_string err);
      Json_min.Obj (head @ [ ("error", str (Nova_error.to_string err)) ])
  | Ok (o, r) ->
      let cert = Harness.Certify.run m o r in
      let rung = Harness.Driver.rung_name o.Harness.Driver.produced_by in
      let span = List.fold_left (fun acc (c : Check.outcome) -> acc +. c.Check.span_s) 0. in
      Format.fprintf ppf "%-12s %-10s %-4s checks=%d span=%8.4fs produced_by=%s@." m.Fsm.name
        algorithm
        (if cert.Check.ok then "OK" else "FAIL")
        (List.length cert.Check.checks) (span cert.Check.checks) rung;
      Json_min.Obj (head @ [ ("produced_by", str rung); ("certificate", Check.to_json cert) ])

let check ?machines:ms ~quick ppf =
  let ms = Option.value ms ~default:(machines ~quick) in
  Format.fprintf ppf "@.== certification benchmark (%s) ==@." (mode_name ~quick);
  let algorithms = Harness.Driver.[ Ihybrid; Igreedy; Iohybrid; Iexact ] in
  let rows = List.concat_map (fun m -> List.map (check_row ppf m) algorithms) ms in
  artifact "nova-bench-check/v1" ~quick [ ("runs", Json_min.Arr rows) ]

(* --- parallel ------------------------------------------------------------ *)

let rows_identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Exec.Job.row) (y : Exec.Job.row) ->
         match (x.Exec.Job.result, y.Exec.Job.result) with
         | Ok u, Ok v -> Exec.Job.success_equal u v
         | Error u, Error v -> u = v
         | _ -> false)
       a b

let parallel ?machines:ms ~quick ~jobs ppf =
  let ms = Option.value ms ~default:(machines ~quick) in
  Format.fprintf ppf "@.== parallel executor benchmark (%s, %d jobs) ==@." (mode_name ~quick)
    jobs;
  let tasks = List.concat_map Exec.Portfolio.tasks_for ms in
  let seq_rows, seq_wall = timed (fun () -> Exec.Portfolio.run ~jobs:1 tasks) in
  let par_rows, par_wall = timed (fun () -> Exec.Portfolio.run ~jobs tasks) in
  let identical = rows_identical seq_rows par_rows in
  let available = Exec.Pool.available_jobs () in
  let effective_jobs = Exec.Portfolio.effective_jobs ~available ~requested:jobs in
  Format.fprintf ppf "%d tasks  seq=%8.3fs  jobs=%d(eff %d)=%8.3fs  speedup=%.2fx  identical=%b@."
    (List.length tasks) seq_wall jobs effective_jobs par_wall (seq_wall /. par_wall) identical;
  (* Supervision overhead with no faults injected: the retry machinery
     is a quarantine-table probe and an exception handler per job, so
     supervised and bare walls should be within noise. *)
  let seq_wall_under policy = snd (timed (fun () -> Exec.Portfolio.run ~jobs:1 ~policy tasks)) in
  let unsup_wall = seq_wall_under Exec.Supervise.off in
  let sup_wall = seq_wall_under Exec.Supervise.default_policy in
  Format.fprintf ppf "supervision  bare=%8.3fs  supervised=%8.3fs  overhead=%+.2f%%@." unsup_wall
    sup_wall ((sup_wall /. unsup_wall -. 1.) *. 100.);
  let cold_wall, warm_wall, warm_identical, stats =
    with_temp_dir "nova-bench-cache" @@ fun dir ->
    let cold = Exec.Cache.open_dir dir in
    let cold_rows, cold_wall = timed (fun () -> Exec.Portfolio.run ~jobs ~cache:cold tasks) in
    let warm = Exec.Cache.open_dir dir in
    let warm_rows, warm_wall = timed (fun () -> Exec.Portfolio.run ~jobs ~cache:warm tasks) in
    (cold_wall, warm_wall, rows_identical cold_rows warm_rows, Exec.Cache.stats warm)
  in
  let lookups = stats.Exec.Cache.hits + stats.Exec.Cache.misses in
  let hit_rate = if lookups = 0 then 0. else float stats.Exec.Cache.hits /. float lookups in
  Format.fprintf ppf "cache  cold=%8.3fs  warm=%8.3fs  speedup=%.2fx  hits=%d/%d  identical=%b@."
    cold_wall warm_wall (cold_wall /. warm_wall) stats.Exec.Cache.hits lookups warm_identical;
  let open Json_min in
  artifact "nova-bench-parallel/v1" ~quick
    [
      ("jobs", int jobs); ("effective_jobs", int effective_jobs); ("available_jobs", int available);
      ("tasks", int (List.length tasks)); ("seq_wall_s", seconds seq_wall);
      ("par_wall_s", seconds par_wall); ("speedup", fixed 4 (seq_wall /. par_wall));
      ("identical", Bool identical);
      ( "supervision",
        Obj
          [
            ("unsupervised_wall_s", seconds unsup_wall); ("supervised_wall_s", seconds sup_wall);
            ("overhead", fixed 4 ((sup_wall /. unsup_wall) -. 1.));
          ] );
      ( "cache",
        Obj
          [
            ("cold_wall_s", seconds cold_wall); ("warm_wall_s", seconds warm_wall);
            ("warm_speedup", fixed 4 (cold_wall /. warm_wall)); ("identical", Bool warm_identical);
            ("hits", int stats.Exec.Cache.hits); ("misses", int stats.Exec.Cache.misses);
            ("stores", int stats.Exec.Cache.stores); ("rejected", int stats.Exec.Cache.rejected);
            ("hit_rate", fixed 4 hit_rate);
          ] );
      ( "gates",
        Arr
          [
            gate "pool_vs_sequential" ~value:par_wall ~limit:seq_wall ~slack:0.30;
            gate "supervised_vs_bare" ~value:sup_wall ~limit:unsup_wall ~slack:0.25;
          ] );
    ]

(* --- serve --------------------------------------------------------------- *)

exception Serve_bench_failed of string

(* The three tiers against in-process daemons whose sockets and cache
   live in [dir]: cold compute, certified hit, coalesced share. *)
let serve_tiers ~dir ~machine ~clients ppf =
  let request_on sock line =
    match Serve.Client.connect sock with
    | Error m -> Error m
    | Ok c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.request c line)
  in
  let must = function
    | Ok (r : Serve.Protocol.reply) when r.Serve.Protocol.ok -> r
    | Ok r ->
        raise
          (Serve_bench_failed
             ("server error: " ^ Option.value r.Serve.Protocol.error ~default:"?"))
    | Error m -> raise (Serve_bench_failed m)
  in
  (* Start a daemon and wait for it to accept; a ping also warms the
     code path so the cold sample measures encode, not module
     initialization. It is shut down and joined however [f] exits. *)
  let with_daemon ?cache sock f =
    let cfg =
      { (Serve.Server.default_config ~socket_path:sock) with Serve.Server.cache; quiet = true }
    in
    let server = Thread.create (fun () -> ignore (Serve.Server.run cfg)) () in
    let rec await tries =
      match request_on sock (Serve.Protocol.verb_line "ping") with
      | Ok _ -> ()
      | Error _ when tries > 0 ->
          Thread.delay 0.02;
          await (tries - 1)
      | Error _ -> raise (Serve_bench_failed "daemon did not come up")
    in
    await 250;
    Fun.protect
      ~finally:(fun () ->
        match request_on sock (Serve.Protocol.verb_line "shutdown") with
        | Ok _ -> Thread.join server
        | Error _ -> ())
      (fun () -> f (fun line -> must (request_on sock line)))
  in
  let line = Serve.Protocol.encode_line ~algorithm:"ihybrid" (Serve.Protocol.Builtin machine) in
  (* A fresh cache: a shared directory would turn "cold" into a hit. *)
  let cache = Exec.Cache.open_dir (Filename.concat dir "cache") in
  with_daemon ~cache (Filename.concat dir "a.sock") @@ fun request ->
  let _, cold_s = timed (fun () -> request line) in
  let warm, warm_s = timed (fun () -> request line) in
  (* Metered vs bare: the same warm (cache-hit) request hammered with the
     metrics registry on and off. The daemon runs in-process, so
     [Metrics.Registry.set_enabled] reaches its hot paths directly; the
     ratio of the two medians is what CI gates metrics overhead on.
     Rounds alternate which side goes first, so neither always runs on
     the warmer process. *)
  let warm_reps = 24 and rounds = 5 in
  let hammer metered =
    Metrics.Registry.set_enabled metered;
    let _, wall = timed (fun () -> for _ = 1 to warm_reps do ignore (request line) done) in
    Metrics.Registry.set_enabled true;
    wall
  in
  let samples =
    List.init rounds (fun r ->
        if r mod 2 = 0 then
          let m = hammer true in
          (m, hammer false)
        else
          let b = hammer false in
          (hammer true, b))
  in
  let metered_wall_s = Measure.median (List.map fst samples) in
  let bare_wall_s = Measure.median (List.map snd samples) in
  let metrics_overhead = if bare_wall_s > 0. then metered_wall_s /. bare_wall_s else 1. in
  (* Coalesced tier: the same request against a second, cache-less
     daemon. The key is fresh there, so one leader recomputes the cold
     work while the other clients coalesce onto it; per-request wall is
     directly comparable to [cold_s]. *)
  let sock2 = Filename.concat dir "b.sock" in
  let origins, batch_s =
    with_daemon sock2 @@ fun _ ->
    let replies = Array.make clients (Error "no reply") in
    let _, batch_s =
      timed (fun () ->
          List.init clients (fun i ->
              Thread.create (fun () -> replies.(i) <- request_on sock2 line) ())
          |> List.iter Thread.join)
    in
    (Array.to_list replies |> List.filter_map (fun r -> (must r).Serve.Protocol.origin), batch_s)
  in
  let coalesced_n = List.length (List.filter (( = ) "coalesced") origins) in
  let coalesced_s = batch_s /. float_of_int clients in
  let rps = float_of_int clients /. batch_s in
  Format.fprintf ppf
    "serve bench %s: cold %.4fs, warm %.4fs (%.1fx), coalesced %.4fs/req over %d clients \
     (%.1fx, %d shared), %.1f req/s, metrics overhead %.2fx over %d rounds of %d warm \
     requests@."
    machine cold_s warm_s (cold_s /. warm_s) coalesced_s clients (cold_s /. coalesced_s)
    coalesced_n rps metrics_overhead rounds warm_reps;
  let open Json_min in
  let row =
    [
      ("name", Str machine); ("mode", Str "encode"); ("algorithm", Str "ihybrid");
      ("cold_wall_s", seconds cold_s); ("warm_wall_s", seconds warm_s);
      ("warm_origin", Str (Option.value warm.Serve.Protocol.origin ~default:"?"));
      ("coalesced_wall_s", seconds coalesced_s); ("rps", fixed 2 rps); ("clients", int clients);
      ("coalesced", int coalesced_n); ("metered_wall_s", seconds metered_wall_s);
      ("bare_wall_s", seconds bare_wall_s); ("metrics_overhead", fixed 4 metrics_overhead);
    ]
  in
  (* The fast tiers must beat a fifth of the recorded cold wall, and
     metering may cost no more than the slack over bare. *)
  let tier_limit = round 6 cold_s /. 5. in
  let gates =
    [
      gate "warm_vs_cold" ~value:warm_s ~limit:tier_limit ~slack:0.25;
      gate "coalesced_vs_cold" ~value:coalesced_s ~limit:tier_limit ~slack:0.25;
      gate "metered_vs_bare" ~value:metered_wall_s ~limit:bare_wall_s ~slack:0.25;
    ]
  in
  Obj
    [
      ("schema", Str "nova-bench-serve/v1"); ("mode", Str "default"); ("runs", Arr [ Obj row ]);
      ("gates", Arr gates);
    ]

let serve ~machine ~clients ppf =
  match Benchmarks.Suite.find machine with
  | exception Not_found ->
      Error (Printf.sprintf "no built-in machine called %S (try `nova list`)" machine)
  | _ -> (
      match
        with_temp_dir "nova-serve-bench" (fun dir -> serve_tiers ~dir ~machine ~clients ppf)
      with
      | artifact -> Ok artifact
      | exception Serve_bench_failed m -> Error m)
