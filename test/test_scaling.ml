(* Tests for the scaling-curve bench harness (lib/scaling): the
   complexity fitter must recover known model classes and exponents from
   seeded noisy synthetic series and refuse degenerate ones with a typed
   inconclusive; the measurement layer's MAD filter must reject isolated
   outliers in either direction; the graded generator must be
   byte-deterministic per seed with distinct content addresses per grid
   size; and the emitted artifact must parse, self-diff clean, and carry
   the complexity-gate metrics exactly when a fit exists. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fit: recovery of known complexity classes under seeded noise *)

let shape_of model n =
  match model with
  | Scaling.Fit.Linear -> n
  | Scaling.Fit.N_log_n -> n *. (log n /. log 2.)
  | Scaling.Fit.Quadratic -> n ** 2.
  | Scaling.Fit.Cubic -> n ** 3.
  | Scaling.Fit.Exponential -> 2. ** n

let sizes = List.map float_of_int [ 8; 16; 32; 64; 128; 256; 512 ]

(* c * shape(n) with seeded multiplicative noise: t = c*f(n)*exp(eps),
   eps uniform in +-0.05 — the regime the log-space fitter is built for. *)
let noisy_series ~seed ~coeff model =
  let rng = Random.State.make [| seed; Scaling.Fit.model_order model |] in
  List.map
    (fun n ->
      let eps = (Random.State.float rng 0.1) -. 0.05 in
      (n, coeff *. shape_of model n *. exp eps))
    sizes

let fitted = function
  | Scaling.Fit.Fitted f -> f
  | Scaling.Fit.Inconclusive why ->
      Alcotest.failf "expected a fit, got inconclusive: %s"
        (Scaling.Fit.inconclusive_reason why)

let recover_case model expected_exponent () =
  List.iter
    (fun seed ->
      let f = fitted (Scaling.Fit.fit (noisy_series ~seed ~coeff:3.7e-6 model)) in
      if f.Scaling.Fit.model <> model then
        Alcotest.failf "seed %d: fitted %s, wanted %s" seed
          (Scaling.Fit.model_name f.Scaling.Fit.model)
          (Scaling.Fit.model_name model);
      let d = Float.abs (f.Scaling.Fit.exponent -. expected_exponent) in
      if d > 0.2 then
        Alcotest.failf "seed %d: exponent %.3f, wanted %.3f +- 0.2" seed
          f.Scaling.Fit.exponent expected_exponent;
      check (Printf.sprintf "seed %d: good fit" seed) true (f.Scaling.Fit.r2 > 0.95))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_fit_recovers_linear = recover_case Scaling.Fit.Linear 1.0
let test_fit_recovers_quadratic = recover_case Scaling.Fit.Quadratic 2.0
let test_fit_recovers_cubic = recover_case Scaling.Fit.Cubic 3.0

(* n log n sits between linear and quadratic; its free power-law slope
   on this grid is ~1.1-1.3, and the class must still be told apart from
   both neighbours. *)
let test_fit_recovers_nlogn () =
  List.iter
    (fun seed ->
      let f = fitted (Scaling.Fit.fit (noisy_series ~seed ~coeff:5e-7 Scaling.Fit.N_log_n)) in
      if f.Scaling.Fit.model <> Scaling.Fit.N_log_n then
        Alcotest.failf "seed %d: fitted %s, wanted nlogn" seed
          (Scaling.Fit.model_name f.Scaling.Fit.model);
      check "exponent between linear and quadratic" true
        (f.Scaling.Fit.exponent > 1.0 && f.Scaling.Fit.exponent < 1.5))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* For the exponential winner the reported exponent is the base-2 rate:
   c * 2^n must come back as rate 1. *)
let test_fit_recovers_exponential () =
  List.iter
    (fun seed ->
      let f =
        fitted (Scaling.Fit.fit (noisy_series ~seed ~coeff:1e-9 Scaling.Fit.Exponential))
      in
      if f.Scaling.Fit.model <> Scaling.Fit.Exponential then
        Alcotest.failf "seed %d: fitted %s, wanted exponential" seed
          (Scaling.Fit.model_name f.Scaling.Fit.model);
      let d = Float.abs (f.Scaling.Fit.exponent -. 1.0) in
      if d > 0.05 then Alcotest.failf "seed %d: rate %.4f, wanted 1" seed f.Scaling.Fit.exponent)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* Exact noiseless series: the true model has zero residual and a
   perfect R². *)
let test_fit_exact_series () =
  List.iter
    (fun model ->
      let pts = List.map (fun n -> (n, 2e-5 *. shape_of model n)) sizes in
      let f = fitted (Scaling.Fit.fit pts) in
      check_str "exact class" (Scaling.Fit.model_name model)
        (Scaling.Fit.model_name f.Scaling.Fit.model);
      checkf "zero residual" 0. f.Scaling.Fit.residual;
      checkf "perfect r2" 1. f.Scaling.Fit.r2;
      check "coefficient recovered" true
        (Float.abs ((f.Scaling.Fit.coeff /. 2e-5) -. 1.) < 1e-6))
    [ Scaling.Fit.Linear; Scaling.Fit.N_log_n; Scaling.Fit.Quadratic; Scaling.Fit.Cubic;
      Scaling.Fit.Exponential ]

(* ------------------------------------------------------------------ *)
(* Fit: degenerate inputs come back typed-inconclusive, never bogus *)

let inconclusive_of = function
  | Scaling.Fit.Inconclusive why -> why
  | Scaling.Fit.Fitted f ->
      Alcotest.failf "expected inconclusive, got a %s fit"
        (Scaling.Fit.model_name f.Scaling.Fit.model)

let test_fit_too_few_points () =
  match inconclusive_of (Scaling.Fit.fit [ (8., 1e-3); (16., 2e-3); (32., 4e-3) ]) with
  | Scaling.Fit.Too_few_points 3 -> ()
  | why -> Alcotest.failf "wrong reason: %s" (Scaling.Fit.inconclusive_reason why)

let test_fit_constant_series () =
  match
    inconclusive_of (Scaling.Fit.fit [ (8., 1e-3); (16., 1e-3); (32., 1e-3); (64., 1e-3) ])
  with
  | Scaling.Fit.Constant_series -> ()
  | why -> Alcotest.failf "wrong reason: %s" (Scaling.Fit.inconclusive_reason why)

let test_fit_non_positive_time () =
  match
    inconclusive_of (Scaling.Fit.fit [ (8., 1e-3); (16., 0.); (32., 4e-3); (64., 8e-3) ])
  with
  | Scaling.Fit.Non_positive_time -> ()
  | why -> Alcotest.failf "wrong reason: %s" (Scaling.Fit.inconclusive_reason why)

let test_fit_degenerate_sizes () =
  (match
     inconclusive_of (Scaling.Fit.fit [ (8., 1e-3); (8., 2e-3); (8., 3e-3); (8., 4e-3) ])
   with
  | Scaling.Fit.Degenerate_sizes -> ()
  | why -> Alcotest.failf "same-size grid: %s" (Scaling.Fit.inconclusive_reason why));
  match
    inconclusive_of (Scaling.Fit.fit [ (1., 1e-3); (16., 2e-3); (32., 4e-3); (64., 8e-3) ])
  with
  | Scaling.Fit.Degenerate_sizes -> ()
  | why -> Alcotest.failf "size below 2: %s" (Scaling.Fit.inconclusive_reason why)

(* ------------------------------------------------------------------ *)
(* Measure: MAD outlier rejection and min-of-kept *)

let test_measure_median_mad () =
  checkf "odd median" 2. (Scaling.Measure.median [ 3.; 1.; 2. ]);
  checkf "even median" 2.5 (Scaling.Measure.median [ 4.; 1.; 2.; 3. ]);
  checkf "mad of symmetric spread" 1. (Scaling.Measure.mad [ 1.; 2.; 3.; 4.; 5. ])

let test_measure_rejects_high_outlier () =
  let kept = Scaling.Measure.mad_filter [ 10.; 11.; 10.5; 9.5; 1000. ] in
  check "slow outlier dropped" false (List.mem 1000. kept);
  check_int "others kept" 4 (List.length kept)

(* An absurdly *fast* run (clock glitch) must not survive to become the
   min either. *)
let test_measure_rejects_low_outlier () =
  let kept = Scaling.Measure.mad_filter [ 0.1; 10.; 11.; 10.5; 9.5 ] in
  check "fast outlier dropped" false (List.mem 0.1 kept);
  checkf "min of kept is the honest minimum" 9.5 (List.fold_left Float.min infinity kept)

let test_measure_zero_mad_keeps_all () =
  (* At least half the runs identical: MAD is 0, nothing is
     distinguishable, everything survives. *)
  let runs = [ 10.; 10.; 10.; 10.; 1000. ] in
  check_int "all kept under zero MAD" 5 (List.length (Scaling.Measure.mad_filter runs))

let test_measure_sample () =
  let calls = ref 0 in
  let s = Scaling.Measure.sample ~warmup:2 ~reps:4 ~size:33 (fun () -> incr calls) in
  check_int "warmup + reps calls" 6 !calls;
  check_int "size recorded" 33 s.Scaling.Measure.size;
  check_int "all reps recorded" 4 (List.length s.Scaling.Measure.runs_s);
  check "kept is a subset" true
    (List.for_all (fun k -> List.mem k s.Scaling.Measure.runs_s) s.Scaling.Measure.kept_s);
  check "time is the min of kept" true
    (List.for_all (fun k -> s.Scaling.Measure.time_s <= k) s.Scaling.Measure.kept_s);
  (match Scaling.Measure.sample ~reps:0 ~size:1 ignore with
  | _ -> Alcotest.fail "reps=0 must raise"
  | exception Invalid_argument _ -> ());
  match Scaling.Measure.sample ~warmup:(-1) ~size:1 ignore with
  | _ -> Alcotest.fail "negative warmup must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Grid: determinism and content addressing *)

let test_grid_deterministic_text () =
  let f = Scaling.Grid.default in
  List.iter
    (fun size ->
      let a = Scaling.Grid.kiss_text f size and b = Scaling.Grid.kiss_text f size in
      check_str (Printf.sprintf "size %d byte-identical across calls" size) a b)
    (Scaling.Grid.sizes ~quick:true)

let test_grid_distinct_content_keys () =
  let f = Scaling.Grid.default in
  let keys = List.map (Scaling.Grid.content_key f) (Scaling.Grid.sizes ~quick:true) in
  check_int "every grid size has a distinct content address"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* And the key is stable: the cache can rely on it across runs. *)
  check_str "key stable across calls" (List.hd keys)
    (Scaling.Grid.content_key f (List.hd (Scaling.Grid.sizes ~quick:true)))

let test_grid_seed_sensitivity () =
  let f = Scaling.Grid.default in
  let g = { f with Scaling.Grid.seed = f.Scaling.Grid.seed + 1 } in
  check "different seed, different machine" false
    (Scaling.Grid.kiss_text f 32 = Scaling.Grid.kiss_text g 32)

let test_grid_machine_shape () =
  let f = Scaling.Grid.default in
  List.iter
    (fun size ->
      let m = Scaling.Grid.machine f size in
      check_int (Printf.sprintf "size %d: states" size) size (Fsm.num_states ~m);
      check_int
        (Printf.sprintf "size %d: rows" size)
        (f.Scaling.Grid.rows_per_state * size)
        (List.length m.Fsm.transitions))
    [ 8; 16; 32 ];
  match Scaling.Grid.machine f 0 with
  | _ -> Alcotest.fail "size 0 must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Report: a real (tiny) cell measures, serializes, and self-diffs clean *)

let with_temp_dir f =
  let dir = Filename.temp_file "nova-scaling-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let tiny_cell () =
  Scaling.Report.run_cell ~warmup:0 ~reps:1 ~family:Scaling.Grid.default
    ~sizes:[ 8; 12; 16; 24 ]
    { Scaling.Report.algorithm = Harness.Driver.Igreedy; max_states = 64 }

let test_report_cell_and_artifact () =
  let cell = tiny_cell () in
  check_int "all four sizes measured" 4 (List.length cell.Scaling.Report.points);
  let j = Scaling.Report.to_json ~quick:true ~reps:1 [ cell ] in
  (match Option.bind (Json_min.member "schema" j) Json_min.to_string with
  | Some s -> check_str "schema" "nova-bench-scaling/v1" s
  | None -> Alcotest.fail "no schema field");
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "BENCH_scaling.json" in
  Scaling.Report.write ~path ~quick:true ~reps:1 [ cell ];
  let a = Bench_diff.load path in
  check_str "differ reads the schema" "nova-bench-scaling/v1" a.Bench_diff.schema;
  check_int "self-diff is clean" 0 (Bench_diff.num_regressions (Bench_diff.diff a a));
  (* The complexity-gate metrics are exactly the flattened fit fields. *)
  let metrics = List.concat_map (fun (_, ms) -> List.map fst ms) a.Bench_diff.rows in
  check "fit.model_order flattened" true (List.mem "fit.model_order" metrics);
  check "fit.fitted_exponent flattened" true (List.mem "fit.fitted_exponent" metrics);
  check "raw samples are not diffable metrics" true
    (List.for_all (fun m -> not (String.length m >= 6 && String.sub m 0 6 = "points")) metrics)

let test_report_max_states_cap () =
  let cell =
    Scaling.Report.run_cell ~warmup:0 ~reps:1 ~family:Scaling.Grid.default
      ~sizes:[ 8; 12; 16; 24 ]
      { Scaling.Report.algorithm = Harness.Driver.Igreedy; max_states = 16 }
  in
  check_int "sizes above the cap skipped" 3 (List.length cell.Scaling.Report.points);
  (* 3 points cannot support a 5-way model selection: typed inconclusive,
     and the artifact omits the gate metrics for the cell. *)
  (match cell.Scaling.Report.fit with
  | Scaling.Fit.Inconclusive (Scaling.Fit.Too_few_points 3) -> ()
  | Scaling.Fit.Inconclusive why ->
      Alcotest.failf "wrong reason: %s" (Scaling.Fit.inconclusive_reason why)
  | Scaling.Fit.Fitted _ -> Alcotest.fail "3 points must be inconclusive");
  let j = Scaling.Report.to_json ~quick:true ~reps:1 [ cell ] in
  let row =
    match Option.bind (Json_min.member "benchmarks" j) Json_min.to_list with
    | Some [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one row"
  in
  let fit = Option.get (Json_min.member "fit" row) in
  check "inconclusive cell has no model_order" true (Json_min.member "model_order" fit = None);
  match Option.bind (Json_min.member "model" fit) Json_min.to_string with
  | Some s -> check_str "inconclusive marker" "inconclusive" s
  | None -> Alcotest.fail "no model field"

(* An inconclusive NEW cell against a fitted OLD cell is a vanished-metric
   regression — the end-to-end shape of the CI gate. *)
let test_report_inconclusive_regresses_against_fitted () =
  with_temp_dir @@ fun dir ->
  let fitted_cell = tiny_cell () in
  let capped =
    Scaling.Report.run_cell ~warmup:0 ~reps:1 ~family:Scaling.Grid.default
      ~sizes:[ 8; 12; 16; 24 ]
      { Scaling.Report.algorithm = Harness.Driver.Igreedy; max_states = 16 }
  in
  let old_p = Filename.concat dir "old.json" and new_p = Filename.concat dir "new.json" in
  Scaling.Report.write ~path:old_p ~quick:true ~reps:1 [ fitted_cell ];
  Scaling.Report.write ~path:new_p ~quick:true ~reps:1 [ capped ];
  let r = Bench_diff.diff (Bench_diff.load old_p) (Bench_diff.load new_p) in
  check "going inconclusive is a regression" true (Bench_diff.num_regressions r > 0);
  check "the vanished gate metrics are named" true
    (List.exists (fun (_, m) -> m = "fit.model_order") r.Bench_diff.vanished
    && List.exists (fun (_, m) -> m = "fit.fitted_exponent") r.Bench_diff.vanished)

(* ------------------------------------------------------------------ *)
(* Artifacts: the point-sample modes keep the committed schemas *)

let keys = function Json_min.Obj kvs -> List.map fst kvs | _ -> []
let identity row = List.map (fun f -> Json_min.member f row) [ "name"; "mode"; "algorithm" ]

(* Written with the one atomic writer and read back by the differ, the
   lion rows of a fresh artifact have the same own keys (in order) and
   the same flattened metric keys as the lion rows of the committed
   BENCH_<mode>.json; a parallel artifact has its top-level keys. *)
let test_artifacts_keep_committed_schemas () =
  with_temp_dir @@ fun dir ->
  let machines = [ Benchmarks.Suite.find "lion" ] in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let rows_of j =
    match List.find_map (fun k -> Json_min.member k j) [ "benchmarks"; "runs" ] with
    | Some (Json_min.Arr rows) -> rows
    | _ -> [ j ]
  in
  let same_shape mode fresh =
    let path = Filename.concat dir mode in
    Trace.write_atomic ~path fresh;
    let committed_path = Printf.sprintf "../BENCH_%s.json" mode in
    let committed = Json_min.of_file committed_path in
    let old_a = Bench_diff.load committed_path and new_a = Bench_diff.load path in
    check_str (mode ^ " schema") old_a.Bench_diff.schema new_a.Bench_diff.schema;
    check (mode ^ " has rows") true (new_a.Bench_diff.rows <> []);
    List.iter
      (fun (key, metrics) ->
        match List.assoc_opt key old_a.Bench_diff.rows with
        | None -> Alcotest.failf "%s: row %s is not in the committed artifact" mode key
        | Some old_metrics ->
            Alcotest.(check (list string))
              (mode ^ " " ^ key ^ " metric keys")
              (List.map fst old_metrics) (List.map fst metrics))
      new_a.Bench_diff.rows;
    let committed_rows = rows_of committed in
    List.iter
      (fun row ->
        match List.find_opt (fun r -> identity r = identity row) committed_rows with
        | None -> Alcotest.failf "%s: a fresh row is not in the committed artifact" mode
        | Some old_row ->
            Alcotest.(check (list string)) (mode ^ " row keys") (keys old_row) (keys row))
      (rows_of (Json_min.of_file path))
  in
  same_shape "espresso" (Scaling.Artifacts.espresso ~machines ~quick:false quiet);
  same_shape "pipeline" (Scaling.Artifacts.pipeline ~machines ~quick:false quiet);
  same_shape "check" (Scaling.Artifacts.check ~machines ~quick:false quiet);
  same_shape "parallel" (Scaling.Artifacts.parallel ~machines ~quick:true ~jobs:1 quiet)

let suite =
  [
    Alcotest.test_case "fit: recovers c*n as linear, exponent ~1" `Quick test_fit_recovers_linear;
    Alcotest.test_case "fit: recovers c*n^2 as quadratic, exponent ~2" `Quick
      test_fit_recovers_quadratic;
    Alcotest.test_case "fit: recovers c*n^3 as cubic, exponent ~3" `Quick test_fit_recovers_cubic;
    Alcotest.test_case "fit: tells n log n apart from its neighbours" `Quick
      test_fit_recovers_nlogn;
    Alcotest.test_case "fit: recovers c*2^n as exponential, rate ~1" `Quick
      test_fit_recovers_exponential;
    Alcotest.test_case "fit: exact series fit perfectly, coefficient included" `Quick
      test_fit_exact_series;
    Alcotest.test_case "fit: under 4 points is typed inconclusive" `Quick test_fit_too_few_points;
    Alcotest.test_case "fit: constant series is typed inconclusive" `Quick
      test_fit_constant_series;
    Alcotest.test_case "fit: non-positive time is typed inconclusive" `Quick
      test_fit_non_positive_time;
    Alcotest.test_case "fit: degenerate sizes are typed inconclusive" `Quick
      test_fit_degenerate_sizes;
    Alcotest.test_case "measure: median and MAD" `Quick test_measure_median_mad;
    Alcotest.test_case "measure: slow outlier rejected" `Quick test_measure_rejects_high_outlier;
    Alcotest.test_case "measure: fast outlier cannot become the min" `Quick
      test_measure_rejects_low_outlier;
    Alcotest.test_case "measure: zero MAD keeps every run" `Quick test_measure_zero_mad_keeps_all;
    Alcotest.test_case "measure: sample counts warmup/reps and min-of-kept" `Quick
      test_measure_sample;
    Alcotest.test_case "grid: same seed, byte-identical KISS2 at every size" `Quick
      test_grid_deterministic_text;
    Alcotest.test_case "grid: distinct sizes, distinct content addresses" `Quick
      test_grid_distinct_content_keys;
    Alcotest.test_case "grid: seed changes the machine" `Quick test_grid_seed_sensitivity;
    Alcotest.test_case "grid: members have the requested shape" `Quick test_grid_machine_shape;
    Alcotest.test_case "report: tiny real cell serializes and self-diffs clean" `Quick
      test_report_cell_and_artifact;
    Alcotest.test_case "report: max_states cap and inconclusive cells omit gate metrics" `Quick
      test_report_max_states_cap;
    Alcotest.test_case "report: fitted -> inconclusive regresses via vanished metrics" `Quick
      test_report_inconclusive_regresses_against_fitted;
    Alcotest.test_case "artifacts: lion rows keep the committed BENCH_* keys" `Quick
      test_artifacts_keep_committed_schemas;
  ]
