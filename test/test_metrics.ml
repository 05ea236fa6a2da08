(* Tests for the metrics layer (lib/metrics): log-linear histogram
   quantile error bounds against exact order statistics on seeded
   streams, lossless merging under concurrent observation from two
   domains, registry interning/validation/gating, Prometheus exposition
   escaping (round-tripped through Json_min) and the lint grammar it
   shares with scripts/check_prom.exe, the flight-recorder ring, and
   the quarantine registry snapshot surfaced through serve stats. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Histogram: quantiles within one bucket of the exact order statistic *)

(* Seeded value streams with deliberately different shapes: the error
   bound must hold regardless of where the mass sits. *)
let streams =
  let st = Random.State.make [| 0xBEEF; 7 |] in
  let uniform = List.init 10_000 (fun _ -> 1e-4 +. Random.State.float st 1.0) in
  let exponential =
    List.init 10_000 (fun _ -> -0.01 *. log (1. -. Random.State.float st 0.999))
  in
  let bimodal =
    List.init 10_000 (fun _ ->
        if Random.State.bool st then 0.001 +. Random.State.float st 0.0005
        else 0.5 +. Random.State.float st 0.2)
  in
  [ ("uniform", uniform); ("exponential", exponential); ("bimodal", bimodal) ]

let test_histogram_quantile_error_bound () =
  List.iter
    (fun (name, values) ->
      let h = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.observe h) values;
      let sorted = List.sort compare values |> Array.of_list in
      let n = Array.length sorted in
      check_int (name ^ ": count") n (Metrics.Histogram.count h);
      List.iter
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          let got_bucket = Metrics.Histogram.quantile_bucket h q in
          let exact_bucket = Metrics.Histogram.bucket_of exact in
          check
            (Printf.sprintf "%s p%g: bucket within one of exact" name (q *. 100.))
            true
            (abs (got_bucket - exact_bucket) <= 1);
          (* The reported midpoint is within the bucket's relative
             width (1/sub_buckets) of the exact order statistic. *)
          let reported = Metrics.Histogram.quantile h q in
          let rel = abs_float (reported -. exact) /. exact in
          check
            (Printf.sprintf "%s p%g: relative error %.4f within a bucket width" name
               (q *. 100.) rel)
            true
            (rel <= 1.0 /. float_of_int Metrics.Histogram.sub_buckets))
        [ 0.5; 0.9; 0.99 ])
    streams

let test_histogram_buckets_and_bounds () =
  (* Bounds tile the axis: each bucket's upper bound is the next one's
     lower bound, and a bound value files into its own bucket. *)
  for i = 40 to 80 do
    let lo = Metrics.Histogram.lower_bound i in
    let hi = Metrics.Histogram.upper_bound i in
    check "bounds ordered" true (lo < hi);
    check_str "upper meets next lower"
      (Printf.sprintf "%.17g" hi)
      (Printf.sprintf "%.17g" (Metrics.Histogram.lower_bound (i + 1)));
    check_int "lower bound files into its bucket" i (Metrics.Histogram.bucket_of lo)
  done;
  (* Out-of-range values clamp instead of raising or vanishing. *)
  check_int "zero clamps to bucket 0" 0 (Metrics.Histogram.bucket_of 0.);
  check_int "negative clamps to bucket 0" 0 (Metrics.Histogram.bucket_of (-3.));
  check_int "huge clamps to the top bucket"
    (Metrics.Histogram.num_buckets - 1)
    (Metrics.Histogram.bucket_of 1e12);
  let h = Metrics.Histogram.create () in
  check_int "empty quantile bucket" (-1) (Metrics.Histogram.quantile_bucket h 0.5);
  check "empty quantile is 0" true (Metrics.Histogram.quantile h 0.5 = 0.);
  Metrics.Histogram.observe h 0.001;
  Metrics.Histogram.observe h (-1.);
  check_int "non-positive observations still count" 2 (Metrics.Histogram.count h)

(* Two domains hammer one histogram: atomic bumps must merge exactly —
   the bucket totals sum to the observation count, nothing is lost. *)
let test_histogram_two_domain_merge () =
  let h = Metrics.Histogram.create () in
  let per_domain = 50_000 in
  let work seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to per_domain do
      Metrics.Histogram.observe h (1e-4 +. Random.State.float st 0.1)
    done
  in
  let d1 = Domain.spawn (work 1) and d2 = Domain.spawn (work 2) in
  Domain.join d1;
  Domain.join d2;
  check_int "no observation lost" (2 * per_domain) (Metrics.Histogram.count h);
  let buckets = Metrics.Histogram.snapshot h in
  check_int "bucket totals sum to the count" (2 * per_domain)
    (Array.fold_left ( + ) 0 buckets);
  check "sum is positive and bounded" true
    (Metrics.Histogram.sum h > 0. && Metrics.Histogram.sum h < float_of_int (2 * per_domain))

(* ------------------------------------------------------------------ *)
(* Registry: interning, validation, the enabled gate *)

let test_registry_interning_and_labels () =
  let a =
    Metrics.Registry.counter ~labels:[ ("b", "2"); ("a", "1") ] "test_intern_total"
  in
  let b =
    Metrics.Registry.counter ~labels:[ ("a", "1"); ("b", "2") ] "test_intern_total"
  in
  let before = Metrics.Registry.counter_value a in
  Metrics.Registry.inc a;
  Metrics.Registry.inc b;
  check_int "label order is canonicalized: one series" (before + 2)
    (Metrics.Registry.counter_value a);
  let other =
    Metrics.Registry.counter ~labels:[ ("a", "other"); ("b", "2") ] "test_intern_total"
  in
  check_int "distinct label values are distinct series" 0
    (Metrics.Registry.counter_value other);
  Metrics.Registry.add a 5;
  check_int "add" (before + 7) (Metrics.Registry.counter_value a);
  let g = Metrics.Registry.gauge "test_intern_gauge" in
  Metrics.Registry.set_gauge g 2.5;
  check "gauge set" true (Metrics.Registry.gauge_value g = 2.5)

let test_registry_validates_names () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "leading digit rejected" true
    (raises (fun () -> Metrics.Registry.counter "9bad"));
  check "dash rejected" true (raises (fun () -> Metrics.Registry.counter "bad-name"));
  check "empty rejected" true (raises (fun () -> Metrics.Registry.counter ""));
  check "colon legal in metric names" false
    (raises (fun () -> Metrics.Registry.counter "test_ns:alright_total"));
  check "bad label name rejected" true
    (raises (fun () ->
         Metrics.Registry.counter ~labels:[ ("bad-label", "v") ] "test_lbl_total"));
  check "colon illegal in label names" true
    (raises (fun () ->
         Metrics.Registry.counter ~labels:[ ("a:b", "v") ] "test_lbl2_total"))

let test_registry_enabled_gate () =
  let c = Metrics.Registry.counter "test_gate_total" in
  let h = Metrics.Registry.histogram "test_gate_seconds" in
  let was = Metrics.Registry.enabled () in
  Fun.protect ~finally:(fun () -> Metrics.Registry.set_enabled was) @@ fun () ->
  Metrics.Registry.set_enabled false;
  Metrics.Registry.inc c;
  Metrics.Registry.observe h 0.5;
  check_int "disabled counter does not move" 0 (Metrics.Registry.counter_value c);
  check_int "disabled histogram does not move" 0 (Metrics.Histogram.count h);
  Metrics.Registry.set_enabled true;
  Metrics.Registry.inc c;
  Metrics.Registry.observe h 0.5;
  check_int "re-enabled counter moves" 1 (Metrics.Registry.counter_value c);
  check_int "re-enabled histogram moves" 1 (Metrics.Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Exposition: escaping, Json_min round-trips, and the lint grammar *)

let tricky = "path\\to \"thing\"\nline2"

let test_expose_escaping () =
  check_str "label escapes backslash, quote, newline"
    "path\\\\to \\\"thing\\\"\\nline2"
    (Metrics.Expose.escape_label tricky);
  check_str "help escapes backslash and newline only" "path\\\\to \"thing\"\\nline2"
    (Metrics.Expose.escape_help tricky);
  (* A tricky label value survives the JSON snapshot: render with
     Json_min, parse back, read the identical bytes. *)
  let c =
    Metrics.Registry.counter ~labels:[ ("detail", tricky) ] "test_escape_total"
  in
  Metrics.Registry.inc c;
  let doc = Json_min.of_string (Json_min.render (Metrics.Expose.json ())) in
  let counters =
    Option.get (Option.bind (Json_min.member "counters" doc) Json_min.to_list)
  in
  let row =
    List.find
      (fun r ->
        Option.bind (Json_min.member "name" r) Json_min.to_string
        = Some "test_escape_total")
      counters
  in
  let labels = Option.get (Json_min.member "labels" row) in
  check "tricky label round-trips through Json_min" true
    (Option.bind (Json_min.member "detail" labels) Json_min.to_string = Some tricky)

let test_expose_prometheus_lints_clean () =
  (* Make sure each instrument kind (and a tricky label) is present,
     then lint the full process-wide exposition. *)
  Metrics.Registry.inc
    (Metrics.Registry.counter ~help:"A test counter."
       ~labels:[ ("detail", tricky) ] "test_lint_total");
  Metrics.Registry.set_gauge (Metrics.Registry.gauge ~help:"A test gauge." "test_lint_gauge") 3.25;
  Metrics.Registry.observe
    (Metrics.Registry.histogram ~help:"A test histogram." "test_lint_seconds")
    0.002;
  let text = Metrics.Expose.prometheus () in
  (match Metrics.Expose.lint text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exposition does not lint: %s" m);
  let has_line prefix =
    String.split_on_char '\n' text
    |> List.exists (fun l -> String.length l >= String.length prefix
                             && String.sub l 0 (String.length prefix) = prefix)
  in
  check "counter TYPE line" true (has_line "# TYPE test_lint_total counter");
  check "gauge sample" true (has_line "test_lint_gauge 3.25");
  check "summary TYPE line" true (has_line "# TYPE test_lint_seconds summary");
  check "summary quantile series" true (has_line "test_lint_seconds{quantile=\"0.5\"}");
  check "summary count series" true (has_line "test_lint_seconds_count");
  check "newline-terminated" true (text.[String.length text - 1] = '\n')

let test_expose_lint_rejects_broken () =
  let rejects name text =
    match Metrics.Expose.lint text with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "lint accepted %s" name
  in
  rejects "missing trailing newline" "# TYPE a counter\na 1";
  rejects "sample without TYPE" "orphan_total 1\n";
  rejects "unknown metric type" "# TYPE a enum\na 1\n";
  rejects "duplicate TYPE" "# TYPE a counter\n# TYPE a counter\na 1\n";
  rejects "illegal escape in label" "# TYPE a counter\na{l=\"x\\t\"} 1\n";
  rejects "unterminated label value" "# TYPE a counter\na{l=\"x} 1\n";
  rejects "non-numeric value" "# TYPE a counter\na one\n";
  rejects "bad metric name" "# TYPE 9a counter\n9a 1\n";
  rejects "summary without _sum/_count" "# TYPE s summary\ns{quantile=\"0.5\"} 1\n";
  match
    Metrics.Expose.lint
      "# HELP s help text\n# TYPE s summary\ns{quantile=\"0.5\"} 0.1\ns_sum 0.1\ns_count 1\n"
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "lint rejected a well-formed summary: %s" m

(* ------------------------------------------------------------------ *)
(* Flight recorder: ring semantics and the dump artifact *)

let flight_entry i =
  {
    Metrics.Flight.seq = 0; at = 1000. +. float_of_int i; verb = "ping"; machine = "";
    algorithm = ""; tier = "none"; wall_ms = 0.1; ok = true; code = 0; error = ""; spent = i;
  }

let test_flight_ring_wraps () =
  let t = Metrics.Flight.create 4 in
  check_int "capacity" 4 (Metrics.Flight.capacity t);
  for i = 0 to 9 do
    Metrics.Flight.record t (flight_entry i)
  done;
  check_int "recorded counts every entry" 10 (Metrics.Flight.recorded t);
  let es = Metrics.Flight.entries t in
  check_int "ring keeps the last capacity entries" 4 (List.length es);
  check "oldest first, newest last" true
    (List.map (fun e -> e.Metrics.Flight.spent) es = [ 6; 7; 8; 9 ]);
  check "ring assigns monotone seq" true
    (List.map (fun e -> e.Metrics.Flight.seq) es = [ 6; 7; 8; 9 ]);
  (* Under capacity: everything, in order. *)
  let small = Metrics.Flight.create 8 in
  Metrics.Flight.record small (flight_entry 0);
  Metrics.Flight.record small (flight_entry 1);
  check "partial ring in order" true
    (List.map (fun e -> e.Metrics.Flight.spent) (Metrics.Flight.entries small) = [ 0; 1 ])

let test_flight_dump_artifact () =
  let t = Metrics.Flight.create 3 in
  for i = 0 to 4 do
    Metrics.Flight.record t (flight_entry i)
  done;
  let path = Filename.temp_file "nova-flight-test" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Metrics.Flight.dump ~reason:"crash" ~path t;
  let doc = Json_min.of_file path in
  let str k = Option.bind (Json_min.member k doc) Json_min.to_string in
  let num k = Option.bind (Json_min.member k doc) Json_min.to_float in
  check "schema" true (str "schema" = Some "nova-flightrec/v1");
  check "reason" true (str "reason" = Some "crash");
  check "capacity" true (num "capacity" = Some 3.);
  check "recorded" true (num "recorded" = Some 5.);
  let entries =
    Option.get (Option.bind (Json_min.member "entries" doc) Json_min.to_list)
  in
  check_int "dumped entries" 3 (List.length entries);
  check "entry ids survive" true
    (List.map
       (fun e -> Option.bind (Json_min.member "id" e) Json_min.to_float)
       entries
    = [ Some 2.; Some 3.; Some 4. ])

(* ------------------------------------------------------------------ *)
(* Quarantine registry: the per-pair snapshot serve surfaces *)

let test_quarantine_snapshot () =
  Exec.Supervise.reset_quarantine ();
  Fun.protect ~finally:Exec.Supervise.reset_quarantine @@ fun () ->
  let crash () = Exec.Supervise.run ~machine:"qm" ~algorithm:"qa" (fun () -> failwith "always") in
  ignore (crash ());
  ignore (crash ());
  (* Two exhausted cycles: quarantined. Two further calls are skips. *)
  ignore (crash ());
  ignore (crash ());
  match Exec.Supervise.quarantine_snapshot () with
  | [ e ] ->
      check_str "machine" "qm" e.Exec.Supervise.q_machine;
      check_str "algorithm" "qa" e.Exec.Supervise.q_algorithm;
      check_int "exhausted cycles" 2 e.Exec.Supervise.q_cycles;
      check_int "skips counted" 2 e.Exec.Supervise.q_skips;
      check "detail mentions the crash" true (e.Exec.Supervise.q_detail <> "")
  | rows -> Alcotest.failf "expected one quarantine row, got %d" (List.length rows)

(* [Metrics.interned]: a series appears on its first use, not before;
   later uses get the same series back; two domains racing on fresh
   keys bump one series per key and lose no count. *)
let test_interned_series () =
  let registered key =
    List.exists
      (fun ((s : Metrics.Registry.series), _) ->
        s.Metrics.Registry.s_name = "test_interned_total" && s.Metrics.Registry.s_labels = [ ("k", key) ])
      (Metrics.Registry.snapshot ()).Metrics.Registry.counters
  in
  let calls = Atomic.make 0 in
  let series =
    Metrics.interned (fun key ->
        Atomic.incr calls;
        Metrics.Registry.counter ~labels:[ ("k", key) ] "test_interned_total")
  in
  check "no series before its first use" false (registered "a");
  let a = series "a" in
  check "registered on first use" true (registered "a");
  check "a later use returns the same series" true (series "a" == a);
  check_int "one intern for repeated uses" 1 (Atomic.get calls);
  check "an unused key stays unregistered" false (registered "b");
  let bumps = 2000 and keys = [| "x"; "y"; "z" |] in
  let worker () =
    for i = 1 to bumps do
      Metrics.Registry.inc (series keys.(i mod Array.length keys))
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  let total =
    Array.fold_left (fun acc k -> acc + Metrics.Registry.counter_value (series k)) 0 keys
  in
  check_int "every bump from both domains counted" (2 * bumps) total

let suite =
  [
    Alcotest.test_case "histogram: quantiles within one bucket of exact" `Quick
      test_histogram_quantile_error_bound;
    Alcotest.test_case "histogram: bucket bounds tile the axis" `Quick
      test_histogram_buckets_and_bounds;
    Alcotest.test_case "histogram: two domains merge exactly" `Quick
      test_histogram_two_domain_merge;
    Alcotest.test_case "registry: interning and labels" `Quick
      test_registry_interning_and_labels;
    Alcotest.test_case "interned: a series per label value, on first use" `Quick
      test_interned_series;
    Alcotest.test_case "registry: name validation" `Quick test_registry_validates_names;
    Alcotest.test_case "registry: enabled gate" `Quick test_registry_enabled_gate;
    Alcotest.test_case "expose: escaping round-trips" `Quick test_expose_escaping;
    Alcotest.test_case "expose: exposition passes lint" `Quick
      test_expose_prometheus_lints_clean;
    Alcotest.test_case "expose: lint rejects broken exposition" `Quick
      test_expose_lint_rejects_broken;
    Alcotest.test_case "flight: ring wraps oldest-first" `Quick test_flight_ring_wraps;
    Alcotest.test_case "flight: dump artifact parses" `Quick test_flight_dump_artifact;
    Alcotest.test_case "supervise: quarantine snapshot" `Quick test_quarantine_snapshot;
  ]
