(* encode-oneshot: what [nova encode -a ALGO M] computes after reading
   its file, one caller, in-process. *)

open Harness

type result = { machine : Fsm.t; outcome : Driver.outcome; impl : Encoded.result; stdout : string }

let op r ~op (p : Inputs.pair) =
  Spans.record r ~op "op" @@ fun () ->
  match Layers.parse r ~op ~name:p.Inputs.machine p.Inputs.text with
  | Error e -> Error (Kiss.error_to_string e)
  | Ok m -> (
      let budget = Inputs.budget_for p.Inputs.algorithm in
      match Layers.encode r ~op ~budget ~fallback:true m p.Inputs.algorithm with
      | Error e -> Error (Nova_error.to_string e)
      | Ok o ->
          let encoding = o.Driver.encoding in
          let impl = Layers.implement r ~op ~budget m encoding in
          let onehot = Layers.onehot r ~op ~budget m in
          let stdout =
            Layers.text r ~op m encoding ~num_cubes:impl.Encoded.num_cubes ~area:impl.Encoded.area
              onehot
          in
          Ok { machine = m; outcome = o; impl; stdout })

let label (p : Inputs.pair) = p.Inputs.machine ^ "/" ^ Driver.name p.Inputs.algorithm

(* Set-up: build the input population and run one op on a fixed pair,
   so the timed phase starts with the heap and lazy tables warm. *)
let setup () =
  let t0 = Unix.gettimeofday () in
  let pairs = Inputs.oneshot_pairs () in
  let warm = { Inputs.machine = "keyb"; algorithm = Driver.Ihybrid; text = Inputs.kiss_of "keyb" } in
  ignore (op Spans.off ~op:0 warm);
  (pairs, Unix.gettimeofday () -. t0)

let run ~seed ~seconds ~trace =
  let pairs, first_setup = setup () in
  let setups = Layers.spread_setups ~seconds ~first:first_setup (fun () -> snd (setup ())) in
  (* Every op's result is certified, and every repeat of a pair must
     print the same bytes as its first run. *)
  let first = Hashtbl.create 128 in
  let failures = ref [] in
  let check p res =
    let fail why = failures := (label p ^ ": " ^ why) :: !failures in
    match res with
    | Error e -> fail e
    | Ok r -> (
        let cert =
          Check.certify r.machine (Exec.Job.artifacts_of (Layers.success_of r.outcome r.impl))
        in
        if not cert.Check.ok then fail (Check.summary cert)
        else
          match Hashtbl.find_opt first (label p) with
          | None -> Hashtbl.add first (label p) (r.stdout, r.impl.Encoded.area, r.impl.Encoded.num_cubes)
          | Some (stdout, _, _) -> if stdout <> r.stdout then fail "output differs between runs")
  in
  let n = Array.length pairs in
  let peak_rss_mb, after_pass = Layers.first_pass_rss () in
  let timing =
    Layers.closed_loop ~after_pass ~seconds ~setups ~slots:n
      ~pass:(fun pass -> Inputs.oneshot_pass ~seed ~pass n)
      ~op:(fun i -> op Spans.off ~op:0 pairs.(i))
      ~check:(fun i res -> check pairs.(i) res)
  in
  let area, cubes = Hashtbl.fold (fun _ (_, a, c) (sa, sc) -> (sa + a, sc + c)) first (0, 0) in
  let first_pass = Array.map (fun i -> pairs.(i)) (Inputs.oneshot_pass ~seed ~pass:0 n) in
  let trace =
    if not trace then None
    else begin
      (* Replay the first pass with spans on. *)
      let r = Spans.create () in
      Array.iteri (fun i p -> Layers.traced_op r (fun () -> ignore (op r ~op:i p))) first_pass;
      let untraced = Layers.first_pass timing (Array.length first_pass) in
      Some (r, [ ("trace_overhead_ratio", Layers.overhead r untraced) ])
    end
  in
  {
    Outcome.inputs = Array.length pairs;
    digest = Inputs.digest (Array.to_list (Array.map (fun p -> label p ^ "\n" ^ p.Inputs.text) first_pass));
    attempted = List.length timing.Outcome.latencies;
    failures = List.rev !failures;
    timing;
    setups = setups.Layers.finish ();
    pla_area_total = area;
    product_terms_total = cubes;
    peak_rss_mb = !peak_rss_mb;
    trace;
    notes =
      [
        Printf.sprintf "memory: VmHWM %.1f MiB after the first pass, %.1f MiB at the end of the run"
          !peak_rss_mb (Daemon.peak_rss_mb 0);
      ];
  }
