type algo_spec = {
  algorithm : Harness.Driver.algorithm;
  max_states : int;
}

(* iexact is exponential by construction and has no place on an
   unlimited-budget grid; ihybrid/iohybrid's constraint-embedding search
   measures at roughly n^4.7 on this family, so their ceilings keep a
   full run in minutes (and the quick CI run in seconds), not hours. *)
let algorithms ~quick =
  if quick then
    [
      { algorithm = Harness.Driver.Igreedy; max_states = 64 };
      { algorithm = Harness.Driver.Ihybrid; max_states = 32 };
    ]
  else
    [
      { algorithm = Harness.Driver.Igreedy; max_states = 512 };
      { algorithm = Harness.Driver.Kiss; max_states = 256 };
      { algorithm = Harness.Driver.Ihybrid; max_states = 64 };
      { algorithm = Harness.Driver.Iohybrid; max_states = 64 };
    ]

type point = {
  sample : Measure.sample;
  constraints_s : float;
  encode_s : float;
}

type cell = {
  family : Grid.family;
  algo_name : string;
  points : point list;
  fit : Fit.result;
}

(* Phase attribution reads the registry: the seconds a cell's runs
   added to the sections [pred] selects. *)
let section_seconds pred =
  List.fold_left
    (fun acc (name, h) -> if pred name then acc +. Metrics.Histogram.sum h else acc)
    0. (Metrics.spans ())

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let run_cell ?(warmup = 1) ?(reps = 5) ~family ~sizes spec =
  let algo_name = Harness.Driver.name spec.algorithm in
  let encode m = Harness.Driver.encode ~budget:Budget.unlimited ~fallback:false m spec.algorithm in
  let points =
    List.filter_map
      (fun size ->
        if size > spec.max_states then None
        else
          let m = Grid.machine family size in
          (* A failing encode (impossible for the default specs, which
             never fail under an unlimited budget) yields no point; the
             fitter sees only sizes that genuinely completed. *)
          match encode m with
          | Error _ -> None
          | Ok _ ->
              let constraints = ( = ) "pipeline.constraints"
              and rungs = has_prefix "pipeline.rung." in
              let constraints0 = section_seconds constraints and rungs0 = section_seconds rungs in
              let sample =
                Measure.sample ~warmup ~reps ~size (fun () -> ignore (encode m))
              in
              let runs = float (warmup + reps) in
              Some
                {
                  sample;
                  constraints_s = (section_seconds constraints -. constraints0) /. runs;
                  encode_s = (section_seconds rungs -. rungs0) /. runs;
                })
      sizes
  in
  let fit =
    Fit.fit (List.map (fun p -> (float p.sample.Measure.size, p.sample.Measure.time_s)) points)
  in
  { family; algo_name; points; fit }

let states_max c = List.fold_left (fun acc p -> max acc p.sample.Measure.size) 0 c.points

let run ?(quick = false) ?reps ?progress () =
  let reps = match reps with Some r -> r | None -> if quick then 3 else 5 in
  let sizes = Grid.sizes ~quick in
  List.map
    (fun spec ->
      let cell = run_cell ~reps ~family:Grid.default ~sizes spec in
      (match progress with
      | None -> ()
      | Some ppf ->
          Format.fprintf ppf "scaling %-10s %-10s %d sizes, top %d states: %s@."
            cell.family.Grid.family_name cell.algo_name (List.length cell.points)
            (states_max cell)
            (match cell.fit with
            | Fit.Fitted f ->
                Printf.sprintf "%s (exponent %.2f, R² %.3f)" (Fit.model_name f.Fit.model)
                  f.Fit.exponent f.Fit.r2
            | Fit.Inconclusive why -> "inconclusive: " ^ Fit.inconclusive_reason why));
      cell)
    (algorithms ~quick)

(* --- artifact ----------------------------------------------------------- *)

let num f = Json_min.Num f
let int n = Json_min.Num (float_of_int n)

let point_json p =
  let s = p.sample in
  Json_min.Obj
    [
      ("states", int s.Measure.size); ("time_s", num s.Measure.time_s);
      ("kept", int (List.length s.Measure.kept_s));
      ("runs_s", Json_min.Arr (List.map num s.Measure.runs_s));
      ("constraints_s", num p.constraints_s); ("encode_s", num p.encode_s);
    ]

let fit_json =
  let open Json_min in
  function
  | Fit.Fitted f ->
      Obj
        [
          ("model", Str (Fit.model_name f.Fit.model));
          ("model_order", int (Fit.model_order f.Fit.model));
          ("fitted_exponent", num f.Fit.exponent); ("coeff", num f.Fit.coeff);
          ("r2", num f.Fit.r2); ("residual", num f.Fit.residual);
        ]
  | Fit.Inconclusive why ->
      (* No model_order / fitted_exponent key: against an older artifact
         that had them, the differ reports a vanished-metric regression,
         which is exactly what a cell going inconclusive is. *)
      Obj [ ("model", Str "inconclusive"); ("reason", Str (Fit.inconclusive_reason why)) ]

let cell_json c =
  let open Json_min in
  let phases =
    match List.rev c.points with
    | p :: _ ->
        [ ("phases", Obj [ ("constraints_s", num p.constraints_s); ("encode_s", num p.encode_s) ]) ]
    | [] -> []
  in
  Obj
    ([
       ("name", Str c.family.Grid.family_name); ("algorithm", Str c.algo_name);
       ("states_max", int (states_max c)); ("fit", fit_json c.fit);
       ("points", Arr (List.map point_json c.points));
     ]
    @ phases)

let to_json ~quick ~reps cells =
  let f = Grid.default in
  let open Json_min in
  Obj
    [
      ("schema", Str "nova-bench-scaling/v1"); ("mode", Str (if quick then "quick" else "full"));
      ("reps", int reps);
      ( "family",
        Obj
          [
            ("name", Str f.Grid.family_name); ("num_inputs", int f.Grid.num_inputs);
            ("num_outputs", int f.Grid.num_outputs); ("rows_per_state", int f.Grid.rows_per_state);
            ("seed", int f.Grid.seed);
          ] );
      ("benchmarks", Arr (List.map cell_json cells));
    ]

let write ~path ~quick ~reps cells = Trace.write_atomic ~path (to_json ~quick ~reps cells)

let summary ppf cells =
  Format.fprintf ppf "%-10s %-10s %-12s %9s %7s %6s %12s@." "family" "algorithm" "model"
    "exponent" "R²" "sizes" "top-time";
  List.iter
    (fun c ->
      let top =
        List.fold_left (fun acc p -> Float.max acc p.sample.Measure.time_s) 0. c.points
      in
      match c.fit with
      | Fit.Fitted f ->
          Format.fprintf ppf "%-10s %-10s %-12s %9.3f %7.3f %6d %11.4fs@."
            c.family.Grid.family_name c.algo_name (Fit.model_name f.Fit.model) f.Fit.exponent
            f.Fit.r2 (List.length c.points) top
      | Fit.Inconclusive why ->
          Format.fprintf ppf "%-10s %-10s %-12s (%s)@." c.family.Grid.family_name c.algo_name
            "inconclusive" (Fit.inconclusive_reason why))
    cells
