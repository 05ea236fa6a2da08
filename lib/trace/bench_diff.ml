(* Mechanical regression diff between two BENCH_*.json artifacts (any of
   the nova-bench-* schemas). Rows are matched by their identity fields
   (name / mode / algorithm), numeric fields are flattened (nested
   objects get dotted keys; the free-form "instrument" blocks and
   nested arrays are skipped), and each metric is classified:

   - wall metrics (keys ending in "_s"): lower is better, compared
     relatively against the threshold, with a small absolute floor so
     microsecond jitter on tiny rows cannot fail CI;
   - size metrics (num_cubes, literal_cost, area, nbits): lower is
     better, compared relatively against the same threshold;
   - complexity metrics (model_order, fitted_exponent — the scaling
     bench's fitted classes): any class-rank increase regresses, and an
     exponent drift past an absolute tolerance regresses, independent of
     the relative threshold (a quadratic→cubic flip must fail CI even at
     a generous wall threshold);
   - everything else (states, rows, cache hit counts...): reported when
     changed, never a regression.

   A row present in OLD but missing from NEW is a regression (a bench
   silently dropped is exactly what the differ exists to catch), and so
   is a gateable metric present in OLD but vanished from the same row in
   NEW (a scaling cell degrading to an inconclusive fit, an OK row
   turning into an error row: both used to slip through the flattening
   silently). *)

type artifact = {
  schema : string;
  rows : (string * (string * float) list) list;  (** row key -> flattened metrics *)
}

type direction = Wall | Size | Complexity | Neutral

type delta = {
  row : string;
  metric : string;
  old_v : float;
  new_v : float;
  regression : bool;
}

type result = {
  deltas : delta list;  (** changed metrics only, artifact order *)
  missing : string list;  (** row keys present in OLD, absent from NEW *)
  vanished : (string * string) list;
      (** (row, metric) pairs present in OLD but absent from that row in
          NEW; the non-[Neutral] ones count as regressions *)
  added : string list;
  rows_compared : int;
  metrics_compared : int;
}

let size_metrics = [ "num_cubes"; "literal_cost"; "area"; "nbits" ]
let complexity_metrics = [ "model_order"; "fitted_exponent" ]

let metric_base metric =
  match String.rindex_opt metric '.' with
  | Some i -> String.sub metric (i + 1) (String.length metric - i - 1)
  | None -> metric

let classify metric =
  let base = metric_base metric in
  if Filename.check_suffix base "_s" then Wall
  else if List.mem base size_metrics then Size
  else if List.mem base complexity_metrics then Complexity
  else Neutral

(* --- loading ------------------------------------------------------------ *)

let identity_fields = [ "name"; "mode"; "algorithm" ]

let row_key j =
  let parts =
    List.filter_map
      (fun f -> Option.bind (Json_min.member f j) Json_min.to_string)
      identity_fields
  in
  match parts with [] -> "(row)" | parts -> String.concat "/" parts

let rec flatten prefix j acc =
  match j with
  | Json_min.Num f -> (prefix, f) :: acc
  | Json_min.Bool _ | Json_min.Str _ | Json_min.Null | Json_min.Arr _ -> acc
  | Json_min.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          if k = "instrument" then acc
          else flatten (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc kvs

let flatten_row j = List.rev (flatten "" j [])

(* Duplicate row keys (the same machine benched under several modes that
   happen to share identity fields) get a positional suffix so no row is
   silently shadowed. *)
let disambiguate rows =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (key, metrics) ->
      let n = try Hashtbl.find seen key with Not_found -> 0 in
      Hashtbl.replace seen key (n + 1);
      ((if n = 0 then key else Printf.sprintf "%s#%d" key n), metrics))
    rows

let load path =
  let j = Json_min.of_file path in
  let schema =
    match Option.bind (Json_min.member "schema" j) Json_min.to_string with
    | Some s -> s
    | None -> "(no schema)"
  in
  let rows =
    match
      List.find_map
        (fun k -> Option.bind (Json_min.member k j) Json_min.to_list)
        [ "benchmarks"; "runs"; "rows" ]
    with
    | Some l -> List.map (fun r -> (row_key r, flatten_row r)) l
    | None ->
        (* Single-row artifacts (nova-bench-parallel): the top object is
           the row, minus the schema/mode envelope fields. *)
        [ ("totals", flatten_row j) ]
  in
  { schema; rows = disambiguate rows }

(* --- diffing ------------------------------------------------------------ *)

exception Schema_mismatch of string * string

let default_threshold = 0.25
let wall_floor_s = 0.005

(* Complexity metrics ignore the relative threshold: the fitted class
   rank regresses on any increase, and the continuous exponent on an
   absolute drift past this tolerance (2.0 → 2.3 is a real asymptotic
   change regardless of how lenient the wall threshold is). *)
let exponent_tolerance = 0.25

let diff ?(threshold = default_threshold) old_a new_a =
  if old_a.schema <> new_a.schema then raise (Schema_mismatch (old_a.schema, new_a.schema));
  let deltas = ref [] and missing = ref [] and vanished = ref [] and added = ref [] in
  let rows_compared = ref 0 and metrics_compared = ref 0 in
  List.iter
    (fun (key, old_metrics) ->
      match List.assoc_opt key new_a.rows with
      | None -> missing := key :: !missing
      | Some new_metrics ->
          incr rows_compared;
          List.iter
            (fun (metric, old_v) ->
              match List.assoc_opt metric new_metrics with
              | None -> vanished := (key, metric) :: !vanished
              | Some new_v ->
                  incr metrics_compared;
                  if new_v <> old_v then begin
                    let regression =
                      match classify metric with
                      | Wall ->
                          new_v -. old_v > wall_floor_s
                          && new_v > old_v *. (1. +. threshold)
                      | Size -> new_v > old_v *. (1. +. threshold)
                      | Complexity ->
                          if metric_base metric = "model_order" then new_v > old_v
                          else new_v -. old_v > exponent_tolerance
                      | Neutral -> false
                    in
                    deltas := { row = key; metric; old_v; new_v; regression } :: !deltas
                  end)
            old_metrics)
    old_a.rows;
  List.iter
    (fun (key, _) -> if not (List.mem_assoc key old_a.rows) then added := key :: !added)
    new_a.rows;
  {
    deltas = List.rev !deltas;
    missing = List.rev !missing;
    vanished = List.rev !vanished;
    added = List.rev !added;
    rows_compared = !rows_compared;
    metrics_compared = !metrics_compared;
  }

let vanished_regression (_, metric) = classify metric <> Neutral

let num_regressions r =
  List.length (List.filter (fun d -> d.regression) r.deltas)
  + List.length r.missing
  + List.length (List.filter vanished_regression r.vanished)

let pct old_v new_v =
  if old_v = 0. then if new_v = 0. then 0. else infinity
  else (new_v -. old_v) /. Float.abs old_v *. 100.

let print_value v =
  if Float.is_integer v && Float.abs v < 1e12 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let report ?(threshold = default_threshold) ppf ~old_path ~new_path r =
  Format.fprintf ppf "bench-diff %s -> %s (threshold %.0f%%)@." old_path new_path
    (threshold *. 100.);
  Format.fprintf ppf "  %d rows, %d metrics compared@." r.rows_compared r.metrics_compared;
  List.iter
    (fun d ->
      Format.fprintf ppf "  %s %-48s %-24s %12s -> %-12s %+7.1f%%@."
        (if d.regression then "REGRESSION" else
         match classify d.metric with
         | Neutral -> "note      "
         | Wall | Size | Complexity -> if d.new_v < d.old_v then "improved  " else "changed   ")
        d.row d.metric (print_value d.old_v) (print_value d.new_v) (pct d.old_v d.new_v))
    r.deltas;
  List.iter (fun k -> Format.fprintf ppf "  REGRESSION %-48s row missing from NEW@." k) r.missing;
  List.iter
    (fun ((row, metric) as v) ->
      Format.fprintf ppf "  %s %-48s %-24s metric vanished from NEW@."
        (if vanished_regression v then "REGRESSION" else "note      ")
        row metric)
    r.vanished;
  List.iter (fun k -> Format.fprintf ppf "  note       %-48s new row (not in OLD)@." k) r.added;
  let n = num_regressions r in
  if n = 0 then Format.fprintf ppf "  no regressions@."
  else Format.fprintf ppf "  %d regression%s@." n (if n = 1 then "" else "s");
  n
