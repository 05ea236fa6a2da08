type model = Linear | N_log_n | Quadratic | Cubic | Exponential

let all_models = [ Linear; N_log_n; Quadratic; Cubic; Exponential ]

let model_name = function
  | Linear -> "linear"
  | N_log_n -> "nlogn"
  | Quadratic -> "quadratic"
  | Cubic -> "cubic"
  | Exponential -> "exponential"

let model_order = function
  | Linear -> 1
  | N_log_n -> 2
  | Quadratic -> 3
  | Cubic -> 4
  | Exponential -> 5

type fitted = {
  model : model;
  coeff : float;
  exponent : float;
  r2 : float;
  residual : float;
}

type inconclusive =
  | Too_few_points of int
  | Non_positive_time
  | Degenerate_sizes
  | Constant_series

type result = Fitted of fitted | Inconclusive of inconclusive

let min_points = 4

let inconclusive_reason = function
  | Too_few_points n -> Printf.sprintf "too few points (%d, need %d)" n min_points
  | Non_positive_time -> "non-positive runtime in the series"
  | Degenerate_sizes -> "sizes below 2 or fewer than 2 distinct sizes"
  | Constant_series -> "constant runtime: every model fits equally"

(* log (shape n) for the one-parameter candidate t = c * shape n; the
   log-space prediction is then log c + log_shape, linear in log c. *)
let log_shape m n =
  match m with
  | Linear -> log n
  | N_log_n -> log n +. log (log n /. log 2.)
  | Quadratic -> 2. *. log n
  | Cubic -> 3. *. log n
  | Exponential -> n *. log 2.

let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* Ordinary least-squares slope of ys against xs. *)
let ols_slope xs ys =
  let mx = mean xs and my = mean ys in
  let sxy =
    List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. xs ys
  in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.)) 0. xs in
  sxy /. sxx

let fit points =
  let len = List.length points in
  if len < min_points then Inconclusive (Too_few_points len)
  else if List.exists (fun (_, t) -> t <= 0. || not (Float.is_finite t)) points then
    Inconclusive Non_positive_time
  else if
    List.exists (fun (n, _) -> n < 2.) points
    || List.length (List.sort_uniq compare (List.map fst points)) < 2
  then Inconclusive Degenerate_sizes
  else begin
    let ns = List.map fst points in
    let ys = List.map (fun (_, t) -> log t) points in
    let my = mean ys in
    let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. my) ** 2.)) 0. ys in
    if ss_tot < 1e-12 then Inconclusive Constant_series
    else begin
      let score m =
        let lfs = List.map (log_shape m) ns in
        let lnc = mean (List.map2 ( -. ) ys lfs) in
        let ss =
          List.fold_left2 (fun acc y lf -> acc +. ((y -. lnc -. lf) ** 2.)) 0. ys lfs
        in
        (m, lnc, ss)
      in
      let best =
        List.fold_left
          (fun acc m ->
            let (_, _, ss) as cand = score m in
            match acc with Some (_, _, bss) when bss <= ss -> acc | _ -> Some cand)
          None all_models
      in
      match best with
      | None -> assert false
      | Some (model, lnc, ss) ->
          let exponent =
            match model with
            | Exponential -> ols_slope ns ys /. log 2.
            | Linear | N_log_n | Quadratic | Cubic -> ols_slope (List.map log ns) ys
          in
          Fitted
            {
              model;
              coeff = exp lnc;
              exponent;
              r2 = Float.max 0. (1. -. (ss /. ss_tot));
              residual = ss /. float len;
            }
    end
  end
