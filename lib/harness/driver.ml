(* Timed sections of the encoding pipeline (rungs: [rung_section]). *)
let s_encode = Metrics.section "driver.encode"
let s_implement = Metrics.section "driver.implement"
let s_constraints = Metrics.section "pipeline.constraints"
let s_symbolic_min = Metrics.section "pipeline.symbolic-min"

type algorithm =
  | Ihybrid
  | Igreedy
  | Iohybrid
  | Iovariant
  | Iexact
  | Kiss
  | Mustang of Baselines.mustang_flavor * bool
  | One_hot
  | Random of int

let name = function
  | Ihybrid -> "ihybrid"
  | Igreedy -> "igreedy"
  | Iohybrid -> "iohybrid"
  | Iovariant -> "iovariant"
  | Iexact -> "iexact"
  | Kiss -> "kiss"
  | Mustang (Baselines.Fanout, false) -> "mustang-n"
  | Mustang (Baselines.Fanout, true) -> "mustang-nt"
  | Mustang (Baselines.Fanin, false) -> "mustang-p"
  | Mustang (Baselines.Fanin, true) -> "mustang-pt"
  | One_hot -> "onehot"
  | Random seed -> Printf.sprintf "random[%d]" seed

let all_algorithms =
  [
    Ihybrid; Igreedy; Iohybrid; Iovariant; Iexact; Kiss;
    Mustang (Baselines.Fanout, true); Mustang (Baselines.Fanin, true);
    One_hot; Random 0;
  ]

let algorithm_of_name s =
  match s with
  | "ihybrid" -> Some Ihybrid
  | "igreedy" -> Some Igreedy
  | "iohybrid" -> Some Iohybrid
  | "iovariant" -> Some Iovariant
  | "iexact" -> Some Iexact
  | "kiss" -> Some Kiss
  | "mustang-n" -> Some (Mustang (Baselines.Fanout, false))
  | "mustang-nt" -> Some (Mustang (Baselines.Fanout, true))
  | "mustang-p" -> Some (Mustang (Baselines.Fanin, false))
  | "mustang-pt" -> Some (Mustang (Baselines.Fanin, true))
  | "onehot" -> Some One_hot
  | _ ->
      (* random[SEED] *)
      (try Some (Random (Scanf.sscanf s "random[%d]" (fun n -> n))) with _ -> None)

type rung =
  | Rung_iexact
  | Rung_semiexact
  | Rung_project
  | Rung_ihybrid
  | Rung_igreedy
  | Rung_iohybrid
  | Rung_iovariant
  | Rung_kiss
  | Rung_mustang
  | Rung_one_hot
  | Rung_random

let all_rungs =
  [
    Rung_iexact; Rung_semiexact; Rung_project; Rung_ihybrid; Rung_igreedy; Rung_iohybrid;
    Rung_iovariant; Rung_kiss; Rung_mustang; Rung_one_hot; Rung_random;
  ]

let rung_name = function
  | Rung_iexact -> "iexact"
  | Rung_semiexact -> "semiexact"
  | Rung_project -> "project"
  | Rung_ihybrid -> "ihybrid"
  | Rung_igreedy -> "igreedy"
  | Rung_iohybrid -> "iohybrid"
  | Rung_iovariant -> "iovariant"
  | Rung_kiss -> "kiss"
  | Rung_mustang -> "mustang"
  | Rung_one_hot -> "onehot"
  | Rung_random -> "random"

let rung_of_name s = List.find_opt (fun r -> rung_name r = s) all_rungs

let rung_section =
  let section = Metrics.sections ~prefix:"pipeline.rung." (List.map rung_name all_rungs) in
  fun rung -> section (rung_name rung)

let stage_of = function
  | Rung_iexact -> Nova_error.Iexact
  | Rung_semiexact -> Nova_error.Semiexact
  | Rung_project -> Nova_error.Project
  | Rung_ihybrid -> Nova_error.Ihybrid
  | Rung_igreedy -> Nova_error.Igreedy
  | Rung_iohybrid -> Nova_error.Iohybrid
  | Rung_iovariant -> Nova_error.Iovariant
  | Rung_kiss | Rung_mustang | Rung_one_hot | Rung_random -> Nova_error.Baseline

(* The fallback ladder of each algorithm: progressively cheaper rungs
   of the same family. [igreedy] never fails, so every constraint-driven
   ladder terminates; the baselines cannot run out of budget at all. *)
let ladder ~fallback algo =
  let rungs =
    match algo with
    | Iexact -> [ Rung_iexact; Rung_semiexact; Rung_project; Rung_igreedy ]
    | Ihybrid -> [ Rung_ihybrid; Rung_igreedy ]
    | Igreedy -> [ Rung_igreedy ]
    | Iohybrid -> [ Rung_iohybrid; Rung_ihybrid; Rung_igreedy ]
    | Iovariant -> [ Rung_iovariant; Rung_ihybrid; Rung_igreedy ]
    | Kiss -> [ Rung_kiss ]
    | Mustang _ -> [ Rung_mustang ]
    | One_hot -> [ Rung_one_hot ]
    | Random _ -> [ Rung_random ]
  in
  if fallback then rungs else [ List.hd rungs ]

type outcome = {
  encoding : Encoding.t;
  algorithm : algorithm;
  produced_by : rung;
  degradations : (rung * Nova_error.t) list;
  claims : Check.claims;
}

let quiet = ref false

let degradation_warning o =
  match o.degradations with
  | [] -> None
  | ds ->
      let why =
        match List.rev ds with (_, first_error) :: _ -> Nova_error.to_string first_error | [] -> ""
      in
      let attempts = List.length ds + 1 in
      Some
        (Printf.sprintf
           "nova: warning: %s degraded to %s after %d rung attempt%s (%s)"
           (name o.algorithm) (rung_name o.produced_by) attempts
           (if attempts = 1 then "" else "s")
           why)

let iexact_max_work = 400_000

let why budget = Option.value (Budget.reason budget) ~default:Budget.Work

let groups_of ics =
  List.map (fun (ic : Constraints.input_constraint) -> ic.Constraints.states) ics

(* What each rung may claim to the certificate layer: only the
   constraints it actually reports satisfied, never "everything". *)
let ic_claims ics = { Check.claimed_ics = groups_of ics; claimed_ocs = [] }

(* The [project] rung: last resort of the iexact ladder. Start from the
   identity encoding at the minimum length and project into extra
   dimensions (Prop 4.2.1) until every constraint is satisfied. Each
   projection satisfies at least one more constraint, so the loop
   terminates; the 60-bit cap guards against degenerate constraint
   sets. *)
let project_rung ~budget ~num_states ics =
  let min_len = Ihybrid.min_code_length num_states in
  let nbits = ref min_len in
  let codes = ref (Array.init num_states (fun i -> i)) in
  let encoding () = Encoding.make ~nbits:!nbits !codes in
  let sic0, ric0 =
    List.partition
      (fun (ic : Constraints.input_constraint) ->
        Constraints.satisfied (encoding ()) ic.Constraints.states)
      ics
  in
  let sic = ref sic0 and ric = ref ric0 in
  while !ric <> [] && !nbits < 60 && not (Budget.exhausted budget) do
    let codes', newly, still = Project.project ~codes:!codes ~nbits:!nbits ~sic:!sic ~ric:!ric in
    codes := codes';
    sic := newly @ !sic;
    ric := still;
    incr nbits
  done;
  if !ric = [] then Ok (encoding (), ic_claims !sic)
  else if Budget.exhausted budget then
    Error (Nova_error.Budget_exhausted { stage = Nova_error.Project; reason = why budget })
  else
    Error
      (Nova_error.Infeasible
         {
           stage = Nova_error.Project;
           msg =
             Printf.sprintf "%d constraints still unsatisfied at the 60-bit cap"
               (List.length !ric);
         })

let run_rung ~budget ~bits ~num_states ~ics ~problem (m : Fsm.t) algo rung =
  let stage = stage_of rung in
  let exhausted reason = Error (Nova_error.Budget_exhausted { stage; reason }) in
  try
    match rung with
    | Rung_iexact -> (
        match Iexact.iexact_code ~num_states ~budget (groups_of (Lazy.force ics)) with
        | Iexact.Sat { k; codes; _ } ->
            Ok (Encoding.make ~nbits:k codes, ic_claims (Lazy.force ics))
        | Iexact.Exhausted -> exhausted (why budget))
    | Rung_semiexact -> (
        let k = max (Fsm.min_code_length m) (Option.value bits ~default:0) in
        match Iexact.semiexact_code ~num_states ~k ~budget (groups_of (Lazy.force ics)) with
        | Some codes -> Ok (Encoding.make ~nbits:k codes, ic_claims (Lazy.force ics))
        | None ->
            if Budget.exhausted budget then exhausted (why budget)
            else
              Error
                (Nova_error.Infeasible
                   {
                     stage;
                     msg =
                       Printf.sprintf "no embedding at %d bits within the bounded backtracking" k;
                   }))
    | Rung_project -> project_rung ~budget ~num_states (Lazy.force ics)
    | Rung_ihybrid ->
        let r = Ihybrid.ihybrid_code ~num_states ?nbits:bits ~budget (Lazy.force ics) in
        if r.Ihybrid.random_start && Budget.exhausted budget then exhausted (why budget)
        else Ok (r.Ihybrid.encoding, ic_claims r.Ihybrid.satisfied)
    | Rung_igreedy ->
        let r = Igreedy.igreedy_code ~num_states ?nbits:bits ~budget (Lazy.force ics) in
        Ok (r.Igreedy.encoding, ic_claims r.Igreedy.satisfied)
    | Rung_iohybrid | Rung_iovariant ->
        let code = if rung = Rung_iohybrid then Iohybrid.iohybrid_code else Iohybrid.iovariant_code in
        let r = code ?nbits:bits ~budget (Lazy.force problem) in
        if r.Iohybrid.random_start && Budget.exhausted budget then exhausted (why budget)
        else
          Ok
            ( r.Iohybrid.encoding,
              {
                Check.claimed_ics = groups_of r.Iohybrid.sat_inputs;
                claimed_ocs =
                  List.concat_map
                    (fun (cl : Constraints.oc_cluster) ->
                      List.map
                        (fun (oc : Constraints.output_constraint) ->
                          (oc.Constraints.covering, oc.Constraints.covered))
                        cl.Constraints.edges)
                    r.Iohybrid.sat_clusters;
              } )
    | Rung_kiss -> Ok (Baselines.kiss_encode ~num_states (Lazy.force ics), Check.no_claims)
    | Rung_mustang ->
        let flavor, include_outputs =
          match algo with Mustang (f, o) -> (f, o) | _ -> (Baselines.Fanout, true)
        in
        let nbits = Option.value bits ~default:(Fsm.min_code_length m) in
        Ok (Baselines.mustang_encode m ~flavor ~include_outputs ~nbits, Check.no_claims)
    | Rung_one_hot -> Ok (Encoding.one_hot num_states, Check.no_claims)
    | Rung_random ->
        let seed = match algo with Random s -> s | _ -> 0 in
        let nbits = Option.value bits ~default:(Fsm.min_code_length m) in
        Ok
          ( Encoding.random (Random.State.make [| seed |]) ~num_states ~nbits,
            Check.no_claims )
  with
  | Invalid_argument msg -> Error (Nova_error.Infeasible { stage; msg })
  | Budget.Out_of_budget reason -> Error (Nova_error.Budget_exhausted { stage; reason })

(* The root span of one encoding run. Its machine/algorithm attributes
   flow down by inheritance to every rung, stage, espresso-phase and
   check span opened below it on the same track, which is how every span
   in an exported trace ends up self-describing. *)
let encode_end_attrs = function
  | Ok o ->
      [
        ("produced_by", Trace.String (rung_name o.produced_by));
        ("nbits", Trace.Int o.encoding.Encoding.nbits);
        ("degradations", Trace.Int (List.length o.degradations));
      ]
  | Error err -> [ ("error", Trace.String (Nova_error.to_string err)) ]

let encode ?bits ?(budget = Budget.unlimited) ?(fallback = true) (m : Fsm.t) algo =
  Metrics.span s_encode ~end_attrs:encode_end_attrs
    ~attrs:[ ("machine", Trace.String m.Fsm.name); ("algorithm", Trace.String (name algo)) ]
  @@ fun () ->
  let num_states = Fsm.num_states ~m in
  (* Shared upstream artifacts, computed at most once per call whatever
     rung (or rungs) the ladder visits. *)
  let sym = lazy (Symbolic.of_fsm m) in
  let ics =
    lazy (Metrics.span s_constraints (fun () -> Constraints.of_symbolic ~budget (Lazy.force sym)))
  in
  let problem =
    lazy
      (Metrics.span s_symbolic_min (fun () ->
           (Symbmin.run ~budget (Lazy.force sym)).Symbmin.problem))
  in
  let rung_end_attrs r =
    ("spent", Trace.Int (Budget.spent budget))
    ::
    (match r with
    | Ok (e, _) -> [ ("ok", Trace.Bool true); ("nbits", Trace.Int e.Encoding.nbits) ]
    | Error err -> [ ("ok", Trace.Bool false); ("error", Trace.String (Nova_error.to_string err)) ])
  in
  let rec descend degraded = function
    | [] -> (
        (* Every rung failed (only possible without the igreedy terminal
           rung, i.e. with [fallback = false]): report the primary
           algorithm's own failure. *)
        match List.rev degraded with
        | (_, first_error) :: _ -> Error first_error
        | [] -> Error (Nova_error.Invalid_request "empty fallback ladder"))
    | rung :: rest -> (
        let result =
          Metrics.span (rung_section rung) ~end_attrs:rung_end_attrs
            ~attrs:[ ("rung", Trace.String (rung_name rung)) ]
            (fun () -> run_rung ~budget ~bits ~num_states ~ics ~problem m algo rung)
        in
        match result with
        | Ok (encoding, claims) ->
            let o =
              { encoding; algorithm = algo; produced_by = rung; degradations = List.rev degraded;
                claims }
            in
            (if not !quiet then
               match degradation_warning o with Some w -> prerr_endline w | None -> ());
            Ok o
        | Error err ->
            if Trace.enabled () then
              Trace.instant "driver.degradation"
                ~attrs:
                  [ ("rung", Trace.String (rung_name rung));
                    ("error", Trace.String (Nova_error.to_string err)) ];
            descend ((rung, err) :: degraded) rest)
  in
  descend [] (ladder ~fallback algo)

let report ?bits ?budget ?fallback m algo =
  match encode ?bits ?budget ?fallback m algo with
  | Error err -> Error err
  | Ok outcome ->
      let impl =
        Metrics.span s_implement
          ~attrs:[ ("machine", Trace.String m.Fsm.name); ("algorithm", Trace.String (name algo)) ]
          ~end_attrs:(fun impl -> [ ("num_cubes", Trace.Int impl.Encoded.num_cubes) ])
          (fun () -> Encoded.implement ?budget m outcome.encoding)
      in
      Ok (outcome, impl)
