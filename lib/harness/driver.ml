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

(* --- the per-machine context --------------------------------------- *)

(* A once-cell: the first asker computes under the cell's lock, and an
   asker on another domain waits for that value instead of computing it
   again. *)
type 'a once = { lock : Mutex.t; mutable value : 'a option }

let once () = { lock = Mutex.create (); value = None }

let force cell f =
  Mutex.protect cell.lock @@ fun () ->
  match cell.value with
  | Some v -> v
  | None ->
      let v = f () in
      cell.value <- Some v;
      v

(* What every task of one machine can share. A budgeted value is kept
   with the ticks [t] it took. *)
type context = {
  machine : Fsm.t;
  sym : Symbolic.t once;
  mv : (Logic.Cover.t * int) once;  (** [Symbolic.minimize], ticks *)
  ics : Constraints.input_constraint list once;  (** [Constraints.of_cover] of [mv] *)
  impls : (int * int array, (Encoded.result * int) once) Hashtbl.t;
      (** one ESPRESSO run per encoding [(nbits, codes)], ticks *)
  impls_lock : Mutex.t;
}

let context machine =
  { machine; sym = once (); mv = once (); ics = once (); impls = Hashtbl.create 7;
    impls_lock = Mutex.create () }

(* A context serves only the machine value it was made for. *)
let usable ctx (m : Fsm.t) =
  match ctx with Some c when c.machine == m -> ctx | Some _ | None -> None

(* The tick rule: [share budget cell f] is [f budget] and whether it is
   the cell's value. A value that took [t] ticks is reused on [budget]
   only when [t] ticks there could neither trip it nor be observed: no
   deadline, callback or trip on its chain, and more than [t] work left
   on every cap ({!Budget.headroom}); those [t] ticks are then charged
   instead. An empty cell is filled by the first such asker, under the
   cell's lock, running [f] on an uncapped child of [budget]: its ticks
   are those of the private run. The value is stored only if they left
   headroom, so a run its cap cut short stays that asker's own result.
   Each asker thus computes at most once, bounded by its own caps. *)
let share budget cell f =
  match Budget.headroom budget with
  | Some h when h > 0 -> (
      Mutex.lock cell.lock;
      match cell.value with
      | Some (v, t) ->
          Mutex.unlock cell.lock;
          if t < h then begin
            Budget.charge budget t;
            (v, true)
          end
          else (f budget, false)
      | None ->
          Fun.protect ~finally:(fun () -> Mutex.unlock cell.lock) @@ fun () ->
          let b = Budget.sub budget in
          let v = f b in
          let fits = match Budget.headroom budget with Some h' -> h' > 0 | None -> false in
          if fits then cell.value <- Some (v, Budget.spent b);
          (v, fits))
  | Some _ | None -> (f budget, false)

let symbolic c = force c.sym (fun () -> Symbolic.of_fsm c.machine)
let mv_cover budget c = share budget c.mv (fun b -> Symbolic.minimize ~budget:b (symbolic c))

(* [Constraints.of_symbolic ~budget], with the shared cover's
   constraints extracted once. *)
let constraints budget c =
  let cover, shared = mv_cover budget c in
  let of_cover () = Constraints.of_cover (symbolic c) cover in
  if shared then force c.ics of_cover else of_cover ()

let input_constraints c = constraints (Budget.create ()) c

let implement ?budget c (e : Encoding.t) =
  let cell =
    Mutex.protect c.impls_lock @@ fun () ->
    let key = (e.Encoding.nbits, e.Encoding.codes) in
    match Hashtbl.find_opt c.impls key with
    | Some cell -> cell
    | None ->
        let cell = once () in
        Hashtbl.add c.impls (e.Encoding.nbits, Array.copy e.Encoding.codes) cell;
        cell
  in
  let budget = match budget with Some b -> b | None -> Budget.create () in
  fst (share budget cell (fun b -> Encoded.implement ~budget:b c.machine e))

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

(* [encode] with [ctx] already checked against [m] by {!usable}. *)
let encode_in ctx ?bits ?(budget = Budget.unlimited) ?(fallback = true) (m : Fsm.t) algo =
  Metrics.span s_encode ~end_attrs:encode_end_attrs
    ~attrs:[ ("machine", Trace.String m.Fsm.name); ("algorithm", Trace.String (name algo)) ]
  @@ fun () ->
  let num_states = Fsm.num_states ~m in
  (* Shared upstream artifacts, computed at most once per call whatever
     rung (or rungs) the ladder visits; with a context, at most once per
     machine under the tick rule. *)
  let sym = lazy (match ctx with Some c -> symbolic c | None -> Symbolic.of_fsm m) in
  let ics =
    lazy
      (Metrics.span s_constraints (fun () ->
           match ctx with
           | Some c -> constraints budget c
           | None -> Constraints.of_symbolic ~budget (Lazy.force sym)))
  in
  let problem =
    lazy
      (Metrics.span s_symbolic_min (fun () ->
           let cover = Option.map (fun c -> fst (mv_cover budget c)) ctx in
           (Symbmin.run ~budget ?cover (Lazy.force sym)).Symbmin.problem))
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

let encode ?ctx ?bits ?budget ?fallback m algo =
  encode_in (usable ctx m) ?bits ?budget ?fallback m algo

let report ?ctx ?bits ?budget ?fallback m algo =
  let ctx = usable ctx m in
  match encode_in ctx ?bits ?budget ?fallback m algo with
  | Error err -> Error err
  | Ok outcome ->
      let impl =
        Metrics.span s_implement
          ~attrs:[ ("machine", Trace.String m.Fsm.name); ("algorithm", Trace.String (name algo)) ]
          ~end_attrs:(fun impl -> [ ("num_cubes", Trace.Int impl.Encoded.num_cubes) ])
          (fun () ->
            match ctx with
            | Some c -> implement ?budget c outcome.encoding
            | None -> Encoded.implement ?budget m outcome.encoding)
      in
      Ok (outcome, impl)
