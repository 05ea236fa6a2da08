type problem = {
  num_states : int;
  ics : Constraints.input_constraint list;
  clusters : Constraints.oc_cluster list;
}

type result = {
  encoding : Encoding.t;
  sat_inputs : Constraints.input_constraint list;
  unsat_inputs : Constraints.input_constraint list;
  sat_clusters : Constraints.oc_cluster list;
  random_start : bool;
}

let by_cluster_weight_desc (a : Constraints.oc_cluster) (b : Constraints.oc_cluster) =
  let c = compare b.Constraints.oc_weight a.Constraints.oc_weight in
  if c <> 0 then c else compare a.Constraints.next_state b.Constraints.next_state

let cluster_edges clusters =
  List.concat_map (fun (cl : Constraints.oc_cluster) -> cl.Constraints.edges) clusters

let finish ~codes ~nbits ~ics ~clusters ~random_start =
  let encoding = Encoding.make ~nbits codes in
  let sat_inputs, unsat_inputs = Project.split encoding ics in
  let sat_clusters = List.filter (Constraints.cluster_satisfied encoding) clusters in
  { encoding; sat_inputs; unsat_inputs; sat_clusters; random_start }

(* The work cap of each bounded search, ihybrid's default. *)
let max_work = 30_000

let run ~variant ?nbits ?(budget = Budget.create ()) p =
  let n = p.num_states in
  let min_len = Encoding.min_code_length n in
  let nbits = match nbits with Some b -> max b min_len | None -> min_len in
  if p.ics = [] && p.clusters <> [] then begin
    (* Only output constraints: defer to the output encoder, within the
       caller's code-length budget. *)
    let encoding =
      Out_encoder.out_encoder ~num_states:n ~max_bits:nbits ~budget (cluster_edges p.clusters)
    in
    finish ~codes:encoding.Encoding.codes ~nbits:encoding.Encoding.nbits ~ics:p.ics
      ~clusters:p.clusters ~random_start:false
  end
  else begin
    let companion_groups =
      List.concat_map (fun (cl : Constraints.oc_cluster) -> cl.Constraints.companion) p.clusters
    in
    let is_companion (ic : Constraints.input_constraint) =
      List.exists (Bitvec.equal ic.Constraints.states) companion_groups
    in
    (* Stage 1: input-constraint accretion at the minimum code length.
       iohybrid takes all input constraints; iovariant only IC_o. *)
    let stage1_ics =
      if variant then List.filter (fun ic -> not (is_companion ic)) p.ics else p.ics
    in
    let codes, sic, ric =
      Iexact.accrete ~num_states:n ~k:min_len ~max_work ~budget
        (List.sort Project.by_weight_desc stage1_ics)
    in
    let codes = ref codes and sic = ref sic and ric = ref ric in
    let mem g = List.exists (fun (ic : Constraints.input_constraint) -> Bitvec.equal ic.Constraints.states g) in
    let without ics =
      List.filter (fun (r : Constraints.input_constraint) -> not (mem r.Constraints.states ics))
    in
    (* Stage 2: clusters of output constraints in decreasing weight. *)
    let soc = ref [] in
    List.iter
      (fun (cl : Constraints.oc_cluster) ->
        let companions =
          if variant then
            List.filter_map
              (fun g -> if mem g !sic then None else Some { Constraints.states = g; weight = 1 })
              cl.Constraints.companion
          else []
        in
        let ocs = cluster_edges (cl :: !soc) in
        match
          Iexact.semiexact_code ~num_states:n ~k:min_len ~max_work ~budget
            ~output_constraints:ocs (Project.states (companions @ !sic))
        with
        | Some cs ->
            codes := Some cs;
            soc := cl :: !soc;
            if variant then begin
              sic := companions @ !sic;
              ric := without !sic !ric
            end
        | None -> if variant then ric := companions @ without companions !ric)
      (List.sort by_cluster_weight_desc p.clusters);
    (* The start and the projection of ihybrid. *)
    let random_start, codes = Project.start ~num_states:n ~nbits:min_len !codes in
    let e =
      Project.extend ~budget ~upto:nbits { Project.codes; nbits = min_len; sic = !sic; ric = !ric }
    in
    finish ~codes:e.Project.codes ~nbits:e.Project.nbits ~ics:p.ics ~clusters:p.clusters
      ~random_start
  end

let iohybrid_code ?nbits ?budget p = run ~variant:false ?nbits ?budget p
let iovariant_code ?nbits ?budget p = run ~variant:true ?nbits ?budget p
