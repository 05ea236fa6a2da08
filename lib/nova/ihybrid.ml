type result = {
  encoding : Encoding.t;
  satisfied : Constraints.input_constraint list;
  unsatisfied : Constraints.input_constraint list;
  random_start : bool;
}

let ihybrid_code ~num_states ?nbits ?(max_work = 30_000) ?order_seed
    ?(budget = Budget.create ()) ics =
  let min_len = Encoding.min_code_length num_states in
  let ordered =
    match order_seed with
    | None -> List.sort Project.by_weight_desc ics
    | Some os ->
        (* Shuffle, then stable-sort by weight: equal weights end up in a
           seed-dependent order. *)
        let rng = Random.State.make [| os; num_states |] in
        let tagged = List.map (fun ic -> (Random.State.bits rng, ic)) ics in
        List.map snd (List.sort compare tagged)
        |> List.stable_sort (fun (a : Constraints.input_constraint) b ->
               compare b.Constraints.weight a.Constraints.weight)
  in
  let codes, sic, ric = Iexact.accrete ~num_states ~k:min_len ~max_work ~budget ordered in
  let random_start, codes = Project.start ~num_states ~nbits:min_len codes in
  let p =
    Project.extend ~budget ~upto:(Option.value nbits ~default:min_len)
      { Project.codes; nbits = min_len; sic; ric }
  in
  let encoding = Encoding.make ~nbits:p.Project.nbits p.Project.codes in
  (* Report satisfaction against the final encoding, which is what the
     downstream minimization sees. *)
  let satisfied, unsatisfied = Project.split encoding ics in
  { encoding; satisfied; unsatisfied; random_start }
