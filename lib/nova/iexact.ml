type result = { k : int; codes : int array; proven : bool }
type outcome = Sat of result | Exhausted

(* Enumerate primary level vectors in increasing lexicographic order:
   [levels.(i)] ranges over [lo.(i) .. hi], rightmost position fastest.
   Returns false when the odometer wraps. *)
let advance levels lo hi =
  let n = Array.length levels in
  let rec bump i =
    if i < 0 then false
    else if levels.(i) < hi then begin
      levels.(i) <- levels.(i) + 1;
      true
    end
    else begin
      levels.(i) <- lo.(i);
      bump (i - 1)
    end
  in
  bump (n - 1)

let semiexact_code ~num_states ~k ?(max_work = 30_000) ?(budget = Budget.create ())
    ?(output_constraints = []) ics =
  if Budget.exhausted budget then None
  else begin
    let poset = Input_poset.build ~num_states ics in
    match
      Embed.solve poset
        {
          Embed.k;
          policy = Embed.Fixed_min;
          budget = Budget.sub ~max_work budget;
          output_constraints;
        }
    with
    | Embed.Sat { codes; _ } -> Some codes
    | Embed.Unsat | Embed.Exhausted -> None
  end

let accrete ~num_states ~k ~max_work ~budget ics =
  List.fold_left
    (fun (codes, sic, ric) (ic : Constraints.input_constraint) ->
      match semiexact_code ~num_states ~k ~max_work ~budget (Project.states (ic :: sic)) with
      | Some cs -> (Some cs, ic :: sic, ric)
      | None -> (codes, sic, ic :: ric))
    (None, [], []) ics

let iexact_code ~num_states ?(max_work = 2_000_000) ?(budget = Budget.create ()) ics =
  let poset = Input_poset.build ~num_states ics in
  let mincube = Input_poset.mincube_dim poset in
  let primaries =
    Array.to_list poset.Input_poset.elements
    |> List.filter (fun e -> e.Input_poset.category = 1 && e.Input_poset.card > 1)
  in
  (* The intrinsic cap is a sub-budget: the search charges the caller's
     budget too, and stops at whichever limit comes first. *)
  let local = Budget.sub ~max_work budget in
  let out_of_budget () = Budget.exhausted local in
  let solve ~k policy =
    Embed.solve poset { Embed.k; policy; budget = local; output_constraints = [] }
  in
  let answer = ref None in
  let all_below_refuted = ref true in
  let k = ref mincube in
  let upper = min 62 num_states in
  while !answer = None && (not (out_of_budget ())) && !k <= upper do
    let kk = !k in
    let refuted_here = ref true in
    (* Fast probe: the minimum-level restriction usually finds a solution
       when one exists at this dimension. Finding one here short-cuts the
       level enumeration; failing proves nothing (incomplete search). *)
    (match solve ~k:kk Embed.Fixed_min with
    | Embed.Sat { codes; _ } ->
        answer := Some { k = kk; codes; proven = !all_below_refuted }
    | Embed.Unsat | Embed.Exhausted -> ());
    (* Full primary-level-vector enumeration (Section 3.3.1). *)
    if !answer = None then begin
      let lo = Array.of_list (List.map Input_poset.min_level primaries) in
      let hi = kk - 1 in
      if Array.exists (fun l -> l > hi) lo then refuted_here := true
      else begin
        let levels = Array.copy lo in
        let continue_ = ref true in
        while !continue_ && !answer = None && not (out_of_budget ()) do
          let dimvect = Array.make (Array.length poset.Input_poset.elements) 0 in
          List.iteri (fun i e -> dimvect.(e.Input_poset.id) <- levels.(i)) primaries;
          (match solve ~k:kk (Embed.Dimvect dimvect) with
          | Embed.Sat { codes; _ } ->
              answer := Some { k = kk; codes; proven = !all_below_refuted }
          | Embed.Unsat -> ()
          | Embed.Exhausted -> refuted_here := false);
          if !answer = None then continue_ := advance levels lo hi
        done;
        if out_of_budget () then refuted_here := false
      end
    end;
    if !answer = None && not !refuted_here then all_below_refuted := false;
    incr k
  done;
  (* Budget gone with nothing found: sweep a few more dimensions with the
     fast probe, reporting any full-satisfaction length found as unproven
     (the paper's starred entries). The probes run on fresh sub-budgets
     of the caller's, so the intrinsic cap above does not silence them —
     but a caller deadline still does. *)
  if !answer = None then begin
    let kk = ref !k in
    while !answer = None && (not (Budget.exhausted budget)) && !kk <= min upper (mincube + 3) do
      List.iter
        (fun policy ->
          if !answer = None then
            match
              Embed.solve poset
                {
                  Embed.k = !kk;
                  policy;
                  budget = Budget.sub ~max_work:200_000 budget;
                  output_constraints = [];
                }
            with
            | Embed.Sat { codes; _ } -> answer := Some { k = !kk; codes; proven = false }
            | Embed.Unsat | Embed.Exhausted -> ())
        [ Embed.Fixed_min; Embed.Flexible 2 ];
      incr kk
    done
  end;
  (* Last resort: accretion at the minimum length, largest groups first
     from the identity encoding, then the projection of Proposition
     4.2.1 satisfies everything at some (non-minimal) length — the
     flavor of entry the paper prints as donfile's "11". *)
  if !answer = None then begin
    let min_len = Encoding.min_code_length num_states in
    let ics = List.map (fun g -> { Constraints.states = g; weight = 1 }) ics in
    let by_card_desc (a : Constraints.input_constraint) (b : Constraints.input_constraint) =
      compare (Bitvec.cardinal b.Constraints.states) (Bitvec.cardinal a.Constraints.states)
    in
    let codes, _, _ =
      accrete ~num_states ~k:min_len ~max_work:30_000 ~budget (List.sort by_card_desc ics)
    in
    let codes = Option.value codes ~default:(Array.init num_states (fun s -> s)) in
    (* Split by what the codes satisfy, not by what accretion accepted:
       the last accepted codes may satisfy rejected groups too. *)
    let sic, ric = Project.split (Encoding.make ~nbits:min_len codes) ics in
    let p = Project.extend ~budget ~upto:60 { Project.codes; nbits = min_len; sic; ric } in
    if p.Project.ric = [] then
      answer := Some { k = p.Project.nbits; codes = p.Project.codes; proven = false }
  end;
  match !answer with Some r -> Sat r | None -> Exhausted
