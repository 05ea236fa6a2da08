type result = {
  encoding : Encoding.t;
  satisfied : Constraints.input_constraint list;
  unsatisfied : Constraints.input_constraint list;
}

let igreedy_code ~num_states ?nbits ?(budget = Budget.create ()) ics =
  let k = max (Option.value nbits ~default:0) (Encoding.min_code_length num_states) in
  let weight_of states =
    List.fold_left
      (fun acc (ic : Constraints.input_constraint) ->
        if Bitvec.equal ic.Constraints.states states then acc + ic.Constraints.weight else acc)
      0 ics
  in
  (* Deepest (smallest) groups first — common subconstraints get priority;
     heavier groups first within a depth. As the ladder's terminal rung
     this must stay prompt: an already-exhausted budget skips the
     constraint grouping entirely and falls through to sequential
     codes. *)
  let groups =
    if Budget.exhausted budget then []
    else
      let poset =
        Input_poset.build ~num_states
          (List.map (fun (ic : Constraints.input_constraint) -> ic.Constraints.states) ics)
      in
      Array.to_list poset.Input_poset.elements
      |> List.filter (fun e -> e.Input_poset.card >= 2 && e.Input_poset.card < num_states)
      |> List.map (fun e -> (e.Input_poset.states, e.Input_poset.card, weight_of e.Input_poset.states))
      |> List.sort (fun (_, c1, w1) (_, c2, w2) ->
             let c = compare c1 c2 in
             if c <> 0 then c else compare w2 w1)
  in
  let state_code = Array.make num_states (-1) in
  let code_used = Hashtbl.create num_states in
  let assign s c =
    state_code.(s) <- c;
    Hashtbl.replace code_used c s
  in
  let free_vertices face =
    List.filter (fun v -> not (Hashtbl.mem code_used v)) (Face.vertices k face)
  in
  (* A face works for a group iff it contains all already-placed members,
     has room for the unplaced ones, and holds no outsider's code. *)
  let face_ok group face =
    let placed_inside = ref true and unplaced = ref 0 in
    Bitvec.iter
      (fun s ->
        if state_code.(s) < 0 then incr unplaced
        else if not (Face.contains_code face state_code.(s)) then placed_inside := false)
      group;
    !placed_inside
    && (let outsiders = ref false in
        for s = 0 to num_states - 1 do
          if (not (Bitvec.get group s)) && state_code.(s) >= 0 && Face.contains_code face state_code.(s)
          then outsiders := true
        done;
        not !outsiders)
    && List.length (free_vertices face) >= !unplaced
  in
  let try_group group =
    let placed =
      List.filter_map
        (fun s -> if state_code.(s) >= 0 then Some state_code.(s) else None)
        (Bitvec.to_list group)
    in
    let base =
      match placed with
      | [] -> None
      | c :: rest -> Some (List.fold_left (fun f v -> Face.supercube f (Face.vertex k v)) (Face.vertex k c) rest)
    in
    let candidates l =
      match base with
      | Some b -> if l >= Face.level k b then Face.superfaces_at_level k b l else Seq.empty
      | None -> Face.faces_at_level k l
    in
    let rec levels l =
      if l >= k then None
      else
        match Seq.find (face_ok group) (candidates l) with
        | Some f -> Some f
        | None -> levels (l + 1)
    in
    match levels (Encoding.ceil_log2 (Bitvec.cardinal group)) with
    | None -> ()
    | Some f ->
        let free = ref (free_vertices f) in
        Bitvec.iter
          (fun s ->
            if state_code.(s) < 0 then
              match !free with
              | v :: rest ->
                  assign s v;
                  free := rest
              | [] -> assert false)
          group
  in
  List.iter (fun (g, _, _) -> if not (Budget.exhausted budget) then try_group g) groups;
  (* Leftover states take arbitrary free codes. *)
  let next_free = ref 0 in
  for s = 0 to num_states - 1 do
    if state_code.(s) < 0 then begin
      while Hashtbl.mem code_used !next_free do
        incr next_free
      done;
      assign s !next_free
    end
  done;
  let encoding = Encoding.make ~nbits:k state_code in
  let satisfied, unsatisfied =
    List.partition
      (fun (ic : Constraints.input_constraint) -> Constraints.satisfied encoding ic.Constraints.states)
      ics
  in
  { encoding; satisfied; unsatisfied }
