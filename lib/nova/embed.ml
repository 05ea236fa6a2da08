(* Probes: the search is one timed section; its ticks, verifications
   and cascades are tallied in plain ints and published once per call,
   also when the search exits by [Work_exhausted] or [Out_of_budget]. *)
let s_solve = Metrics.section "embed.solve"
let c_ticks = Metrics.event "embed.work_ticks"
let c_verify = Metrics.event "embed.verify_calls"
let c_cascades = Metrics.event "embed.cascade_calls"

type level_policy = Fixed_min | Flexible of int | Dimvect of int array

type params = {
  k : int;
  policy : level_policy;
  budget : Budget.t;
  output_constraints : Constraints.output_constraint list;
}

type outcome = Sat of { codes : int array; faces : Face.t array } | Unsat | Exhausted

exception Work_exhausted

(* Sentinels of the per-call meet table; element ids are >= 0. *)
let empty_meet = -1
let absent_meet = -2
let unknown_meet = -3

let solve (poset : Input_poset.t) params =
  Metrics.span s_solve @@ fun () ->
  let ticks = ref 0 and verifies = ref 0 and cascades = ref 0 in
  Fun.protect ~finally:(fun () ->
      Metrics.Registry.add c_ticks !ticks;
      Metrics.Registry.add c_verify !verifies;
      Metrics.Registry.add c_cascades !cascades)
  @@ fun () ->
  let k = params.k in
  let n = poset.Input_poset.num_states in
  let elements = poset.Input_poset.elements in
  let m = Array.length elements in
  if k < 1 || k > 62 || 1 lsl k < n then Unsat
  else begin
    let faces : Face.t option array = Array.make m None in
    (* The meet of two elements: the id of the element equal to
       [states_i ∩ states_j], [empty_meet] when they are disjoint, or
       [absent_meet] when the intersection is no element (the closure
       guarantees it never is). Filled lazily, both orders at once. *)
    let by_states = Bitvec.Tbl.create (2 * m) in
    Array.iter
      (fun e -> Bitvec.Tbl.replace by_states e.Input_poset.states e.Input_poset.id)
      elements;
    let meets = Array.make (m * m) unknown_meet in
    let meet i j =
      let r = meets.((i * m) + j) in
      if r <> unknown_meet then r
      else begin
        let common = Bitvec.inter elements.(i).Input_poset.states elements.(j).Input_poset.states in
        let r =
          if Bitvec.is_empty common then empty_meet
          else Option.value ~default:absent_meet (Bitvec.Tbl.find_opt by_states common)
        in
        meets.((i * m) + j) <- r;
        meets.((j * m) + i) <- r;
        r
      end
    in
    (* The state of singleton elements, for output-covering checks. *)
    let singleton_state = Array.make m (-1) in
    Array.iter
      (fun e ->
        if e.Input_poset.card = 1 then
          match Bitvec.first_set e.Input_poset.states with
          | Some s -> singleton_state.(e.Input_poset.id) <- s
          | None -> ())
      elements;
    let state_code = Array.make n (-1) in
    let tick () =
      incr ticks;
      if not (Budget.tick params.budget) then raise Work_exhausted
    in
    (* Verification of Section 3.4.3 against every assigned element. *)
    let verify id face =
      incr verifies;
      let e = elements.(id) in
      e.Input_poset.card <= Face.cardinality k face
      &&
      let ok = ref true in
      let j = ref 0 in
      while !ok && !j < m do
        (match faces.(!j) with
        | Some fj when !j <> id ->
            (* [meet id j] answers the subset, disjointness and element
               questions: se ⊆ sj iff it is [id], sj ⊆ se iff it is [j]. *)
            let mj = meet id !j in
            if Face.equal face fj then ok := false
            else begin
              (if Face.contains fj face && mj <> id then ok := false);
              (if Face.contains face fj && mj <> !j then ok := false);
              if !ok then
                match Face.inter face fj with
                | None -> if mj <> empty_meet then ok := false
                | Some h ->
                    if mj = empty_meet then ok := false
                    else if mj = absent_meet then
                      ok := false (* closure guarantees this cannot happen *)
                    else if elements.(mj).Input_poset.card > Face.cardinality k h then ok := false
                    else
                      let expected =
                        if mj = id then Some face else if mj = !j then Some fj else faces.(mj)
                      in
                      (match expected with
                      | Some fk -> if not (Face.equal fk h) then ok := false
                      | None -> ())
            end
        | Some _ | None -> ());
        incr j
      done;
      (* Output covering relations on fully decided state codes. *)
      (if !ok && params.output_constraints <> [] && Face.level k face = 0 then
         let s = singleton_state.(id) in
         if s >= 0 then begin
           let code_of t = if t = s then face.Face.bits else state_code.(t) in
           List.iter
             (fun (oc : Constraints.output_constraint) ->
               let u = oc.Constraints.covering and v = oc.Constraints.covered in
               if (u = s || v = s) && code_of u >= 0 && code_of v >= 0 then begin
                 let cu = code_of u and cv = code_of v in
                 if not (cu lor cv = cu && cu <> cv) then ok := false
               end)
             params.output_constraints
         end);
      !ok
    in
    let assign id face =
      faces.(id) <- Some face;
      let s = singleton_state.(id) in
      if s >= 0 && Face.level k face = 0 then state_code.(s) <- face.Face.bits
    in
    let unassign id =
      faces.(id) <- None;
      let s = singleton_state.(id) in
      if s >= 0 then state_code.(s) <- -1
    in
    (* Force category-2 elements whose fathers are all assigned to the
       intersection of the fathers' faces; cascade to a fixpoint.
       Returns the list of forced ids, or None after undoing on conflict. *)
    let cascade () =
      incr cascades;
      let forced = ref [] in
      let undo () = List.iter unassign !forced in
      let rec fix () =
        let progress = ref false in
        let conflict = ref false in
        Array.iter
          (fun e ->
            let id = e.Input_poset.id in
            if (not !conflict) && e.Input_poset.category = 2 && faces.(id) = None then begin
              let father_faces =
                List.map (fun f -> faces.(f)) e.Input_poset.fathers
              in
              if List.for_all Option.is_some father_faces then begin
                let inter =
                  List.fold_left
                    (fun acc f ->
                      match (acc, f) with
                      | Some a, Some b -> Face.inter a b
                      | None, _ | _, None -> None)
                    (Some (Face.full k))
                    father_faces
                in
                match inter with
                | None -> conflict := true
                | Some h ->
                    tick ();
                    if verify id h then begin
                      assign id h;
                      forced := id :: !forced;
                      progress := true
                    end
                    else conflict := true
              end
            end)
          elements;
        if !conflict then begin
          undo ();
          None
        end
        else if !progress then fix ()
        else Some !forced
      in
      fix ()
    in
    (* Target level of a selectable element under the current policy. *)
    let target_level e =
      match (params.policy, e.Input_poset.category) with
      | Dimvect levels, 1 when e.Input_poset.card > 1 -> levels.(e.Input_poset.id)
      | (Fixed_min | Flexible _ | Dimvect _), _ -> Input_poset.min_level e
    in
    (* next_to_code (Section 3.4.1): prefer high target level, category 1,
       and elements sharing children with the last assigned one. *)
    let select last =
      let best = ref None in
      Array.iter
        (fun e ->
          let id = e.Input_poset.id in
          if
            faces.(id) = None
            && (e.Input_poset.category = 1 || e.Input_poset.category = 3)
            && List.for_all (fun f -> faces.(f) <> None) e.Input_poset.fathers
          then begin
            let shares =
              match last with
              | Some lid -> if Input_poset.share_children elements.(lid) e then 1 else 0
              | None -> 0
            in
            let key = (target_level e, (if e.Input_poset.category = 1 then 1 else 0), shares, -id) in
            match !best with
            | Some (bkey, _) when bkey >= key -> ()
            | Some _ | None -> best := Some (key, id)
          end)
        elements;
      Option.map snd !best
    in
    (* Only the universe assigned so far? Then the next face is the first
       one placed, and any face of its level maps to any other under a
       cube automorphism: trying one representative is complete. *)
    let only_universe_assigned () =
      let count = ref 0 in
      Array.iter (fun f -> if f <> None then incr count) faces;
      !count = 1
    in
    let candidate_faces id =
      let e = elements.(id) in
      match e.Input_poset.category with
      | 1 ->
          let lmin = target_level e in
          let lmax =
            match params.policy with
            | Flexible slack -> min (k - 1) (Input_poset.min_level e + slack)
            | Fixed_min | Dimvect _ -> lmin
          in
          if lmin >= k then Seq.empty
          else
            let levels = Seq.init (lmax - lmin + 1) (fun i -> lmin + i) in
            let faces = Seq.concat_map (Face.faces_at_level k) levels in
            if only_universe_assigned () then
              (* One representative per level suffices up to automorphism. *)
              Seq.concat_map
                (fun l -> Seq.take 1 (Face.faces_at_level k l))
                levels
            else faces
      | 3 -> (
          let father = List.hd e.Input_poset.fathers in
          match faces.(father) with
          | None -> Seq.empty
          | Some g ->
              let lg = Face.level k g in
              let lmin = Input_poset.min_level e in
              let levels =
                match params.policy with
                | Fixed_min -> if lmin < lg then Seq.return lmin else Seq.empty
                | Flexible slack ->
                    Seq.init (max 0 (min (lg - 1) (lmin + slack) - lmin + 1)) (fun i -> lmin + i)
                | Dimvect _ ->
                    (* full lower-level backtracking: any feasible level *)
                    Seq.init (max 0 (lg - lmin)) (fun i -> lmin + i)
              in
              Seq.concat_map (fun l -> Face.subfaces_at_level k g l) levels)
      | _ -> Seq.empty
    in
    (* Completion: everything assigned AND the covering relations hold on
       the final codes. Singletons forced (category 2) onto faces of
       level > 0 only receive their vertex here, so relations touching
       them cannot be checked earlier. *)
    let final_codes () =
      let codes = Array.copy state_code in
      Array.iteri
        (fun id f ->
          let s = singleton_state.(id) in
          if s >= 0 && codes.(s) < 0 then
            match f with Some face -> codes.(s) <- face.Face.bits | None -> ())
        faces;
      codes
    in
    let all_assigned () =
      Array.for_all Option.is_some faces
      && (params.output_constraints = []
         ||
         let codes = final_codes () in
         List.for_all
           (fun (oc : Constraints.output_constraint) ->
             let cu = codes.(oc.Constraints.covering) and cv = codes.(oc.Constraints.covered) in
             cu < 0 || cv < 0 || (cu lor cv = cu && cu <> cv))
           params.output_constraints)
    in
    let rec go last =
      match select last with
      | None -> all_assigned ()
      | Some id ->
          let rec try_faces seq =
            match seq () with
            | Seq.Nil -> false
            | Seq.Cons (f, rest) ->
                tick ();
                if verify id f then begin
                  assign id f;
                  match cascade () with
                  | Some forced ->
                      go (Some id)
                      || begin
                           List.iter unassign forced;
                           unassign id;
                           try_faces rest
                         end
                  | None ->
                      unassign id;
                      try_faces rest
                end
                else try_faces rest
          in
          try_faces (candidate_faces id)
    in
    match
      assign poset.Input_poset.universe (Face.full k);
      (match cascade () with
      | None -> false
      | Some _ -> go None)
    with
    | true ->
        (* A singleton forced to a face of level > 0 owns every vertex of
           that face; its code is the face's base vertex. *)
        let codes = final_codes () in
        ignore (Array.for_all (fun c -> c >= 0) codes || (invalid_arg "Embed.solve: missing code"));
        Sat { codes; faces = Array.map Option.get faces }
    | false -> Unsat
    | exception Work_exhausted -> Exhausted
  end
