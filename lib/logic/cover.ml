type t = { dom : Domain.t; cubes : Cube.t list }

let make dom cubes = { dom; cubes = List.filter (fun c -> not (Cube.is_empty dom c)) cubes }
let empty dom = { dom; cubes = [] }
let universe dom = { dom; cubes = [ Cube.full dom ] }
let size t = List.length t.cubes
let literal_cost t = List.fold_left (fun acc c -> acc + Cube.num_literal_bits t.dom c) 0 t.cubes

(* --- Probes ------------------------------------------------------------ *)

(* Per-call counters bump the registry directly. The recursions count
   their nodes in a [tally] of plain ints instead, published with one
   [Registry.add] per counter when the top-level call returns, so the
   per-node path carries no atomics. *)
let c_taut_calls = Metrics.event "logic.tautology_calls"
let c_compl_calls = Metrics.event "logic.complement_calls"
let c_cofactor_calls = Metrics.event "logic.cofactor_calls"
let c_taut_nodes = Metrics.event "logic.tautology_nodes"
let c_compl_nodes = Metrics.event "logic.complement_nodes"
let c_unate_reductions = Metrics.event "logic.unate_reductions"
let c_component_reductions = Metrics.event "logic.component_reductions"
let s_taut = Metrics.section "logic.tautology"
let s_compl = Metrics.section "logic.complement"

type tally = {
  mutable nodes : int;
  mutable unate : int;
  mutable components : int;
  mutable cofactors : int;
}

let tallied ?nodes f =
  let t = { nodes = 0; unate = 0; components = 0; cofactors = 0 } in
  let add c n = if n > 0 then Metrics.Registry.add c n in
  let publish () =
    Option.iter (fun c -> add c t.nodes) nodes;
    add c_unate_reductions t.unate;
    add c_component_reductions t.components;
    add c_cofactor_calls t.cofactors
  in
  Fun.protect ~finally:publish (fun () -> f t)

let union a b =
  assert (Domain.equal a.dom b.dom);
  { a with cubes = a.cubes @ b.cubes }

let intersect a b =
  assert (Domain.equal a.dom b.dom);
  let cubes =
    List.concat_map
      (fun ca -> List.filter_map (fun cb -> Cube.inter a.dom ca cb) b.cubes)
      a.cubes
  in
  { a with cubes }

let cofactor t ~wrt =
  Metrics.Registry.inc c_cofactor_calls;
  let not_wrt = Bitvec.complement wrt in
  let cubes =
    List.filter_map
      (fun c -> if Cube.intersects t.dom c wrt then Some (Bitvec.union c not_wrt) else None)
      t.cubes
  in
  { t with cubes }

let single_cube_containment t =
  (* Keep a cube only if no *other* kept-or-later cube contains it; on
     equal cubes keep the first occurrence. *)
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: rest ->
        let covered =
          List.exists (fun k -> Cube.contains k c) kept
          || List.exists (fun r -> Cube.contains r c && not (Cube.equal r c)) rest
        in
        if covered then loop kept rest else loop (c :: kept) rest
  in
  { t with cubes = loop [] t.cubes }

(* --- Unate-aware recursive kernel -------------------------------------- *)

(* Cofactor a cube list against the literal (var v = part p), keeping only
   the cubes asserting part p and raising their field of v to full. *)
let cofactor_literal tally dom cubes v p =
  tally.cofactors <- tally.cofactors + 1;
  let bit = Domain.offset dom v + p in
  let pw = bit / Bitvec.bits_per_word and pm = 1 lsl (bit mod Bitvec.bits_per_word) in
  let ws = Domain.var_words dom v and ms = Domain.var_masks dom v in
  List.filter_map
    (fun c ->
      if Bitvec.word c pw land pm <> 0 then begin
        let c' = Bitvec.copy c in
        for i = 0 to Array.length ws - 1 do
          Bitvec.or_word c' ws.(i) ms.(i)
        done;
        Some c'
      end
      else None)
    cubes

(* Per-node statistics, computed in one pass: [nfull.(v)] is the number
   of cubes whose field of variable [v] is full. *)
type node_stats = { ncubes : int; nfull : int array }

let node_stats dom cubes =
  let nv = Domain.num_vars dom in
  let nfull = Array.make nv 0 in
  let ncubes = ref 0 in
  List.iter
    (fun c ->
      incr ncubes;
      for v = 0 to nv - 1 do
        if Cube.var_full dom c v then nfull.(v) <- nfull.(v) + 1
      done)
    cubes;
  { ncubes = !ncubes; nfull }

(* The most binate variable — active (non-full) in the most cubes — drives
   Shannon-style splitting; ties go to the lowest variable index. *)
let most_binate_of_stats dom st =
  let nv = Domain.num_vars dom in
  let best = ref (-1) and best_active = ref 0 in
  for v = 0 to nv - 1 do
    let active = st.ncubes - st.nfull.(v) in
    if active > !best_active then begin
      best := v;
      best_active := active
    end
  done;
  if !best_active = 0 then None else Some !best

(* Partition cubes into groups touching disjoint sets of active variables
   (union-find over variables). Callers must have dealt with full cubes:
   every cube here needs at least one non-full field. *)
let components dom cubes =
  let nv = Domain.num_vars dom in
  let parent = Array.init nv (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let link a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let anchors =
    List.map
      (fun c ->
        let a = ref (-1) in
        for v = 0 to nv - 1 do
          if not (Cube.var_full dom c v) then if !a < 0 then a := v else link !a v
        done;
        assert (!a >= 0);
        !a)
      cubes
  in
  let tbl = Hashtbl.create 8 in
  List.iter2
    (fun c a ->
      let r = find a in
      Hashtbl.replace tbl r (c :: (try Hashtbl.find tbl r with Not_found -> [])))
    cubes anchors;
  Hashtbl.fold (fun _ l acc -> List.rev l :: acc) tbl []

(* Parts of [v] asserted by exactly the same cubes have identical
   cofactors; group them so each distinct cofactor recurses only once
   (frequent for the wide multiple-valued output variable of encoded
   PLAs, where many columns repeat). *)
let part_groups dom cubes v =
  let off = Domain.offset dom v and sz = Domain.size dom v in
  let key p =
    let b = Buffer.create 32 in
    List.iter (fun c -> Buffer.add_char b (if Bitvec.get c (off + p) then '1' else '0')) cubes;
    Buffer.contents b
  in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  for p = sz - 1 downto 0 do
    let k = key p in
    match Hashtbl.find_opt tbl k with
    | Some l -> Hashtbl.replace tbl k (p :: l)
    | None ->
        Hashtbl.add tbl k [ p ];
        order := k :: !order
  done;
  List.map (fun k -> Hashtbl.find tbl k) !order

(* Space size for the minterm-count cutoff; a domain too big for an int
   disables the cutoff (max_int can never exceed a clamped sum). *)
let space_size dom =
  match Domain.num_minterms dom with n -> n | exception Invalid_argument _ -> max_int

(* The tautology recursion analyses each node in ONE pass over the cubes.
   Per cube and variable, [range_cardinal] yields at once: fullness (card
   = size, counted into [nfull]), the cube's minterm count (product of
   cardinalities, saturated at [space]), and — for non-full fields — an OR
   accumulated into [weak] plus a union-find link for the component
   partition. From those four byproducts the node applies, in order:

   - full-cube shortcut: some cube covers everything, tautology;
   - minterm cutoff: even counting overlaps with multiplicity the cubes
     hold fewer than [space] minterms, so some minterm is uncovered;
   - unate reduction: a part of [v] missing from [weak] is asserted only
     by cubes full in [v]; cofactoring against it erases every cube
     active in [v], so the answer is that of the full-field sub-cover;
   - component reduction: cube groups over disjoint variable sets cover
     the space iff one group does on its own;
   - Shannon split on the most binate variable, with identical columns
     of a multiple-valued variable recursed once and thin cofactors
     visited first (they are the likely non-tautologies). *)
let rec taut_fast tally dom cubes space =
  tally.nodes <- tally.nodes + 1;
  match cubes with
  | [] -> false
  | [ c ] -> Bitvec.is_full c
  | _ ->
      let nv = Domain.num_vars dom in
      let nfull = Array.make nv 0 in
      let nwords = ((Domain.width dom - 1) / Bitvec.bits_per_word) + 1 in
      let weak = Array.make nwords 0 in
      let parent = Array.init nv (fun i -> i) in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      let link a b =
        let ra = find a and rb = find b in
        if ra <> rb then parent.(ra) <- rb
      in
      let vw = Domain.var_word1 dom and vm = Domain.var_mask1 dom in
      let ncubes = ref 0 and minterms = ref 0 and has_full = ref false in
      let anchors =
        List.map
          (fun c ->
            incr ncubes;
            let cube_minterms = ref 1 and anchor = ref (-1) in
            for v = 0 to nv - 1 do
              let w = vw.(v) in
              let card =
                if w >= 0 then Bitvec.popcount_word (Bitvec.word c w land vm.(v))
                else Cube.var_cardinal dom c v
              in
              if card = Domain.size dom v then nfull.(v) <- nfull.(v) + 1
              else begin
                (if w >= 0 then weak.(w) <- weak.(w) lor (Bitvec.word c w land vm.(v))
                 else
                   let ws = Domain.var_words dom v and ms = Domain.var_masks dom v in
                   for i = 0 to Array.length ws - 1 do
                     weak.(ws.(i)) <- weak.(ws.(i)) lor (Bitvec.word c ws.(i) land ms.(i))
                   done);
                if !anchor < 0 then anchor := v else link !anchor v
              end;
              if !cube_minterms < space then
                cube_minterms :=
                  (if card = 0 then 0
                   else if !cube_minterms > space / card then space
                   else !cube_minterms * card)
            done;
            if !anchor < 0 then has_full := true;
            (* Saturating add: both operands are <= space <= max_int, so
               the sum wraps at most once — a negative result means the
               true sum exceeded max_int and must clamp to [space]. *)
            (let s = !minterms + min space !cube_minterms in
             minterms := if s < 0 then space else min space s);
            !anchor)
          cubes
      in
      let ncubes = !ncubes in
      if !has_full then true
      else if !minterms < space then false
      else begin
        let weak_full v =
          let ws = Domain.var_words dom v and ms = Domain.var_masks dom v in
          let n = Array.length ws in
          let rec loop i = i = n || (weak.(ws.(i)) land ms.(i) = ms.(i) && loop (i + 1)) in
          loop 0
        in
        let rec unate v =
          if v = nv then None
          else if nfull.(v) < ncubes && not (weak_full v) then Some v
          else unate (v + 1)
        in
        match unate 0 with
        | Some v ->
            tally.unate <- tally.unate + 1;
            nfull.(v) > 0
            && taut_fast tally dom (List.filter (fun c -> Cube.var_full dom c v) cubes) space
        | None ->
            let root0 = find (List.hd anchors) in
            if List.exists (fun a -> find a <> root0) anchors then begin
              tally.components <- tally.components + 1;
              let tbl = Hashtbl.create 8 in
              List.iter2
                (fun c a ->
                  let r = find a in
                  Hashtbl.replace tbl r (c :: (try Hashtbl.find tbl r with Not_found -> [])))
                cubes anchors;
              let comps = Hashtbl.fold (fun _ l acc -> List.rev l :: acc) tbl [] in
              List.exists (fun comp -> taut_fast tally dom comp space) comps
            end
            else begin
              let best = ref (-1) and best_active = ref 0 in
              for v = 0 to nv - 1 do
                let active = ncubes - nfull.(v) in
                if active > !best_active then begin
                  best := v;
                  best_active := active
                end
              done;
              (* best >= 0: a cube full in every variable would have set
                 has_full above. *)
              let v = !best in
              let groups =
                if Domain.size dom v <= 2 then [ [ 0 ]; [ 1 ] ] else part_groups dom cubes v
              in
              let cofs =
                List.map (fun parts -> cofactor_literal tally dom cubes v (List.hd parts)) groups
              in
              let cofs = List.sort (fun a b -> compare (List.length a) (List.length b)) cofs in
              List.for_all (fun cf -> taut_fast tally dom cf space) cofs
            end
      end

let tautology t =
  Metrics.Registry.inc c_taut_calls;
  Metrics.span s_taut @@ fun () ->
  tallied ~nodes:c_taut_nodes (fun tally -> taut_fast tally t.dom t.cubes (space_size t.dom))

let covers_cube t c =
  if Cube.is_empty t.dom c then true
  else begin
    Metrics.Registry.inc c_taut_calls;
    Metrics.span s_taut @@ fun () ->
    tallied ~nodes:c_taut_nodes (fun tally ->
        taut_fast tally t.dom (cofactor t ~wrt:c).cubes (space_size t.dom))
  end

let covers a b = List.for_all (fun c -> covers_cube a c) b.cubes

let equivalent a b = covers a b && covers b a

(* Complement of a single cube: one cube per variable with a non-full
   field, full everywhere else and the field negated. *)
let complement_cube dom c =
  let n = Domain.num_vars dom in
  let acc = ref [] in
  for v = 0 to n - 1 do
    if not (Cube.var_full dom c v) then begin
      let off = Domain.offset dom v in
      let sz = Domain.size dom v in
      let r = Bitvec.full (Domain.width dom) in
      for p = 0 to sz - 1 do
        if Bitvec.get c (off + p) then Bitvec.clear r (off + p)
      done;
      if not (Bitvec.range_empty r off sz) then acc := r :: !acc
    end
  done;
  !acc

(* Merge cubes that are identical outside variable [v] by unioning their
   [v] fields; cubes whose union becomes a full field stay as such. *)
let merge_on_var dom cubes v =
  let off = Domain.offset dom v in
  let sz = Domain.size dom v in
  let tbl = Bitvec.Tbl.create 31 in
  List.iter
    (fun c ->
      let key = Bitvec.copy c in
      Bitvec.clear_range key off sz;
      match Bitvec.Tbl.find_opt tbl key with
      | None -> Bitvec.Tbl.add tbl key (Bitvec.copy c)
      | Some existing -> Bitvec.union_into existing c)
    cubes;
  Bitvec.Tbl.fold (fun _ c acc -> c :: acc) tbl []

let scc_cubes dom cubes = (single_cube_containment { dom; cubes }).cubes

let rec compl_fast tally dom cubes =
  tally.nodes <- tally.nodes + 1;
  match cubes with
  | [] -> [ Bitvec.full (Domain.width dom) ]
  | _ when List.exists Bitvec.is_full cubes -> []
  | [ c ] -> complement_cube dom c
  | _ -> (
      match components dom cubes with
      | (_ :: _ :: _) as comps ->
          (* ¬(F₁ ∪ F₂) = ¬F₁ ∩ ¬F₂, and for variable-disjoint components
             every pairwise cube intersection is non-empty. *)
          tally.components <- tally.components + 1;
          List.fold_left
            (fun acc comp ->
              let cc = compl_fast tally dom comp in
              match acc with
              | None -> Some cc
              | Some acc ->
                  Some
                    (scc_cubes dom
                       (List.concat_map
                          (fun a -> List.filter_map (fun b -> Cube.inter dom a b) cc)
                          acc)))
            None comps
          |> Option.value ~default:[ Bitvec.full (Domain.width dom) ]
      | _ -> (
          let st = node_stats dom cubes in
          match most_binate_of_stats dom st with
          | None -> [] (* some cube is full: handled above; defensive *)
          | Some v ->
              let off = Domain.offset dom v and sz = Domain.size dom v in
              let groups =
                if sz <= 2 then [ [ 0 ]; [ 1 ] ] else part_groups dom cubes v
              in
              let branches = ref [] in
              List.iter
                (fun parts ->
                  let sub =
                    compl_fast tally dom (cofactor_literal tally dom cubes v (List.hd parts))
                  in
                  (* AND each result cube with the literal (v ∈ parts). *)
                  List.iter
                    (fun c ->
                      let c' = Bitvec.copy c in
                      Bitvec.clear_range c' off sz;
                      List.iter (fun p -> Bitvec.set c' (off + p)) parts;
                      branches := c' :: !branches)
                    sub)
                groups;
              merge_on_var dom !branches v))

let complement t =
  Metrics.Registry.inc c_compl_calls;
  Metrics.span s_compl @@ fun () ->
  tallied ~nodes:c_compl_nodes (fun tally ->
      single_cube_containment { t with cubes = compl_fast tally t.dom t.cubes })

let complement_within t ~space =
  Metrics.Registry.inc c_compl_calls;
  Metrics.span s_compl @@ fun () ->
  tallied ~nodes:c_compl_nodes (fun tally ->
      let relative = cofactor t ~wrt:space in
      let comp = compl_fast tally t.dom relative.cubes in
      let cubes = List.filter_map (fun c -> Cube.inter t.dom c space) comp in
      single_cube_containment { t with cubes })

let diff a b =
  let within c =
    match List.filter (Cube.intersects a.dom c) b.cubes with
    | [] -> [ c ]
    | hits -> (complement_within { b with cubes = hits } ~space:c).cubes
  in
  { a with cubes = List.concat_map within a.cubes }

let supercube t =
  match t.cubes with
  | [] -> None
  | c :: rest -> Some (List.fold_left Cube.supercube c rest)

let contains_minterm t values =
  let m = Cube.of_minterm t.dom values in
  List.exists (fun c -> Cube.contains c m) t.cubes

let rec count_rec tally dom cubes space_size =
  match cubes with
  | [] -> 0
  | _ when List.exists Bitvec.is_full cubes -> space_size
  | _ -> (
      let st = node_stats dom cubes in
      match most_binate_of_stats dom st with
      | None -> space_size
      | Some v ->
          let sz = Domain.size dom v in
          let total = ref 0 in
          for p = 0 to sz - 1 do
            total :=
              !total + count_rec tally dom (cofactor_literal tally dom cubes v p) (space_size / sz)
          done;
          !total)

let num_minterms t =
  tallied (fun tally -> count_rec tally t.dom t.cubes (Domain.num_minterms t.dom))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun c -> Format.fprintf ppf "%a@," (Cube.pp t.dom) c) t.cubes;
  Format.fprintf ppf "@]"
