(* The seed's straight-line cover recursions, kept as the oracle for
   the randomized differential suites (test_espresso_differential,
   test_espresso_identity): the unate-aware kernel of [Logic.Cover]
   must agree with these on every generated cover. Slow and
   uninstrumented; it keeps its own copy of [complement_cube], which
   [Cover] does not export. *)

open Logic

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

let most_binate_var dom cubes =
  let n = Domain.num_vars dom in
  let best = ref (-1) and best_count = ref 0 in
  for v = 0 to n - 1 do
    let count =
      List.fold_left (fun acc c -> if Cube.var_full dom c v then acc else acc + 1) 0 cubes
    in
    if count > !best_count then begin
      best := v;
      best_count := count
    end
  done;
  if !best_count = 0 then None else Some !best

let cofactor_literal dom cubes v p =
  let off = Domain.offset dom v in
  let sz = Domain.size dom v in
  List.filter_map
    (fun c ->
      if Bitvec.get c (off + p) then begin
        let c' = Bitvec.copy c in
        Bitvec.set_range c' off sz;
        Some c'
      end
      else None)
    cubes

let rec taut_rec dom cubes =
  match cubes with
  | [] -> false
  | _ when List.exists Bitvec.is_full cubes -> true
  | _ -> (
      match most_binate_var dom cubes with
      | None -> false
      | Some v ->
          let sz = Domain.size dom v in
          let rec parts p =
            p = sz || (taut_rec dom (cofactor_literal dom cubes v p) && parts (p + 1))
          in
          parts 0)

let tautology (t : Cover.t) = taut_rec t.Cover.dom t.Cover.cubes

let merge_on_var dom cubes v =
  let off = Domain.offset dom v in
  let sz = Domain.size dom v in
  let tbl = Hashtbl.create 31 in
  List.iter
    (fun c ->
      let key = Bitvec.copy c in
      Bitvec.clear_range key off sz;
      let key = Bitvec.to_string key in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key (Bitvec.copy c)
      | Some existing -> Bitvec.union_into existing c)
    cubes;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []

let rec compl_rec dom cubes =
  match cubes with
  | [] -> [ Bitvec.full (Domain.width dom) ]
  | _ when List.exists Bitvec.is_full cubes -> []
  | [ c ] -> complement_cube dom c
  | _ -> (
      match most_binate_var dom cubes with
      | None -> []
      | Some v ->
          let sz = Domain.size dom v in
          let off = Domain.offset dom v in
          let branches = ref [] in
          for p = 0 to sz - 1 do
            let sub = compl_rec dom (cofactor_literal dom cubes v p) in
            List.iter
              (fun c ->
                let c' = Bitvec.copy c in
                Bitvec.clear_range c' off sz;
                Bitvec.set c' (off + p);
                branches := c' :: !branches)
              sub
          done;
          merge_on_var dom !branches v)

let complement (t : Cover.t) =
  Cover.single_cube_containment { t with Cover.cubes = compl_rec t.Cover.dom t.Cover.cubes }
