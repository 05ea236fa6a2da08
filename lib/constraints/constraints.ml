open Logic

type input_constraint = { states : Bitvec.t; weight : int }

let face_of_states (e : Encoding.t) states =
  match Bitvec.first_set states with
  | None -> invalid_arg "Constraints.face_of_states: empty constraint"
  | Some first ->
      let conj = ref (Encoding.code e first) and disj = ref (Encoding.code e first) in
      Bitvec.iter
        (fun s ->
          conj := !conj land Encoding.code e s;
          disj := !disj lor Encoding.code e s)
        states;
      (* A bit is specified where every code agrees. *)
      let all = (1 lsl e.Encoding.nbits) - 1 in
      let mask = all land lnot (!conj lxor !disj) in
      (mask, !conj land mask)

let satisfied (e : Encoding.t) states =
  let mask, value = face_of_states e states in
  let n = Encoding.num_states e in
  let ok = ref true in
  for s = 0 to n - 1 do
    if (not (Bitvec.get states s)) && Encoding.code e s land mask = value then ok := false
  done;
  !ok

let satisfied_weight e ics =
  List.fold_left (fun acc ic -> if satisfied e ic.states then acc + ic.weight else acc) 0 ics

let num_satisfied e ics =
  List.fold_left (fun acc ic -> if satisfied e ic.states then acc + 1 else acc) 0 ics

let group sym c =
  let g = Symbolic.present_states sym c in
  let card = Bitvec.cardinal g in
  if card >= 2 && card < Symbolic.num_states sym then Some g else None

let tally sym (cover : Cover.t) =
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun c ->
      match group sym c with
      | None -> ()
      | Some g -> (
          let key = Bitvec.to_string g in
          match Hashtbl.find_opt tbl key with
          | Some ic -> Hashtbl.replace tbl key { ic with weight = ic.weight + 1 }
          | None -> Hashtbl.add tbl key { states = g; weight = 1 }))
    cover.Cover.cubes;
  Hashtbl.fold (fun _ ic acc -> ic :: acc) tbl []

let of_cover sym cover =
  tally sym cover
  |> List.sort (fun a b ->
         let c = compare b.weight a.weight in
         if c <> 0 then c else Bitvec.compare a.states b.states)

let of_symbolic ?budget sym = of_cover sym (Symbolic.minimize ?budget sym)

type output_constraint = { covering : int; covered : int }

let oc_satisfied (e : Encoding.t) oc =
  let cu = Encoding.code e oc.covering and cv = Encoding.code e oc.covered in
  cu lor cv = cu && cu <> cv

type oc_cluster = {
  next_state : int;
  edges : output_constraint list;
  oc_weight : int;
  companion : Bitvec.t list;
}

let cluster_satisfied e cl = List.for_all (oc_satisfied e) cl.edges
