type element = {
  id : int;
  states : Bitvec.t;
  card : int;
  fathers : int list;
  children : int list;
  category : int;
}

type t = { num_states : int; elements : element array; universe : int }

let build ~num_states ics =
  (* Close under pairwise intersection, semi-naive: every set met with
     every set known before it, once, when it is taken off the worklist.
     A pair is met when the later of its two sets is taken, so the
     closure is complete; the sort below makes the element order
     independent of the discovery order. *)
  let seen = Bitvec.Tbl.create 61 in
  let known = ref [] and work = Queue.create () in
  let add b =
    if not (Bitvec.is_empty b || Bitvec.Tbl.mem seen b) then begin
      Bitvec.Tbl.add seen b ();
      Queue.add b work
    end
  in
  add (Bitvec.full num_states);
  for s = 0 to num_states - 1 do
    add (Bitvec.of_list num_states [ s ])
  done;
  List.iter add ics;
  while not (Queue.is_empty work) do
    let a = Queue.pop work in
    List.iter (fun b -> add (Bitvec.inter a b)) !known;
    known := a :: !known
  done;
  let sets =
    !known
    |> List.sort (fun a b ->
           let c = compare (Bitvec.cardinal b) (Bitvec.cardinal a) in
           if c <> 0 then c else Bitvec.compare a b)
    |> Array.of_list
  in
  let m = Array.length sets in
  let strictly_contains a b = Bitvec.subset b a && not (Bitvec.equal a b) in
  let fathers = Array.make m [] and children = Array.make m [] in
  for i = 0 to m - 1 do
    (* Supersets come before i in the cardinality-sorted array. *)
    let supers = ref [] in
    for j = 0 to i - 1 do
      if strictly_contains sets.(j) sets.(i) then supers := j :: !supers
    done;
    let minimal j =
      not (List.exists (fun j' -> j' <> j && strictly_contains sets.(j) sets.(j')) !supers)
    in
    let fs = List.filter minimal !supers in
    fathers.(i) <- fs;
    List.iter (fun j -> children.(j) <- i :: children.(j)) fs
  done;
  let universe = 0 in
  assert (Bitvec.is_full sets.(universe));
  let elements =
    Array.init m (fun i ->
        let category =
          if i = universe then 0
          else
            match fathers.(i) with
            | [ f ] -> if f = universe then 1 else 3
            | _ :: _ :: _ -> 2
            | [] -> assert false (* every non-universe set is below the universe *)
        in
        {
          id = i;
          states = sets.(i);
          card = Bitvec.cardinal sets.(i);
          fathers = fathers.(i);
          children = children.(i);
          category;
        })
  in
  { num_states; elements; universe }

let find t states =
  let m = Array.length t.elements in
  let rec loop i =
    if i = m then None
    else if Bitvec.equal t.elements.(i).states states then Some i
    else loop (i + 1)
  in
  loop 0

let min_level e = Encoding.ceil_log2 e.card

let share_children a b = List.exists (fun c -> List.mem c b.children) a.children

(* --- Lower bounds on the embedding dimension (Section 3.3.2) ---------- *)

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

(* Condition 1: enough faces of each cardinality class. *)
let count_cond1 t k0 =
  let max_level = Hashtbl.create 7 in
  Array.iter
    (fun e ->
      if e.id <> t.universe then
        let l = min_level e in
        Hashtbl.replace max_level l (1 + Option.value ~default:0 (Hashtbl.find_opt max_level l)))
    t.elements;
  let fits k =
    Hashtbl.fold
      (fun l need ok ->
        ok && k >= l && need <= binomial k l * (1 lsl (k - l)))
      max_level true
  in
  let rec grow k = if fits k then k else grow (k + 1) in
  grow k0

(* Condition 2: a face of level l has k - l minimal including faces; a
   constraint at its minimum level needs one per father. *)
let count_cond2 t k0 =
  Array.fold_left
    (fun k e ->
      if e.id = t.universe then k else max k (min_level e + List.length e.fathers))
    k0 t.elements

(* Condition 3: virtual states of uneven constraints must fit in the
   unused vertices, assuming the densest packing (at most [k] uneven
   constraints can share one virtual state). *)
let count_cond3 t k0 =
  let n = t.num_states in
  let uneven =
    Array.to_list t.elements
    |> List.filter_map (fun e ->
           if e.id = t.universe || e.card < 2 then None
           else
             let v = (1 lsl min_level e) - e.card in
             if v > 0 then Some v else None)
  in
  if uneven = [] then k0
  else begin
    let rec try_dim k =
      if k >= n then k
      else begin
        (* Rounds of the densest packing: each round identifies one fresh
           virtual state shared by up to [k] uneven constraints. *)
        let vrt = List.sort compare uneven in
        let rec rounds vrt count =
          if List.for_all (fun v -> v = 0) vrt then count
          else
            let vrt = List.sort compare vrt in
            let remaining = ref k in
            let vrt =
              List.map
                (fun v ->
                  if v > 0 && !remaining > 0 then begin
                    decr remaining;
                    v - 1
                  end
                  else v)
                vrt
            in
            rounds vrt (count + 1)
        in
        let iter_count = rounds vrt 0 in
        if (1 lsl k) - n >= iter_count then k else try_dim (k + 1)
      end
    in
    try_dim k0
  end

let mincube_dim t =
  let k0 = Encoding.min_code_length t.num_states in
  count_cond3 t (count_cond2 t (count_cond1 t k0))
