open Logic

type t = {
  symbolic : Symbolic.t;
  final_cover : Cover.t;
  graph : (int * int * int) list;
  problem : Iohybrid.problem;
}

(* Restrict the output field of [c] to the parts in [keep] (a predicate on
   output parts); None if the restriction empties the field. *)
let restrict_output sym c keep =
  let dom = sym.Symbolic.dom in
  let off = Domain.offset dom sym.Symbolic.output_var in
  let sz = Domain.size dom sym.Symbolic.output_var in
  let c' = Bitvec.copy c in
  let any = ref false in
  for p = 0 to sz - 1 do
    if Bitvec.get c' (off + p) then
      if keep p then any := true else Bitvec.clear c' (off + p)
  done;
  if !any then Some c' else None

(* Projection of a cube onto inputs and present state: output field full. *)
let project_io sym c =
  let dom = sym.Symbolic.dom in
  let off = Domain.offset dom sym.Symbolic.output_var in
  let sz = Domain.size dom sym.Symbolic.output_var in
  let c' = Bitvec.copy c in
  Bitvec.set_range c' off sz;
  c'

type order = Largest_first | Smallest_first | Index_order

let run ?(order = Largest_first) ?budget ?cover (sym : Symbolic.t) =
  let dom = sym.Symbolic.dom in
  let ns = Symbolic.num_states sym in
  let out_off = Domain.offset dom sym.Symbolic.output_var in
  let is_binary_part p = p >= ns in
  (* The input cover C: disjoint minimization, split so that every cube
     asserts at most one next state. *)
  let c0 = match cover with Some c -> c | None -> Symbolic.minimize ?budget sym in
  let split_cube c =
    let next_parts =
      List.filter (fun i -> Bitvec.get c (out_off + i)) (List.init ns (fun i -> i))
    in
    match next_parts with
    | [] | [ _ ] -> [ c ]
    | parts ->
        List.filter_map
          (fun i -> restrict_output sym c (fun p -> is_binary_part p || p = i))
          parts
  in
  let c_cover = List.concat_map split_cube c0.Cover.cubes in
  (* On-sets per next state, binary outputs carried unchanged. *)
  let on_sets =
    Array.init ns (fun i ->
        List.filter (fun c -> Bitvec.get c (out_off + i)) c_cover
        |> List.filter_map (fun c -> restrict_output sym c (fun p -> is_binary_part p || p = i)))
  in
  (* Global off-set of the binary outputs: rows asserting a 0. *)
  let output_off =
    List.filter_map
      (fun (tr : Fsm.transition) ->
        let zeros = ref [] in
        String.iteri (fun j ch -> if ch = '0' then zeros := j :: !zeros) tr.Fsm.output;
        if !zeros = [] then None
        else begin
          (* Rebuild the row's input/state cube with the 0-columns. *)
          let c = Bitvec.full (Domain.width dom) in
          String.iteri
            (fun v ch ->
              match ch with
              | '0' -> Bitvec.clear c (Domain.offset dom v + 1)
              | '1' -> Bitvec.clear c (Domain.offset dom v + 0)
              | '-' -> ()
              | _ -> assert false)
            tr.Fsm.input;
          (match tr.Fsm.src with
          | None -> ()
          | Some s ->
              let soff = Domain.offset dom sym.Symbolic.state_var in
              Bitvec.clear_range c soff ns;
              Bitvec.set c (soff + s));
          let osz = Domain.size dom sym.Symbolic.output_var in
          Bitvec.clear_range c out_off osz;
          List.iter (fun j -> Bitvec.set c (out_off + ns + j)) !zeros;
          Some c
        end)
      sym.Symbolic.machine.Fsm.transitions
  in
  (* Reachability in the accepted covering graph: adj.(u) = states u covers. *)
  let adj = Array.make ns [] in
  let reachable u v =
    let seen = Array.make ns false in
    let rec dfs x =
      x = v
      || (not seen.(x))
         && begin
              seen.(x) <- true;
              List.exists dfs adj.(x)
            end
    in
    seen.(u) <- true;
    List.exists dfs adj.(u)
  in
  let graph = ref [] in
  let p_cover = ref [] in
  let selection =
    let indices = List.init ns (fun i -> i) in
    match order with
    | Largest_first ->
        List.sort (fun a b -> compare (List.length on_sets.(b)) (List.length on_sets.(a))) indices
    | Smallest_first ->
        List.sort (fun a b -> compare (List.length on_sets.(a)) (List.length on_sets.(b))) indices
    | Index_order -> indices
  in
  List.iter
    (fun i ->
      let on_i = on_sets.(i) in
      if on_i = [] then ()
      else begin
        let dc_states =
          List.filter (fun j -> j <> i && not (reachable i j)) (List.init ns (fun j -> j))
        in
        let off_states =
          List.filter (fun j -> j <> i && reachable i j) (List.init ns (fun j -> j))
        in
        (* Column i must be 0 over the on-sets of states i covers. *)
        let off_i =
          List.concat_map
            (fun j ->
              List.filter_map (fun c -> restrict_output sym (project_io sym c) (fun p -> p = i)) on_sets.(j))
            off_states
        in
        let on = Cover.make dom on_i in
        let off = Cover.make dom (off_i @ output_off) in
        let mb_i = Espresso.minimize_care ?budget ~off on in
        let m_i = List.filter (fun c -> Bitvec.get c (out_off + i)) mb_i.Cover.cubes in
        if List.length m_i < List.length on_i then begin
          let w_i = List.length on_i - List.length m_i in
          (* Edges (j, i): j's code covers i's wherever M_i spilled into On_j. *)
          let spilled =
            List.filter
              (fun j ->
                List.exists
                  (fun mc ->
                    List.exists
                      (fun oc -> Cube.intersects dom (project_io sym mc) (project_io sym oc))
                      on_sets.(j))
                  m_i)
              dc_states
          in
          List.iter (fun j -> adj.(j) <- i :: adj.(j)) spilled;
          graph := List.map (fun j -> (j, i, w_i)) spilled @ !graph;
          p_cover := mb_i.Cover.cubes @ !p_cover
        end
        else p_cover := on_i @ !p_cover
      end)
    selection;
  let final_cover = Cover.single_cube_containment (Cover.make dom !p_cover) in
  (* Companion input constraints, clustered by next state. *)
  let group_of c =
    let g = Symbolic.present_states sym c in
    let card = Bitvec.cardinal g in
    if card >= 2 && card < ns then Some g else None
  in
  let companion_of i =
    List.filter_map
      (fun c -> if Bitvec.get c (out_off + i) then group_of c else None)
      final_cover.Cover.cubes
  in
  let cluster_weights = Array.make ns 0 in
  let cluster_edges = Array.make ns [] in
  List.iter
    (fun (u, v, w) ->
      cluster_weights.(v) <- w;
      cluster_edges.(v) <- { Constraints.covering = u; covered = v } :: cluster_edges.(v))
    !graph;
  let clusters =
    List.filter_map
      (fun i ->
        if cluster_edges.(i) = [] then None
        else
          Some
            {
              Constraints.next_state = i;
              edges = cluster_edges.(i);
              oc_weight = cluster_weights.(i);
              companion = companion_of i;
            })
      (List.init ns (fun i -> i))
  in
  (* All weighted input constraints of the final cover. *)
  let ic_tbl = Hashtbl.create 17 in
  List.iter
    (fun c ->
      match group_of c with
      | None -> ()
      | Some g ->
          let key = Bitvec.to_string g in
          let prev =
            match Hashtbl.find_opt ic_tbl key with
            | Some (ic : Constraints.input_constraint) -> ic.Constraints.weight
            | None -> 0
          in
          Hashtbl.replace ic_tbl key { Constraints.states = g; weight = prev + 1 })
    final_cover.Cover.cubes;
  let ics = Hashtbl.fold (fun _ ic acc -> ic :: acc) ic_tbl [] in
  {
    symbolic = sym;
    final_cover;
    graph = !graph;
    problem = { Iohybrid.num_states = ns; ics; clusters };
  }

let upper_bound t = Cover.size t.final_cover
