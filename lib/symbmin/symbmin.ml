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
  (* Global off-set of the binary outputs: each row's 0 outputs. *)
  let output_off = (Personality.zeros dom sym.Symbolic.rows is_binary_part).Cover.cubes in
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
  let companion_of i =
    List.filter_map
      (fun c -> if Bitvec.get c (out_off + i) then Constraints.group sym c else None)
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
  {
    symbolic = sym;
    final_cover;
    graph = !graph;
    (* All weighted input constraints of the final cover, in tally
       order: iohybrid breaks weight ties by it. *)
    problem = { Iohybrid.num_states = ns; ics = Constraints.tally sym final_cover; clusters };
  }

let upper_bound t = Cover.size t.final_cover
