let state_name s = Printf.sprintf "st%d" s

(* The generator models what real control FSMs look like: states share
   *behaviors*. A behavior tests a small subset of the inputs and reacts
   to each tested pattern by moving to a next state (mostly a "hub"
   drawn from a small pool) and asserting an output pattern drawn from a
   shared pool. States assigned the same behavior produce rows that
   multiple-valued minimization merges, which is exactly the state
   clustering NOVA's input constraints (and, through shared hub next
   states, symbolic minimization's covering relations) come from. *)
let generate ~name ~num_inputs ~num_outputs ~num_states ~num_rows ~seed =
  if num_states < 1 || num_rows < 1 then invalid_arg "Generator.generate";
  let rng = Random.State.make [| seed; num_inputs; num_outputs; num_states; num_rows |] in
  let ns = num_states in
  let avg_rows = max 1 (num_rows / ns) in
  let t_base = min (min 4 num_inputs) (Encoding.ceil_log2 avg_rows) in
  let pick_distinct k bound =
    let rec draw acc =
      if List.length acc = k then acc
      else
        let v = Random.State.int rng bound in
        if List.mem v acc then draw acc else draw (v :: acc)
    in
    List.sort compare (draw [])
  in
  (* A pool of hub next states and a pool of output patterns, shared by
     all behaviors so that distinct states react identically often. *)
  let num_hubs = max 2 (ns / 4) in
  let hubs = Array.of_list (pick_distinct (min num_hubs ns) ns) in
  let num_out_patterns = max 2 (min 8 ((ns / 2) + 1)) in
  let out_pool =
    Array.init num_out_patterns (fun _ ->
        String.init num_outputs (fun _ ->
            match Random.State.int rng 20 with
            | 0 -> '-'
            | x when x < 14 -> '0'
            | _ -> '1'))
  in
  let num_behaviors = max 3 (2 * ns / 5) in
  let behaviors =
    Array.init num_behaviors (fun _ ->
        let t =
          let delta = Random.State.int rng 3 - 1 in
          max 0 (min (min 4 num_inputs) (t_base + delta))
        in
        let vars = if num_inputs = 0 then [] else pick_distinct t num_inputs in
        let reactions =
          Array.init (1 lsl t) (fun _ ->
              let dst =
                if Random.State.int rng 10 < 7 then hubs.(Random.State.int rng (Array.length hubs))
                else Random.State.int rng ns
              in
              (dst, out_pool.(Random.State.int rng num_out_patterns)))
        in
        (vars, reactions))
  in
  let behavior_of_state = Array.init ns (fun _ -> Random.State.int rng num_behaviors) in
  let rows_of_state s =
    let vars, reactions = behaviors.(behavior_of_state.(s)) in
    let t = List.length vars in
    List.init (1 lsl t) (fun v ->
        let input =
          String.init num_inputs (fun i ->
              match List.find_index (fun x -> x = i) vars with
              | Some pos -> if v land (1 lsl pos) <> 0 then '1' else '0'
              | None -> '-')
        in
        let dst, output = reactions.(v) in
        { Fsm.input; src = Some s; dst = Some dst; output })
  in
  let all_rows = List.concat_map rows_of_state (List.init ns (fun s -> s)) in
  (* Trim a deterministic random subset when over target; the dropped
     (input, state) pairs become don't-cares. *)
  let total = List.length all_rows in
  let transitions =
    if total <= num_rows then all_rows
    else begin
      let arr = Array.of_list all_rows in
      let keep = Array.make total true in
      let dropped = ref 0 in
      while !dropped < total - num_rows do
        let i = Random.State.int rng total in
        if keep.(i) then begin
          keep.(i) <- false;
          incr dropped
        end
      done;
      List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)
    end
  in
  Fsm.create ~name ~num_inputs ~num_outputs
    ~states:(Array.init ns state_name)
    ~transitions ~reset:0 ()
