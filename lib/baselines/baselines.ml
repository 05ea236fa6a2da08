let kiss_encode ~num_states ?max_work ics =
  (* Room for projection up to one dimension per constraint guarantees
     full satisfaction (Proposition 4.2.1). *)
  let nbits_cap =
    min 60 (Ihybrid.min_code_length num_states + max 1 (List.length ics))
  in
  (* A fresh root of its own: the shared [Budget.unlimited] would be
     ticked by every pool domain at once. *)
  let budget = Budget.create () in
  let r =
    match max_work with
    | Some w -> Ihybrid.ihybrid_code ~num_states ~nbits:nbits_cap ~max_work:w ~budget ics
    | None -> Ihybrid.ihybrid_code ~num_states ~nbits:nbits_cap ~budget ics
  in
  r.Ihybrid.encoding

type mustang_flavor = Fanout | Fanin

(* Number of shared fully-specified input patterns of two input cubes:
   the product over positions of the overlap. *)
let input_overlap a b =
  let n = String.length a in
  let rec loop i acc =
    if i = n then acc
    else
      match (a.[i], b.[i]) with
      | '-', '-' -> loop (i + 1) (acc * 2)
      | '-', _ | _, '-' -> loop (i + 1) acc
      | ca, cb -> if ca = cb then loop (i + 1) acc else 0
  in
  loop 0 1

let mustang_attractions (m : Fsm.t) ~flavor ~include_outputs =
  let ns = Array.length m.Fsm.states in
  let w = Array.make_matrix ns ns 0 in
  let add u v x =
    if u <> v && x > 0 then begin
      w.(u).(v) <- w.(u).(v) + x;
      w.(v).(u) <- w.(v).(u) + x
    end
  in
  let rows = Array.of_list m.Fsm.transitions in
  let nrows = Array.length rows in
  let nb = Ihybrid.min_code_length ns in
  for i = 0 to nrows - 1 do
    for j = i + 1 to nrows - 1 do
      let a = rows.(i) and b = rows.(j) in
      match (a.Fsm.src, b.Fsm.src, a.Fsm.dst, b.Fsm.dst) with
      | Some sa, Some sb, Some da, Some db ->
          (match flavor with
          | Fanout ->
              (* Present states behaving alike want close codes. *)
              if sa <> sb then begin
                let overlap = input_overlap a.Fsm.input b.Fsm.input in
                if overlap > 0 then begin
                  if da = db then add sa sb nb;
                  if include_outputs then begin
                    let common = ref 0 in
                    String.iteri
                      (fun o ch -> if ch = '1' && b.Fsm.output.[o] = '1' then incr common)
                      a.Fsm.output;
                    add sa sb !common
                  end
                end
              end
          | Fanin ->
              (* Next states reached from a common present state (or on
                 agreeing outputs) want close codes. *)
              if da <> db then begin
                if sa = sb then add da db nb;
                if include_outputs then begin
                  let common = ref 0 in
                  String.iteri
                    (fun o ch -> if ch = '1' && b.Fsm.output.[o] = '1' then incr common)
                    a.Fsm.output;
                  add da db !common
                end
              end)
      | _, _, _, _ -> ()
    done
  done;
  w

let popcount n0 =
  let rec loop n acc = if n = 0 then acc else loop (n land (n - 1)) (acc + 1) in
  loop n0 0

let mustang_encode (m : Fsm.t) ~flavor ~include_outputs ~nbits =
  let ns = Array.length m.Fsm.states in
  if ns > 1 lsl nbits then invalid_arg "Baselines.mustang_encode: code length too small";
  let w = mustang_attractions m ~flavor ~include_outputs in
  let codes = Array.make ns (-1) in
  let used = Hashtbl.create ns in
  let assigned = ref [] in
  (* Seed: the state with the largest total attraction gets code 0. *)
  let total s = Array.fold_left ( + ) 0 w.(s) in
  let first = ref 0 in
  for s = 1 to ns - 1 do
    if total s > total !first then first := s
  done;
  codes.(!first) <- 0;
  Hashtbl.replace used 0 ();
  assigned := [ !first ];
  for _ = 2 to ns do
    (* Next: unassigned state with the strongest tie to the assigned set. *)
    let best_s = ref (-1) and best_w = ref (-1) in
    for s = 0 to ns - 1 do
      if codes.(s) < 0 then begin
        let tie = List.fold_left (fun acc t -> acc + w.(s).(t)) 0 !assigned in
        if tie > !best_w then begin
          best_w := tie;
          best_s := s
        end
      end
    done;
    let s = !best_s in
    (* Choose the free code minimizing the weighted Hamming distance. *)
    let best_c = ref (-1) and best_cost = ref max_int in
    for c = 0 to (1 lsl nbits) - 1 do
      if not (Hashtbl.mem used c) then begin
        let cost =
          List.fold_left (fun acc t -> acc + (w.(s).(t) * popcount (c lxor codes.(t)))) 0 !assigned
        in
        if cost < !best_cost then begin
          best_cost := cost;
          best_c := c
        end
      end
    done;
    codes.(s) <- !best_c;
    Hashtbl.replace used !best_c ();
    assigned := s :: !assigned
  done;
  Encoding.make ~nbits codes
