let out_encoder ~num_states ?max_bits ?(budget = Budget.create ()) ocs =
  let min_len = Encoding.min_code_length num_states in
  let bit_budget = max (Option.value max_bits ~default:(max num_states min_len)) min_len in
  (* The free-code scans range over up to [2^bit_budget] candidates:
     poll the budget periodically so a deadline interrupts them. *)
  let check_budget c =
    if c land 1023 = 0 && Budget.exhausted budget then
      raise (Budget.Out_of_budget (Option.value (Budget.reason budget) ~default:Budget.Work))
  in
  (* covers.(u) = states u must cover bitwise. *)
  let covers = Array.make num_states [] in
  List.iter
    (fun (oc : Constraints.output_constraint) ->
      covers.(oc.Constraints.covering) <- oc.Constraints.covered :: covers.(oc.Constraints.covering))
    ocs;
  (* Topological order, covered states first. *)
  let mark = Array.make num_states 0 in
  let order = ref [] in
  let rec visit s =
    if mark.(s) = 1 then invalid_arg "Out_encoder: covering relations form a cycle";
    if mark.(s) = 0 then begin
      mark.(s) <- 1;
      List.iter visit covers.(s);
      mark.(s) <- 2;
      order := s :: !order
    end
  in
  for s = 0 to num_states - 1 do
    visit s
  done;
  let order = List.rev !order in
  let codes = Array.make num_states (-1) in
  let used = Hashtbl.create num_states in
  let next_bit = ref 0 in
  List.iter
    (fun s ->
      let base = List.fold_left (fun acc v -> acc lor codes.(v)) 0 covers.(s) in
      (* Distinguish from taken codes and from the covered states' own
         codes (covering must be strict) while staying within budget:
         prefer the OR of the covered codes, then single fresh bits, then
         any free code above the base. *)
      let distinct code =
        (not (Hashtbl.mem used code)) && List.for_all (fun v -> code <> codes.(v)) covers.(s)
      in
      let rec fresh_bits () =
        if !next_bit >= bit_budget then None
        else begin
          let b = !next_bit in
          incr next_bit;
          let code = base lor (1 lsl b) in
          if distinct code then Some code else fresh_bits ()
        end
      in
      let scan_free () =
        (* Any distinct code covering base within the budget. *)
        let limit = 1 lsl bit_budget in
        let rec scan c =
          check_budget c;
          if c >= limit then None
          else if c land base = base && distinct c then Some c
          else scan (c + 1)
        in
        scan base
      in
      let code =
        if distinct base then Some base
        else
          match fresh_bits () with
          | Some c -> Some c
          | None -> scan_free ()
      in
      let code =
        match code with
        | Some c -> c
        | None -> (
            (* Bit budget exhausted: give up on this state's covering
               edges and take any free code at all. *)
            let limit = 1 lsl bit_budget in
            let rec scan c =
              check_budget c;
              if c >= limit then invalid_arg "Out_encoder: no free codes within budget"
              else if not (Hashtbl.mem used c) then c
              else scan (c + 1)
            in
            scan 0)
      in
      codes.(s) <- code;
      Hashtbl.replace used code s)
    order;
  let nbits =
    Array.fold_left
      (fun acc c ->
        let rec width w = if c lsr w = 0 then max w 1 else width (w + 1) in
        max acc (width 1))
      1 codes
  in
  Encoding.make ~nbits codes
