let by_weight_desc (a : Constraints.input_constraint) (b : Constraints.input_constraint) =
  let c = compare b.Constraints.weight a.Constraints.weight in
  if c <> 0 then c else Bitvec.compare a.Constraints.states b.Constraints.states

let states ics = List.map (fun (ic : Constraints.input_constraint) -> ic.Constraints.states) ics

let split encoding ics =
  List.partition
    (fun (ic : Constraints.input_constraint) -> Constraints.satisfied encoding ic.Constraints.states)
    ics

let start ~num_states ~nbits = function
  | Some codes -> (false, codes)
  | None ->
      let rng = Random.State.make [| 0; num_states |] in
      (true, (Encoding.random rng ~num_states ~nbits).Encoding.codes)

let raise_codes codes nbits group =
  Array.mapi
    (fun s c -> if Bitvec.get group s then c lor (1 lsl nbits) else c)
    codes

let all_satisfied encoding ics =
  List.for_all (fun (ic : Constraints.input_constraint) -> Constraints.satisfied encoding ic.Constraints.states) ics

let project ~codes ~nbits ~sic ~ric =
  match List.sort by_weight_desc ric with
  | [] -> invalid_arg "Project.project: no unsatisfied constraint"
  | target :: rest ->
      let n = Array.length codes in
      let encoding_of group = Encoding.make ~nbits:(nbits + 1) (raise_codes codes nbits group) in
      (* The guaranteed raise set (Proposition 4.2.1). *)
      let best = ref target.Constraints.states in
      let accepted = ref [ target ] in
      (* Greedily absorb more unsatisfied constraints when direct
         verification confirms nothing breaks. *)
      List.iter
        (fun (ic : Constraints.input_constraint) ->
          let candidate = Bitvec.union !best ic.Constraints.states in
          let e = encoding_of candidate in
          if all_satisfied e sic && all_satisfied e (ic :: !accepted) then begin
            best := candidate;
            accepted := ic :: !accepted
          end)
        rest;
      let codes' = raise_codes codes nbits !best in
      let e = Encoding.make ~nbits:(nbits + 1) codes' in
      assert (n = Encoding.num_states e);
      let newly, still = split e ric in
      (codes', newly, still)

type state = {
  codes : int array;
  nbits : int;
  sic : Constraints.input_constraint list;
  ric : Constraints.input_constraint list;
}

let rec extend ~budget ~upto s =
  if s.ric = [] || s.nbits >= upto || Budget.exhausted budget then s
  else
    let codes, newly, still = project ~codes:s.codes ~nbits:s.nbits ~sic:s.sic ~ric:s.ric in
    extend ~budget ~upto { codes; nbits = s.nbits + 1; sic = newly @ s.sic; ric = still }
