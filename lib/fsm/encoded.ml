open Logic

type t = {
  machine : Fsm.t;
  encoding : Encoding.t;
  dom : Domain.t;
  on : Cover.t;
  off : Cover.t;
  care : Cover.t;
}

(* Every row: inputs and present-state code bits as the base, the
   destination's code bits and the outputs as the output plane. *)
let rows (m : Fsm.t) (e : Encoding.t) dom =
  let ni = m.Fsm.num_inputs and nb = e.Encoding.nbits in
  List.map
    (fun (tr : Fsm.transition) ->
      let base = Personality.base dom tr.Fsm.input in
      Option.iter
        (fun s ->
          for b = 0 to nb - 1 do
            Bitvec.clear base (Domain.offset dom (ni + b) + 1 - Encoding.bit e s b)
          done)
        tr.Fsm.src;
      let next b =
        match tr.Fsm.dst with None -> '-' | Some s -> if Encoding.bit e s b = 1 then '1' else '0'
      in
      Personality.row base (String.init nb next ^ tr.Fsm.output))
    m.Fsm.transitions

let domain (m : Fsm.t) ~nbits =
  Domain.create
    (Array.append (Array.make (m.Fsm.num_inputs + nbits) 2) [| nbits + m.Fsm.num_outputs |])

let build (m : Fsm.t) (e : Encoding.t) =
  if Encoding.num_states e <> Array.length m.Fsm.states then
    invalid_arg "Encoded.build: encoding size mismatch";
  let dom = domain m ~nbits:e.Encoding.nbits in
  let { Personality.on; off; care } = Personality.sets dom (rows m e dom) in
  { machine = m; encoding = e; dom; on; off; care }

let dc t = Personality.dc t.dom (rows t.machine t.encoding t.dom)
let minimize ?budget t = Espresso.minimize_off ?budget ~off:t.off ~care:t.care t.on

let area ~machine ~encoding ~num_cubes =
  let ni = machine.Fsm.num_inputs and no = machine.Fsm.num_outputs in
  let nb = encoding.Encoding.nbits in
  ((2 * (ni + nb)) + nb + no) * num_cubes

type result = { cover : Cover.t; num_cubes : int; area : int }

let implement ?budget m e =
  let t = build m e in
  let cover = minimize ?budget t in
  let num_cubes = Cover.size cover in
  { cover; num_cubes; area = area ~machine:m ~encoding:e ~num_cubes }

let eval t cover ~input ~code =
  let m = t.machine in
  let ni = m.Fsm.num_inputs and no = m.Fsm.num_outputs in
  let nb = t.encoding.Encoding.nbits in
  if String.length input <> ni then invalid_arg "Encoded.eval: input width mismatch";
  let values = Array.make (ni + nb + 1) 0 in
  String.iteri
    (fun v ch ->
      match ch with
      | '0' -> values.(v) <- 0
      | '1' -> values.(v) <- 1
      | _ -> invalid_arg "Encoded.eval: input must be fully specified")
    input;
  for b = 0 to nb - 1 do
    values.(ni + b) <- (code lsr b) land 1
  done;
  (* The point with every output part: a cube meets it iff it contains
     the point, and then asserts its own output parts there. *)
  let point = Cube.of_minterm t.dom values in
  let off = Domain.offset t.dom (ni + nb) in
  Bitvec.set_range point off (nb + no);
  let asserted = Array.make (nb + no) false in
  List.iter
    (fun c ->
      if Cube.intersects t.dom c point then
        for p = 0 to nb + no - 1 do
          if Bitvec.get c (off + p) then asserted.(p) <- true
        done)
    cover.Cover.cubes;
  let next = ref 0 in
  for b = 0 to nb - 1 do
    if asserted.(b) then next := !next lor (1 lsl b)
  done;
  (!next, Array.sub asserted nb no)
