open Logic

type t = {
  machine : Fsm.t;
  dom : Domain.t;
  rows : Personality.row list;
  on : Cover.t;
  off : Cover.t;
  care : Cover.t;
  state_var : int;
  output_var : int;
}

let num_states t = Array.length t.machine.Fsm.states

(* Every row: inputs and the present state as the base, the 1-hot next
   state and the outputs as the output plane. *)
let rows (m : Fsm.t) dom =
  let ns = Array.length m.Fsm.states in
  let state_off = Domain.offset dom m.Fsm.num_inputs in
  List.map
    (fun (tr : Fsm.transition) ->
      let base = Personality.base dom tr.Fsm.input in
      Option.iter
        (fun s ->
          Bitvec.clear_range base state_off ns;
          Bitvec.set base (state_off + s))
        tr.Fsm.src;
      let next s = match tr.Fsm.dst with None -> '-' | Some d -> if d = s then '1' else '0' in
      Personality.row base (String.init ns next ^ tr.Fsm.output))
    m.Fsm.transitions

let of_fsm (m : Fsm.t) =
  let ni = m.Fsm.num_inputs and ns = Array.length m.Fsm.states in
  let dom = Domain.create (Array.append (Array.make ni 2) [| ns; ns + m.Fsm.num_outputs |]) in
  let rows = rows m dom in
  let { Personality.on; off; care } = Personality.sets dom rows in
  { machine = m; dom; rows; on; off; care; state_var = ni; output_var = ni + 1 }

let dc t = Personality.dc t.dom t.rows
let minimize ?budget t = Espresso.minimize_off ?budget ~off:t.off ~care:t.care t.on

let present_states t c =
  let ns = num_states t in
  let off = Domain.offset t.dom t.state_var in
  let b = Bitvec.create ns in
  for s = 0 to ns - 1 do
    if Bitvec.get c (off + s) then Bitvec.set b s
  done;
  b
