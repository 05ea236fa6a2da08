type transition = {
  input : string;
  src : int option;
  dst : int option;
  output : string;
}

type t = {
  name : string;
  num_inputs : int;
  num_outputs : int;
  states : string array;
  transitions : transition list;
  reset : int option;
}

let check_pattern what width s =
  if String.length s <> width then
    invalid_arg (Printf.sprintf "Fsm.create: %s pattern %S must have width %d" what s width);
  String.iter
    (fun c ->
      match c with
      | '0' | '1' | '-' -> ()
      | _ -> invalid_arg (Printf.sprintf "Fsm.create: bad character %C in %s pattern %S" c what s))
    s

let create ~name ~num_inputs ~num_outputs ~states ~transitions ?reset () =
  if num_inputs < 0 || num_outputs < 0 then invalid_arg "Fsm.create: negative field width";
  if Array.length states = 0 then invalid_arg "Fsm.create: a machine needs at least one state";
  let n = Array.length states in
  let check_state what = function
    | None -> ()
    | Some s ->
        if s < 0 || s >= n then
          invalid_arg (Printf.sprintf "Fsm.create: %s state index %d out of range" what s)
  in
  List.iter
    (fun tr ->
      check_pattern "input" num_inputs tr.input;
      check_pattern "output" num_outputs tr.output;
      check_state "present" tr.src;
      check_state "next" tr.dst)
    transitions;
  check_state "reset" reset;
  let seen = Hashtbl.create n in
  Array.iter
    (fun s ->
      if Hashtbl.mem seen s then invalid_arg (Printf.sprintf "Fsm.create: duplicate state name %S" s);
      Hashtbl.add seen s ())
    states;
  { name; num_inputs; num_outputs; states = Array.copy states; transitions; reset }

let num_states ~m = Array.length m.states

let state_index m name =
  let n = Array.length m.states in
  let rec loop i = if i = n then None else if m.states.(i) = name then Some i else loop (i + 1) in
  loop 0

let min_code_length m = Encoding.min_code_length (Array.length m.states)

type stats = {
  stat_name : string;
  stat_inputs : int;
  stat_outputs : int;
  stat_states : int;
  stat_products : int;
}

let stats m =
  {
    stat_name = m.name;
    stat_inputs = m.num_inputs;
    stat_outputs = m.num_outputs;
    stat_states = Array.length m.states;
    stat_products = List.length m.transitions;
  }

let input_matches pattern input =
  String.length pattern = String.length input
  &&
  let ok = ref true in
  String.iteri
    (fun i c -> match c with '-' -> () | _ -> if c <> input.[i] then ok := false)
    pattern;
  !ok

let next m ~input ~src =
  if String.length input <> m.num_inputs then invalid_arg "Fsm.next: input width mismatch";
  let matches tr =
    (match tr.src with None -> true | Some s -> s = src) && input_matches tr.input input
  in
  match List.find_opt matches m.transitions with
  | None -> None
  | Some tr -> Some (tr.dst, tr.output)

let pp ppf m =
  Format.fprintf ppf "@[<v>fsm %s: %d inputs, %d outputs, %d states, %d rows@]" m.name
    m.num_inputs m.num_outputs (Array.length m.states) (List.length m.transitions)
