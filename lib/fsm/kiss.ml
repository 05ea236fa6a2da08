type error = { file : string; line : int; col : int; msg : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "%s:%d:%d: %s" e.file e.line e.col e.msg

(* ' ', '\t' and '\r' all separate: the latter so CRLF files parse
   instead of dying on an invisible trailing '\r'. *)
let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

(* 1-based column of the first occurrence of word [w] in [raw]; 0 when
   it cannot be located (after comment stripping, say). *)
let col_of raw w =
  let lw = String.length w and lr = String.length raw in
  let rec go i =
    if i + lw > lr then 0 else if String.sub raw i lw = w then i + 1 else go (i + 1)
  in
  if lw = 0 then 0 else go 0

let parse ~name ?(file = "<input>") text =
  let fail ?(line = 0) ?(col = 0) fmt =
    Printf.ksprintf (fun msg -> raise (Parse_error { file; line; col; msg })) fmt
  in
  let lines = String.split_on_char '\n' text in
  let num_inputs = ref None
  and num_outputs = ref None
  and declared_products = ref None
  and declared_states = ref None
  and reset_name = ref None in
  let states = ref [] (* reversed order of first appearance *)
  and state_ids = Hashtbl.create 17
  and rows = ref [] in
  let intern s =
    match Hashtbl.find_opt state_ids s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length state_ids in
        Hashtbl.add state_ids s i;
        states := s :: !states;
        i
  in
  List.iteri
    (fun i raw ->
      let line_no = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let fail_at ?word fmt =
        let col = match word with Some w -> col_of raw w | None -> 1 in
        fail ~line:line_no ~col fmt
      in
      let parse_int what w =
        match int_of_string_opt w with
        | Some i -> i
        | None -> fail_at ~word:w "bad %s count %S" what w
      in
      match split_words line with
      | [] -> ()
      | [ ((".i" | ".o" | ".p" | ".s" | ".r") as d) ] ->
          fail_at ~word:d "truncated %s directive: missing its argument" d
      | ".i" :: w :: _ -> num_inputs := Some (parse_int "input" w)
      | ".o" :: w :: _ -> num_outputs := Some (parse_int "output" w)
      | ".p" :: w :: _ -> declared_products := Some (parse_int "product" w)
      | ".s" :: w :: _ -> declared_states := Some (parse_int "state" w)
      | ".r" :: w :: _ -> (
          match !reset_name with
          | Some prev ->
              fail_at ~word:w "duplicate .r declaration (reset state already %S)" prev
          | None -> reset_name := Some w)
      | ".e" :: _ | ".end" :: _ -> ()
      (* Any other dot-directive ([.symbolic input], [.ilb], [.type], ...)
         is refused by name: read as a row it would either miscount its
         fields or, with exactly four words, pass for a transition. *)
      | d :: _ when d.[0] = '.' ->
          fail_at ~word:d "unsupported directive %s (this reader accepts .i .o .p .s .r .e)" d
      | [ input; present; next; output ] ->
          let src = if present = "*" then None else Some (intern present) in
          let dst = if next = "-" then None else Some (intern next) in
          rows := { Fsm.input; src; dst; output } :: !rows
      | ws ->
          fail_at ~word:(List.hd ws)
            "expected 4 fields (input present-state next-state output), got %d in %S"
            (List.length ws) (String.concat " " ws))
    lines;
  let num_inputs =
    match !num_inputs with Some i -> i | None -> fail "missing .i declaration"
  in
  let num_outputs =
    match !num_outputs with Some o -> o | None -> fail "missing .o declaration"
  in
  let rows = List.rev !rows in
  (match !declared_products with
  | Some p when p <> List.length rows ->
      fail ".p declares %d rows but %d were given" p (List.length rows)
  | Some _ | None -> ());
  (match !declared_states with
  | Some s when s <> Hashtbl.length state_ids ->
      fail ".s declares %d states but %d distinct names appear" s (Hashtbl.length state_ids)
  | Some _ | None -> ());
  let states = Array.of_list (List.rev !states) in
  if Array.length states = 0 then fail "no states in table";
  let reset =
    match !reset_name with
    | None -> None
    | Some r -> (
        match Hashtbl.find_opt state_ids r with
        | Some i -> Some i
        | None -> fail "reset state %S does not appear in the table" r)
  in
  try
    match reset with
    | Some r -> Fsm.create ~name ~num_inputs ~num_outputs ~states ~transitions:rows ~reset:r ()
    | None -> Fsm.create ~name ~num_inputs ~num_outputs ~states ~transitions:rows ()
  with Invalid_argument msg -> fail "%s" msg

let parse_result ~name ?file text =
  match parse ~name ?file text with
  | m -> Ok m
  | exception Parse_error e -> Error e

let print ppf (m : Fsm.t) =
  Format.fprintf ppf ".i %d@." m.Fsm.num_inputs;
  Format.fprintf ppf ".o %d@." m.Fsm.num_outputs;
  Format.fprintf ppf ".p %d@." (List.length m.Fsm.transitions);
  Format.fprintf ppf ".s %d@." (Array.length m.Fsm.states);
  (match m.Fsm.reset with
  | Some r -> Format.fprintf ppf ".r %s@." m.Fsm.states.(r)
  | None -> ());
  List.iter
    (fun tr ->
      let pres = match tr.Fsm.src with None -> "*" | Some s -> m.Fsm.states.(s) in
      let nxt = match tr.Fsm.dst with None -> "-" | Some s -> m.Fsm.states.(s) in
      Format.fprintf ppf "%s %s %s %s@." tr.Fsm.input pres nxt tr.Fsm.output)
    m.Fsm.transitions;
  Format.fprintf ppf ".e@."

let to_string m = Format.asprintf "%a" print m
