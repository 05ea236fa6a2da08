(* Prints the key set of every request record in the given files, one
   sorted comma-separated line per record: each line of a JSONL access
   log, each entry of a flight-recorder dump. CI checks that the daemon's
   two record sinks carry one record shape.

     record_keys FILE [FILE...]

   Exit 0 when every file parses, 1 otherwise, 2 on usage. *)

let keys = function
  | Json_min.Obj kvs -> String.concat "," (List.sort compare (List.map fst kvs))
  | _ -> failwith "a record is not a JSON object"

let lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* A flight dump is one document with an "entries" array; anything else
   is a log of one JSON object per line. *)
let records path =
  match Option.bind (Json_min.member "entries" (Json_min.of_file path)) Json_min.to_list with
  | Some entries -> entries
  | None | (exception Json_min.Parse_error _) -> List.map Json_min.of_string (lines path)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then begin
    prerr_endline "usage: record_keys FILE [FILE...]";
    exit 2
  end;
  List.iter
    (fun path ->
      match records path with
      | rs -> List.iter (fun r -> print_endline (keys r)) rs
      | exception (Json_min.Parse_error msg | Failure msg | Sys_error msg) ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 1)
    args
