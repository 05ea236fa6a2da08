type t = { fd : Unix.file_descr; reader : Line_io.reader }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; reader = Line_io.reader fd }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

let send t s =
  match Line_io.write_all t.fd s with
  | _ -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Printf.sprintf "write: %s" (Unix.error_message e))

let read_line t =
  match Line_io.read_line t.reader with
  | Ok line -> Ok line
  | Error Line_io.Eof -> Error "server closed the connection"
  | Error Line_io.Too_long ->
      Error (Printf.sprintf "response line exceeds %d bytes" Protocol.max_line_bytes)
  | Error (Line_io.Failed e) -> Error (Printf.sprintf "read: %s" (Unix.error_message e))

let request_raw t line =
  let line =
    if String.length line > 0 && line.[String.length line - 1] = '\n' then line else line ^ "\n"
  in
  match send t line with Error m -> Error m | Ok () -> read_line t

let request t line =
  match request_raw t line with
  | Error m -> Error m
  | Ok response -> Protocol.parse_reply response
