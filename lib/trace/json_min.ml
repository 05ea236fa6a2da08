(* A minimal dependency-free JSON reader for the repo's own artifacts:
   trace exports, BENCH_*.json files and the metrics snapshot. It
   accepts standard JSON (RFC 8259) with two liberties taken on
   purpose — non-ASCII bytes inside strings pass through verbatim (the
   writers emit raw UTF-8), and numbers are always floats. Objects keep
   their key order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { text : string; mutable pos : int }

let peek s = if s.pos < String.length s.text then Some s.text.[s.pos] else None

let advance s = s.pos <- s.pos + 1

let rec skip_ws s =
  match peek s with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance s;
      skip_ws s
  | _ -> ()

let expect s c =
  match peek s with
  | Some c' when c' = c -> advance s
  | Some c' -> error "expected %C at offset %d, found %C" c s.pos c'
  | None -> error "expected %C at offset %d, found end of input" c s.pos

let literal s word v =
  if
    s.pos + String.length word <= String.length s.text
    && String.sub s.text s.pos (String.length word) = word
  then begin
    s.pos <- s.pos + String.length word;
    v
  end
  else error "invalid literal at offset %d" s.pos

(* UTF-8 encode one scalar value (for \uXXXX escapes; surrogate pairs
   are combined, a lone surrogate becomes U+FFFD). *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 s =
  if s.pos + 4 > String.length s.text then error "truncated \\u escape at offset %d" s.pos;
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = s.text.[s.pos] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error "bad hex digit %C at offset %d" c s.pos
    in
    v := (!v * 16) + d;
    advance s
  done;
  !v

let parse_string s =
  expect s '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek s with
    | None -> error "unterminated string"
    | Some '"' -> advance s
    | Some '\\' ->
        advance s;
        (match peek s with
        | Some '"' -> Buffer.add_char b '"'; advance s
        | Some '\\' -> Buffer.add_char b '\\'; advance s
        | Some '/' -> Buffer.add_char b '/'; advance s
        | Some 'b' -> Buffer.add_char b '\b'; advance s
        | Some 'f' -> Buffer.add_char b '\012'; advance s
        | Some 'n' -> Buffer.add_char b '\n'; advance s
        | Some 'r' -> Buffer.add_char b '\r'; advance s
        | Some 't' -> Buffer.add_char b '\t'; advance s
        | Some 'u' ->
            advance s;
            let u = hex4 s in
            if u >= 0xd800 && u <= 0xdbff then begin
              (* High surrogate: consume the matching \uXXXX low half. *)
              if s.pos + 2 <= String.length s.text && s.text.[s.pos] = '\\'
                 && s.text.[s.pos + 1] = 'u'
              then begin
                s.pos <- s.pos + 2;
                let lo = hex4 s in
                if lo >= 0xdc00 && lo <= 0xdfff then
                  add_utf8 b (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
                else add_utf8 b 0xfffd
              end
              else add_utf8 b 0xfffd
            end
            else if u >= 0xdc00 && u <= 0xdfff then add_utf8 b 0xfffd
            else add_utf8 b u
        | Some c -> error "bad escape \\%C at offset %d" c s.pos
        | None -> error "truncated escape");
        loop ()
    | Some c ->
        advance s;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number s =
  let start = s.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek s with Some c when numchar c -> true | _ -> false) do
    advance s
  done;
  let lit = String.sub s.text start (s.pos - start) in
  match float_of_string_opt lit with
  | Some f -> Num f
  | None -> error "bad number %S at offset %d" lit start

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> error "unexpected end of input"
  | Some '{' ->
      advance s;
      skip_ws s;
      if peek s = Some '}' then begin
        advance s;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws s;
          let k = parse_string s in
          skip_ws s;
          expect s ':';
          let v = parse_value s in
          skip_ws s;
          match peek s with
          | Some ',' ->
              advance s;
              members ((k, v) :: acc)
          | Some '}' ->
              advance s;
              Obj (List.rev ((k, v) :: acc))
          | _ -> error "expected ',' or '}' at offset %d" s.pos
        in
        members []
      end
  | Some '[' ->
      advance s;
      skip_ws s;
      if peek s = Some ']' then begin
        advance s;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value s in
          skip_ws s;
          match peek s with
          | Some ',' ->
              advance s;
              elements (v :: acc)
          | Some ']' ->
              advance s;
              Arr (List.rev (v :: acc))
          | _ -> error "expected ',' or ']' at offset %d" s.pos
        in
        elements []
      end
  | Some '"' -> Str (parse_string s)
  | Some 't' -> literal s "true" (Bool true)
  | Some 'f' -> literal s "false" (Bool false)
  | Some 'n' -> literal s "null" Null
  | Some _ -> parse_number s

let of_string text =
  let s = { text; pos = 0 } in
  let v = parse_value s in
  skip_ws s;
  if s.pos <> String.length text then error "trailing garbage at offset %d" s.pos;
  v

let of_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string text

(* --- emitter ------------------------------------------------------------ *)

(* Compact one-line rendering, the write half of the newline-delimited
   protocols built on this reader (lib/serve). Round-trip property:
   [of_string (render v)] re-reads any [v] whose numbers are finite —
   non-finite floats have no JSON spelling and render as [null]. *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let quote_into b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

(* The shortest of %.15g and %.17g that reads back equal: %.17g always
   does for a finite double, %.15g keeps short decimals short. *)
let render_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let render v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (if Float.is_finite f then render_number f else "null")
    | Str s -> quote_into b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            quote_into b k;
            Buffer.add_char b ':';
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_list = function Arr l -> Some l | _ -> None
