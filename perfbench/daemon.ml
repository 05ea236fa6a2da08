(* A private [nova serve] child: spawned on its own socket and cache
   directory, driven over the real protocol, stopped with the shutdown
   verb and then checked for hygiene. *)

type t = { pid : int; socket : string; cache_dir : string }

(* Children not yet reaped; killed on any exit, so an interrupted
   benchmark never leaves a daemon behind. *)
let live : int list ref = ref []

let kill pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ());
    live := List.filter (( <> ) pid) !live
  end

let reap_all () = List.iter kill !live

let () = at_exit reap_all

let spawn ~nova ~socket ~cache_dir =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| nova; "serve"; "--socket"; socket; "--cache"; cache_dir; "--max-inflight"; "2"; "--quiet" |]
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process nova argv null null Unix.stderr)
  in
  live := pid :: !live;
  { pid; socket; cache_dir }

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> None
  | _, status ->
      live := List.filter (( <> ) t.pid) !live;
      Some status

let request conn line =
  match Serve.Client.request conn line with
  | Ok r when r.Serve.Protocol.ok -> Ok r
  | Ok r -> Error (Option.value r.Serve.Protocol.error ~default:"error reply")
  | Error e -> Error e

(* Connect and ping, retrying while the daemon binds its socket. *)
let connect t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match exited t with
    | Some _ -> Error "daemon exited during start-up"
    | None -> (
        match Serve.Client.connect t.socket with
        | Ok c -> (
            match request c (Serve.Protocol.verb_line "ping") with
            | Ok _ -> Ok c
            | Error e ->
                Serve.Client.close c;
                Error ("ping: " ^ e))
        | Error e ->
            if Unix.gettimeofday () > deadline then Error e
            else begin
              Unix.sleepf 0.002;
              go ()
            end)
  in
  go ()

(* --- the metrics verb ----------------------------------------------------- *)

(* Counter totals and histogram sums, by name and label set, from the
   JSON snapshot of the [metrics] verb. *)
type series = (string * (string * string) list * float) list

type scrape = { counters : series; histograms : series }

let labels_of j =
  match Json_min.member "labels" j with
  | Some (Json_min.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json_min.to_string v)) kvs
  | _ -> []

let field name j = Option.value (Option.bind (Json_min.member name j) Json_min.to_float) ~default:0.

let scrape conn =
  match request conn (Serve.Protocol.verb_line "metrics") with
  | Error e -> Error e
  | Ok r -> (
      match Json_min.member "metrics" r.Serve.Protocol.raw with
      | None -> Error "metrics reply without a snapshot"
      | Some snap ->
          let items key =
            Option.value (Option.bind (Json_min.member key snap) Json_min.to_list) ~default:[]
          in
          let name j = Option.value (Option.bind (Json_min.member "name" j) Json_min.to_string) ~default:"" in
          Ok
            {
              counters = List.map (fun j -> (name j, labels_of j, field "value" j)) (items "counters");
              histograms =
                List.map (fun j -> (name j, labels_of j, field "sum" j)) (items "histograms");
            })

let matches want labels = List.for_all (fun kv -> List.mem kv labels) want

let total (series : series) ?(labels = []) name =
  List.fold_left
    (fun acc (n, l, v) -> if n = name && matches labels l then acc +. v else acc)
    0. series

let counter s = total s.counters
let hist_sum s = total s.histograms

(* --- memory and shutdown -------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> float_of_int kb /. 1024.
          | exception _ -> acc)
        0. (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.

let wait_exit t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match exited t with
    | Some status -> Some status
    | None ->
        if Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf 0.005;
          go ()
        end
  in
  go ()

(* Stop the daemon with the shutdown verb and return every hygiene
   failure: a nonzero exit, a socket file left behind, or a cache that
   fsck has to repair. *)
let shutdown t conn =
  let sent = request conn (Serve.Protocol.verb_line "shutdown") in
  Serve.Client.close conn;
  let exit_failure =
    match (sent, wait_exit t ~timeout_s:20.) with
    | Error e, _ -> [ "shutdown verb: " ^ e ]
    | Ok _, Some (Unix.WEXITED 0) -> []
    | Ok _, Some (Unix.WEXITED n) -> [ Printf.sprintf "daemon exited with code %d" n ]
    | Ok _, Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        [ Printf.sprintf "daemon stopped by signal %d" n ]
    | Ok _, None -> [ "daemon still running 20 s after shutdown" ]
  in
  kill t.pid;
  let socket_failure =
    if Sys.file_exists t.socket then [ "socket file left behind: " ^ t.socket ] else []
  in
  let fsck = Exec.Cache.fsck (Exec.Cache.open_dir t.cache_dir) in
  let fsck_failure =
    if fsck.Exec.Cache.removed + fsck.Exec.Cache.tmp_removed > 0 then
      [ Printf.sprintf "cache fsck removed %d entries and %d temp files" fsck.Exec.Cache.removed
          fsck.Exec.Cache.tmp_removed ]
    else []
  in
  exit_failure @ socket_failure @ fsck_failure
