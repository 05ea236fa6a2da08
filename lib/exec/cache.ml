(* Production metrics: one labeled family for the lifecycle events, one
   for I/O faults, gauges for the latest fsck findings. *)
let m_event event =
  Metrics.Registry.counter ~help:"Cache lifecycle events by kind."
    ~labels:[ ("event", event) ] "nova_cache_events_total"

let m_hit = m_event "hit"
let m_miss = m_event "miss"
let m_store = m_event "store"
let m_reject = m_event "reject"
let m_io_faults = Metrics.Registry.counter ~help:"Cache I/O faults." "nova_cache_io_faults_total"

let m_fsck name help =
  Metrics.Registry.gauge ~help ("nova_cache_fsck_" ^ name)

let m_fsck_scanned = m_fsck "scanned" "Entries scanned by the latest fsck."
let m_fsck_valid = m_fsck "valid" "Entries found valid by the latest fsck."
let m_fsck_removed = m_fsck "removed" "Corrupt entries removed by the latest fsck."
let m_fsck_tmp_removed = m_fsck "tmp_removed" "Leftover temp files removed by the latest fsck."

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  rejected : int Atomic.t;
}

type stats = { hits : int; misses : int; stores : int; rejected : int }

let open_dir dir =
  (if Sys.file_exists dir then begin
     if not (Sys.is_directory dir) then
       raise (Sys_error (Printf.sprintf "cache path %s is not a directory" dir))
   end
   else Unix.mkdir dir 0o755);
  { dir; hits = Atomic.make 0; misses = Atomic.make 0; stores = Atomic.make 0;
    rejected = Atomic.make 0 }

let dir c = c.dir

let stats (c : t) : stats =
  { hits = Atomic.get c.hits; misses = Atomic.get c.misses; stores = Atomic.get c.stores;
    rejected = Atomic.get c.rejected }

let entry_suffix = ".nova-cache"
let entry_path c (task : Job.task) = Filename.concat c.dir (Job.key task ^ entry_suffix)

(* Trace instants for the cache lifecycle (hit/miss/reject/store), each
   carrying the task identity so a lane full of cache events still reads
   on its own. *)
let ev name (task : Job.task) =
  if Trace.enabled () then
    Trace.instant ("cache." ^ name)
      ~attrs:
        [ ("machine", Trace.String task.Job.machine.Fsm.name);
          ("algorithm", Trace.String (Harness.Driver.name task.Job.algorithm)) ]

(* Re-certification of an entry read from (or headed to) disk, as a span
   with the verdict on the End event. The [Recertify] chaos site models
   a crash inside the checker (or the entry being swapped out from
   under it by a concurrent process mid-check). *)
let s_recertify = Metrics.section "exec.cache.recertify"

let recertify (task : Job.task) s =
  Metrics.span s_recertify
    ~attrs:
      [ ("machine", Trace.String task.Job.machine.Fsm.name);
        ("algorithm", Trace.String (Harness.Driver.name task.Job.algorithm)) ]
    ~end_attrs:(fun cert -> [ ("ok", Trace.Bool cert.Check.ok) ])
  @@ fun () ->
  Chaos.maybe_raise Chaos.Recertify;
  Check.certify task.Job.machine (Job.artifacts_of s)

(* --- per-entry advisory file locks -------------------------------------- *)

(* Concurrent *processes* sharing a cache directory coordinate through
   a per-entry lock file ([<key>.nova-cache.lock]): writers and fsck
   take it exclusively, readers take it shared, so a reader never
   observes a write mid-flight and fsck never deletes an entry someone
   is mid-read on. The lock is advisory and best-effort: on any lock
   failure (exotic filesystems, permissions) the operation proceeds
   unlocked — atomic tmp+rename plus the checksum still make torn data
   detectable, the lock just removes the recompute cost of the race. *)

let lock_path path = path ^ ".lock"

let with_entry_lock ?(shared = false) path f =
  let locked_fd =
    try
      let fd = Unix.openfile (lock_path path) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
      (try Unix.lockf fd (if shared then Unix.F_RLOCK else Unix.F_LOCK) 0
       with Unix.Unix_error _ -> ());
      Some fd
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match locked_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    f

(* --- serialization ------------------------------------------------------ *)

(* Line-oriented text; every cube and claimed face is a 0/1 bitvec
   string. Integrity is layered: the checksum line (MD5 of everything
   after it) catches torn or truncated bytes structurally — before any
   parsing — and re-certification against the machine establishes
   semantic integrity on every read. *)

let magic = "nova-cache/v2"

let render_payload (task : Job.task) (s : Job.success) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  line "algorithm %s" (Harness.Driver.name task.Job.algorithm);
  line "machine %s" task.Job.machine.Fsm.name;
  line "nbits %d" s.Job.encoding.Encoding.nbits;
  line "codes %s"
    (String.concat " "
       (Array.to_list (Array.map string_of_int s.Job.encoding.Encoding.codes)));
  line "produced_by %s" (Harness.Driver.rung_name s.Job.produced_by);
  line "degraded %s" (String.concat " " (List.map Harness.Driver.rung_name s.Job.degraded));
  line "ics %d" (List.length s.Job.claims.Check.claimed_ics);
  List.iter (fun ic -> line "%s" (Bitvec.to_string ic)) s.Job.claims.Check.claimed_ics;
  line "ocs %d" (List.length s.Job.claims.Check.claimed_ocs);
  List.iter (fun (u, v) -> line "%d %d" u v) s.Job.claims.Check.claimed_ocs;
  line "cubes %d" (List.length s.Job.cover.Logic.Cover.cubes);
  List.iter (fun c -> line "%s" (Bitvec.to_string c)) s.Job.cover.Logic.Cover.cubes;
  line "end";
  Buffer.contents b

let render (task : Job.task) (s : Job.success) =
  let payload = render_payload task s in
  Printf.sprintf "%s\nchecksum %s\n%s" magic (Digest.to_hex (Digest.string payload)) payload

exception Malformed

(* Split off the "<magic>\nchecksum <hex>\n" header, verify the hex
   against the raw remaining bytes, and return the payload. This is
   the torn-write detector: any truncation or mid-file corruption
   changes the digest. *)
let verify_checksum text =
  let nl1 = match String.index_opt text '\n' with Some i -> i | None -> raise Malformed in
  if String.sub text 0 nl1 <> magic then raise Malformed;
  let nl2 =
    match String.index_from_opt text (nl1 + 1) '\n' with Some i -> i | None -> raise Malformed
  in
  let checksum_line = String.sub text (nl1 + 1) (nl2 - nl1 - 1) in
  let prefix = "checksum " in
  if not (String.starts_with ~prefix checksum_line) then raise Malformed;
  let claimed = String.sub checksum_line (String.length prefix)
      (String.length checksum_line - String.length prefix)
  in
  let payload = String.sub text (nl2 + 1) (String.length text - nl2 - 1) in
  if Digest.to_hex (Digest.string payload) <> claimed then raise Malformed;
  payload

let parse_entry (task : Job.task) text =
  let payload = verify_checksum text in
  let lines = ref (String.split_on_char '\n' payload) in
  let next () =
    match !lines with
    | [] -> raise Malformed
    | l :: rest ->
        lines := rest;
        l
  in
  let field name =
    let l = next () in
    let p = name ^ " " in
    if String.starts_with ~prefix:p l then
      String.sub l (String.length p) (String.length l - String.length p)
    else if l = name then ""
    else raise Malformed
  in
  if field "algorithm" <> Harness.Driver.name task.Job.algorithm then raise Malformed;
  ignore (field "machine");
  let nbits = int_of_string (field "nbits") in
  let codes =
    field "codes" |> String.split_on_char ' ' |> List.filter (( <> ) "")
    |> List.map int_of_string |> Array.of_list
  in
  let produced_by =
    match Harness.Driver.rung_of_name (field "produced_by") with
    | Some r -> r
    | None -> raise Malformed
  in
  let degraded =
    field "degraded" |> String.split_on_char ' ' |> List.filter (( <> ) "")
    |> List.map (fun n ->
           match Harness.Driver.rung_of_name n with Some r -> r | None -> raise Malformed)
  in
  let counted name parse =
    let k = int_of_string (field name) in
    if k < 0 || k > 1_000_000 then raise Malformed;
    List.init k (fun _ -> parse (next ()))
  in
  let num_states = Array.length task.Job.machine.Fsm.states in
  let claimed_ics =
    counted "ics" (fun l ->
        let v = Bitvec.of_string l in
        if Bitvec.length v <> num_states then raise Malformed;
        v)
  in
  let claimed_ocs =
    counted "ocs" (fun l -> Scanf.sscanf l "%d %d" (fun u v -> (u, v)))
  in
  (* The encoding must validate (distinct codes, declared width); a
     wrong code count is left to recertification's injectivity check.
     The cubes live in the PLA domain, which depends only on the
     machine's widths and [nbits]. *)
  let encoding = Encoding.make ~nbits codes in
  let dom = Encoded.domain task.Job.machine ~nbits in
  let width = Logic.Domain.width dom in
  let cubes =
    counted "cubes" (fun l ->
        let v = Bitvec.of_string l in
        if Bitvec.length v <> width then raise Malformed;
        v)
  in
  if next () <> "end" then raise Malformed;
  let cover = Logic.Cover.make dom cubes in
  let num_cubes = Logic.Cover.size cover in
  {
    Job.encoding;
    produced_by;
    degraded;
    claims = { Check.claimed_ics; claimed_ocs };
    cover;
    num_cubes;
    area = Encoded.area ~machine:task.Job.machine ~encoding ~num_cubes;
  }

(* --- lookup / store ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let miss (c : t) task =
  Atomic.incr c.misses;
  Metrics.Registry.inc m_miss;
  ev "miss" task;
  None

(* Every failure mode on the read path — ENOENT racing a concurrent
   reject, EIO, a torn write that survived the rename, an injected
   fault, a recertification crash — converges on the same recovery:
   drop the entry and recompute. A broken cache costs time, never
   correctness and never the run. *)
let find (c : t) (task : Job.task) =
  let path = entry_path c task in
  let recover ~io_fault =
    if io_fault then Metrics.Registry.inc m_io_faults;
    Atomic.incr c.rejected;
    Metrics.Registry.inc m_reject;
    (try Sys.remove path with Sys_error _ -> ());
    ev "reject" task;
    miss c task
  in
  if not (Sys.file_exists path) then miss c task
  else
    let read () =
      with_entry_lock ~shared:true path (fun () ->
          Chaos.maybe_raise Chaos.Cache_read;
          read_file path)
    in
    match Supervise.protect ~what:("cache read " ^ Filename.basename path) read with
    | Error _ -> recover ~io_fault:true
    | Ok text -> (
        match parse_entry task text with
        | exception _ ->
            (* Corrupt on disk: drop the entry and recompute. *)
            recover ~io_fault:false
        | s -> (
            (* Never trust storage: the independent checker re-establishes
               the full contract against the machine before the entry is
               served. A checker that crashes mid-flight proves nothing,
               so its entry is dropped too. *)
            match Supervise.protect ~what:"recertify" (fun () -> recertify task s) with
            | Error _ -> recover ~io_fault:true
            | Ok cert when not cert.Check.ok -> recover ~io_fault:false
            | Ok _ ->
                Atomic.incr c.hits;
                Metrics.Registry.inc m_hit;
                ev "hit" task;
                Some s))

(* One write attempt: tmp file + atomic rename under the exclusive
   entry lock. Any failure (ENOSPC, EIO, injected fault) cleans the
   tmp file up and reports the error. *)
let write_once path text =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  match
    with_entry_lock path (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Chaos.maybe_raise Chaos.Cache_write;
            output_string oc text);
        Sys.rename tmp path)
  with
  | () -> true
  | exception e when not (Nova_error.is_fatal e) ->
      Metrics.Registry.inc m_io_faults;
      (try Sys.remove tmp with Sys_error _ -> ());
      false

let store_certified (c : t) (task : Job.task) (s : Job.success) =
  let path = entry_path c task in
  let text = render task s in
  (* Write faults are transient (taxonomy: cache I/O retries): one
     retry, then give up silently — the cache is an accelerator, never
     a correctness dependency. *)
  if write_once path text || write_once path text then begin
    Atomic.incr c.stores;
    Metrics.Registry.inc m_store;
    ev "store" task
  end

(* The cache only ever holds certified results: a success the
   independent checker rejects (a producer bug, not a storage fault) is
   recomputed every run rather than laundered through the cache — so a
   warm-run rejection always means the entry changed on disk. A
   recertification crash proves nothing, so it skips the store too. *)
let store (c : t) (task : Job.task) (s : Job.success) =
  match Supervise.protect ~what:"recertify" (fun () -> recertify task s) with
  | Ok cert when cert.Check.ok -> store_certified c task s
  | Ok _ -> ev "reject" task
  | Error _ ->
      Metrics.Registry.inc m_io_faults;
      ev "reject" task

(* --- fsck ---------------------------------------------------------------- *)

(* Structural integrity sweep over a cache directory, without task
   context (fsck cannot re-certify — it has no machines — but the
   checksum pins every byte of the payload, and certification still
   happens on every read). Removes: entries whose magic or checksum do
   not verify (torn writes, truncation, tampering), leftover [.tmp.*]
   files from writers that died mid-store, and orphaned lock files
   whose entry is gone. *)

type fsck_report = { scanned : int; valid : int; removed : int; tmp_removed : int }

let contains_substring sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The shutdown half of fsck, scoped to what *this process* may have
   leaked: its own writer temp files (named [...tmp.<pid>.<domain>]) and
   lock files whose entry is gone. A daemon interrupted mid-store calls
   this on the way out so the shared cache directory never needs a
   manual [nova cache fsck] after a SIGINT — and because the sweep only
   matches this pid's temp names, it can never disturb a concurrent
   server writing through the same directory. Advisory locks themselves
   die with the process's fds; only their empty lock files linger. *)
let sweep_own_tmp (c : t) =
  let own_tmp_marker = Printf.sprintf "%s.tmp.%d." entry_suffix (Unix.getpid ()) in
  let files = try Sys.readdir c.dir with Sys_error _ -> [||] in
  let removed = ref 0 in
  Array.iter
    (fun name ->
      let path = Filename.concat c.dir name in
      let is_own_tmp = contains_substring own_tmp_marker name in
      let is_orphan_lock =
        String.ends_with ~suffix:(entry_suffix ^ ".lock") name
        && not (Sys.file_exists (Filename.concat c.dir (Filename.chop_suffix name ".lock")))
      in
      if is_own_tmp || is_orphan_lock then
        try
          Sys.remove path;
          if is_own_tmp then incr removed
        with Sys_error _ -> ())
    files;
  !removed

let entry_structurally_valid text =
  match verify_checksum text with
  | payload ->
      (* The payload must terminate properly: render always ends with
         "end\n". *)
      String.ends_with ~suffix:"end\n" payload
  | exception _ -> false

let fsck (c : t) =
  let files = try Sys.readdir c.dir with Sys_error _ -> [||] in
  Array.sort compare files;
  let scanned = ref 0 and valid = ref 0 and removed = ref 0 and tmp_removed = ref 0 in
  let remove path = try Sys.remove path; true with Sys_error _ -> false in
  Array.iter
    (fun name ->
      let path = Filename.concat c.dir name in
      if String.ends_with ~suffix:entry_suffix name then begin
        incr scanned;
        let ok =
          match
            with_entry_lock path (fun () -> read_file path)
          with
          | text -> entry_structurally_valid text
          | exception _ -> false
        in
        if ok then incr valid
        else begin
          if Trace.enabled () then
            Trace.instant "cache.fsck_remove" ~attrs:[ ("entry", Trace.String name) ];
          if remove path then incr removed
        end
      end
      else if contains_substring (entry_suffix ^ ".tmp.") name then begin
        (* writer temp files: <key>.nova-cache.tmp.<pid>.<domain> *)
        if remove path then incr tmp_removed
      end
      else if String.ends_with ~suffix:(entry_suffix ^ ".lock") name then begin
        (* Orphaned lock: its entry is gone and nobody holds it. *)
        let entry = Filename.concat c.dir (Filename.chop_suffix name ".lock") in
        if not (Sys.file_exists entry) then ignore (remove path)
      end)
    files;
  (* Count every structural removal as a rejection: fsck is the offline
     flavor of the read path's reject-and-recompute. *)
  for _ = 1 to !removed do
    Atomic.incr c.rejected;
    Metrics.Registry.inc m_reject
  done;
  (* Gauges carry the latest sweep's findings (not cumulative): a scrape
     after fsck reads the state of the directory as last verified. *)
  Metrics.Registry.set_gauge m_fsck_scanned (float_of_int !scanned);
  Metrics.Registry.set_gauge m_fsck_valid (float_of_int !valid);
  Metrics.Registry.set_gauge m_fsck_removed (float_of_int !removed);
  Metrics.Registry.set_gauge m_fsck_tmp_removed (float_of_int !tmp_removed);
  { scanned = !scanned; valid = !valid; removed = !removed; tmp_removed = !tmp_removed }
