(* The supervision layer: converts runtime failures in the execution
   layer into typed, traced, recoverable events.

   Three mechanisms, composed by Portfolio and Cache:

   - retry: runs a job thunk again at once when it crashes, up to
     [max_attempts] attempts in all. Only *crashes* (exceptions) are
     retried — typed [Nova_error.t] results are deterministic verdicts
     and pass straight through. Asynchronous/fatal exceptions
     (Out_of_memory, Stack_overflow, user interrupt) are never
     swallowed: the supervisor re-raises them immediately. Faults come
     from in-process encoder runs and Chaos fires by invocation index,
     so waiting between attempts would outrun nothing.

   - quarantine: a per-process registry of (machine, algorithm) pairs
     whose jobs crashed through their whole attempt budget. After
     [quarantine_threshold] such exhausted cycles the pair is skipped
     outright (a `driver.quarantine` trace instant, a typed
     [Job_crashed] with attempts = 0) so the portfolio's fallback
     ladder continues without burning attempts on a known-bad rung.

   - warnings: one stderr line per retry / give-up / quarantine skip,
     with attempt counts and the reason, suppressed by [quiet] (the
     CLI's --quiet). *)

(* Production metrics: crash counts labeled by the site that crashed
   ("job" for supervised runs, the first word of [protect]'s ~what for
   infrastructure — "cache", "recertify" — keeping label cardinality
   bounded), retry/skip totals, and the quarantine occupancy gauge. *)
let m_retries = Metrics.Registry.counter ~help:"Supervised retries." "nova_supervise_retries_total"

let m_crashes site =
  Metrics.Registry.counter ~help:"Non-fatal crashes caught by the supervisor, by site."
    ~labels:[ ("site", site) ] "nova_supervise_crashes_total"

let m_skips =
  Metrics.Registry.counter ~help:"Jobs skipped because their (machine, algorithm) is quarantined."
    "nova_quarantine_skips_total"

let m_occupancy =
  Metrics.Registry.gauge ~help:"(machine, algorithm) pairs currently past the quarantine threshold."
    "nova_quarantine_occupancy"

let crash_site_of_what what =
  match String.index_opt what ' ' with Some i -> String.sub what 0 i | None -> what

let max_attempts = 3

let quiet = ref false

let warn fmt =
  Printf.ksprintf (fun line -> if not !quiet then prerr_endline ("nova: warning: " ^ line)) fmt

let describe_exn e bt =
  let head =
    match String.index_opt bt '\n' with Some i -> String.sub bt 0 i | None -> bt
  in
  if head = "" then Printexc.to_string e else Printexc.to_string e ^ " [" ^ head ^ "]"

(* --- quarantine registry ------------------------------------------------- *)

let quarantine_threshold = 2

(* (machine, algorithm) -> exhausted crash cycles, skip count, last
   detail. The registry is per-process state shared by every portfolio
   run (that is the point: the second run of a known-crashing rung is
   the one that gets skipped), guarded by a mutex for cross-domain
   use. *)
type qentry = { cycles : int; skips : int; detail : string }

let quarantine_lock = Mutex.create ()
let quarantine_table : (string * string, qentry) Hashtbl.t = Hashtbl.create 16

let occupancy_locked () =
  Hashtbl.fold
    (fun _ e n -> if e.cycles >= quarantine_threshold then n + 1 else n)
    quarantine_table 0

let reset_quarantine () =
  Mutex.protect quarantine_lock (fun () ->
      Hashtbl.reset quarantine_table;
      Metrics.Registry.set_gauge m_occupancy 0.)

let record_crash_cycle ~machine ~algorithm detail =
  Mutex.protect quarantine_lock (fun () ->
      let key = (machine, algorithm) in
      let prev =
        match Hashtbl.find_opt quarantine_table key with
        | Some e -> e
        | None -> { cycles = 0; skips = 0; detail = "" }
      in
      Hashtbl.replace quarantine_table key { prev with cycles = prev.cycles + 1; detail };
      Metrics.Registry.set_gauge m_occupancy (float_of_int (occupancy_locked ()));
      prev.cycles + 1)

let record_skip ~machine ~algorithm =
  Mutex.protect quarantine_lock (fun () ->
      let key = (machine, algorithm) in
      match Hashtbl.find_opt quarantine_table key with
      | Some e -> Hashtbl.replace quarantine_table key { e with skips = e.skips + 1 }
      | None -> ())

let quarantined ~machine ~algorithm =
  Mutex.protect quarantine_lock (fun () ->
      match Hashtbl.find_opt quarantine_table (machine, algorithm) with
      | Some e when e.cycles >= quarantine_threshold -> Some (e.cycles, e.detail)
      | _ -> None)

type quarantine_entry = {
  q_machine : string;
  q_algorithm : string;
  q_cycles : int;
  q_skips : int;
  q_detail : string;
}

(* Every pair with recorded crash cycles, quarantined or not, sorted
   for stable rendering in stats/metrics readouts. *)
let quarantine_snapshot () =
  Mutex.protect quarantine_lock (fun () ->
      Hashtbl.fold
        (fun (machine, algorithm) e acc ->
          { q_machine = machine; q_algorithm = algorithm; q_cycles = e.cycles;
            q_skips = e.skips; q_detail = e.detail }
          :: acc)
        quarantine_table []
      |> List.sort (fun a b ->
             compare (a.q_machine, a.q_algorithm) (b.q_machine, b.q_algorithm)))

(* --- the supervised runner ----------------------------------------------- *)

let job_name ~machine ~algorithm = Printf.sprintf "%s on %s" algorithm machine

let retry_instant ~machine ~algorithm ~attempt detail =
  if Trace.enabled () then
    Trace.instant "supervise.retry"
      ~attrs:
        [
          ("machine", Trace.String machine);
          ("algorithm", Trace.String algorithm);
          ("attempt", Trace.Int attempt);
          ("error", Trace.String detail);
        ]

let quarantine_instant ~machine ~algorithm ~crashes detail =
  if Trace.enabled () then
    Trace.instant "driver.quarantine"
      ~attrs:
        [
          ("machine", Trace.String machine);
          ("algorithm", Trace.String algorithm);
          ("crashes", Trace.Int crashes);
          ("error", Trace.String detail);
        ]

(* [run ~machine ~algorithm f] is [f ()] under supervision: typed
   results pass through; a crash is retried at once up to
   [max_attempts] total attempts, then recorded as an exhausted cycle
   and returned as [Job_crashed]. A pair past the quarantine threshold
   is skipped without running [f] at all. *)
let run ~machine ~algorithm f =
  match quarantined ~machine ~algorithm with
  | Some (crashes, detail) ->
      Metrics.Registry.inc m_skips;
      record_skip ~machine ~algorithm;
      quarantine_instant ~machine ~algorithm ~crashes detail;
      warn "%s quarantined after %d crashed runs (%s); skipping"
        (job_name ~machine ~algorithm) crashes detail;
      Error
        (Nova_error.Job_crashed
           {
             job = job_name ~machine ~algorithm;
             attempts = 0;
             detail = Printf.sprintf "quarantined after %d crashed runs: %s" crashes detail;
           })
  | None ->
      let rec attempt_from n =
        match f () with
        | result -> result
        | exception e when not (Nova_error.is_fatal e) ->
            let detail = describe_exn e (Printexc.get_backtrace ()) in
            Metrics.Registry.inc (m_crashes "job");
            if n < max_attempts then begin
              Metrics.Registry.inc m_retries;
              retry_instant ~machine ~algorithm ~attempt:n detail;
              warn "%s crashed (attempt %d/%d): %s; retrying" (job_name ~machine ~algorithm) n
                max_attempts detail;
              attempt_from (n + 1)
            end
            else begin
              let cycles = record_crash_cycle ~machine ~algorithm detail in
              warn "%s crashed %d/%d attempts, giving up (crashed runs: %d): %s"
                (job_name ~machine ~algorithm) n max_attempts cycles detail;
              Error
                (Nova_error.Job_crashed
                   { job = job_name ~machine ~algorithm; attempts = n; detail })
            end
      in
      attempt_from 1

(* [protect ~what f] is the one-shot flavor for infrastructure code
   (cache I/O): run [f], turn any non-fatal crash into [Error detail].
   No retries — callers like the cache have a cheaper recovery
   (recompute) than re-driving the fault. *)
let protect ~what f =
  match f () with
  | v -> Ok v
  | exception e when not (Nova_error.is_fatal e) ->
      let detail = describe_exn e (Printexc.get_backtrace ()) in
      Metrics.Registry.inc (m_crashes (crash_site_of_what what));
      Error (Printf.sprintf "%s: %s" what detail)
