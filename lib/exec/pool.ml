let available_jobs () = max 1 (Domain.recommended_domain_count ())

let c_spawned = Metrics.event "exec.pool.domains_spawned"
let c_retired = Metrics.event "exec.pool.domains_retired"
let c_tasks = Metrics.event "exec.pool.tasks"
let c_isolated = Metrics.event "exec.pool.crashes_isolated"

(* --- the process-wide helpers ---------------------------------------------- *)

(* How long a helper with nothing to do polls for a new batch before its
   domain ends. A helper never parks: a domain blocked in
   [Condition.wait] slows every later minor GC in the process, because
   each one is stop-the-world and the parked domain's backup thread must
   wake to answer it. Measured on a 2-core host: a sequential
   [Portfolio.run ~jobs:1] over dk16/bbara/lion/dk15 (~1,000 minor GCs/s)
   ran 1.12-1.18x slower once one parked helper existed, a synthetic
   allocation loop 3x slower. Polling for 5 ms and then retiring kept
   that run at 0.95-1.06x, and 200 back-to-back report-sized portfolios
   spawned one domain; a 1 ms window is shorter than the tail imbalance
   inside one portfolio and respawned 64 times. *)
let idle_window_s = 0.005

(* One [mapi_isolated] call shared with the helpers. [work] drains the
   call's cursor; [tokens] counts helper places not yet claimed,
   [started] and [finished] the helpers that claimed one. The mutable
   fields are guarded by [lock]; [finished] is atomic so that the caller
   can poll it. *)
type batch = {
  work : unit -> unit;
  mutable tokens : int;
  mutable started : int;
  finished : int Atomic.t;
  settled : Condition.t;
}

let lock = Mutex.create ()

(* Batches with unclaimed tokens, oldest first. *)
let queue : batch Queue.t = Queue.create ()

(* The sum of [tokens] over [queue], readable without [lock] so that an
   idle helper polls one word. *)
let pending = Atomic.make 0

(* Helpers that have not retired, and retired domains not yet joined. *)
let live = ref 0
let retired : unit Domain.t list ref = ref []

(* Under [lock]. A retired domain is joined before any replacement is
   spawned, so a retiring helper and its successor never coexist (each
   would hold a minor heap). *)
let reap () =
  List.iter Domain.join !retired;
  retired := []

let claim () =
  Mutex.protect lock @@ fun () ->
  match Queue.peek_opt queue with
  | None -> None
  | Some b ->
      b.tokens <- b.tokens - 1;
      b.started <- b.started + 1;
      Atomic.decr pending;
      if b.tokens = 0 then ignore (Queue.pop queue);
      Some b

let finish b =
  Atomic.incr b.finished;
  Mutex.protect lock (fun () -> Condition.broadcast b.settled)

(* Poll for a token until the idle window closes; then retire, unless a
   token arrived meanwhile. [true] means go claim. *)
let idle self =
  let deadline = Unix.gettimeofday () +. idle_window_s in
  let rec poll () =
    if Atomic.get pending > 0 then true
    else if Unix.gettimeofday () < deadline then begin
      Domain.cpu_relax ();
      poll ()
    end
    else
      Mutex.protect lock @@ fun () ->
      if Atomic.get pending > 0 then true
      else begin
        decr live;
        retired := Option.get !self :: !retired;
        Metrics.Registry.inc c_retired;
        false
      end
  in
  poll ()

let rec helper self =
  match claim () with
  | Some b ->
      b.work ();
      finish b;
      helper self
  | None -> if idle self then helper self

(* Under [lock]. The handle is recorded before [lock] is released, and a
   helper only reads it under [lock] when it retires. *)
let spawn () =
  let self = ref None in
  self := Some (Domain.spawn (fun () -> helper self));
  incr live;
  Metrics.Registry.inc c_spawned;
  if Trace.enabled () then Trace.instant "pool.spawn" ~attrs:[ ("worker", Trace.Int !live) ]

(* Run [work] on the calling domain, offering [helpers] places in it to
   the helper domains. Unclaimed places are withdrawn once the caller's
   own [work] returns, and the caller waits only for helpers that
   started: a helper busy elsewhere (another caller, or the outer batch
   of a nested call) is never waited for, so concurrent and nested
   callers cannot deadlock. The wait polls for up to the idle window
   before it blocks, since a helper's last task usually ends within it. *)
let share ~helpers work =
  let b =
    { work; tokens = helpers; started = 0; finished = Atomic.make 0; settled = Condition.create () }
  in
  Mutex.protect lock (fun () ->
      Queue.push b queue;
      ignore (Atomic.fetch_and_add pending helpers);
      if !live < helpers then begin
        reap ();
        (* [Failure] is the runtime's domain limit: the batch runs on
           the helpers there are, the caller included. *)
        try
          while !live < helpers do
            spawn ()
          done
        with Failure _ -> ()
      end);
  work ();
  let started =
    Mutex.protect lock @@ fun () ->
    if b.tokens > 0 then begin
      let rest = Queue.create () in
      Queue.iter (fun x -> if x != b then Queue.push x rest) queue;
      Queue.clear queue;
      Queue.transfer rest queue;
      ignore (Atomic.fetch_and_add pending (-b.tokens));
      b.tokens <- 0
    end;
    b.started
  in
  let deadline = Unix.gettimeofday () +. idle_window_s in
  while Atomic.get b.finished < started && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if Atomic.get b.finished < started then
    Mutex.protect lock (fun () ->
        while Atomic.get b.finished < started do
          Condition.wait b.settled lock
        done)

let live_helpers () =
  Mutex.protect lock @@ fun () ->
  reap ();
  !live

(* --- the deterministic map ------------------------------------------------- *)

(* Workers claim indices from a shared cursor (in order) and write into
   a per-index slot: completion order never shows in the result. A
   raising task is captured in its own slot (crash isolation — one
   job's crash never takes down its siblings or the pool), except fatal
   exceptions, which are re-raised after every slot settled, lowest
   index first, deterministically. The [Chaos.Pool_worker] site sits
   inside the per-slot protection, so an injected "domain death" is
   isolated to the task the dying domain was running. *)
let mapi_isolated ~jobs tasks ~f =
  let n = Array.length tasks in
  Metrics.Registry.add c_tasks n;
  let jobs = max 1 (min jobs n) in
  let run i x =
    match
      Chaos.maybe_raise Chaos.Pool_worker;
      f i x
    with
    | v -> Ok v
    | exception e when not (Nova_error.is_fatal e) ->
        Metrics.Registry.inc c_isolated;
        let bt = Printexc.get_backtrace () in
        if Trace.enabled () then
          Trace.instant "pool.crash_isolated"
            ~attrs:[ ("slot", Trace.Int i); ("error", Trace.String (Printexc.to_string e)) ];
        Error (e, bt)
  in
  if jobs = 1 then Array.mapi run tasks
  else begin
    let results : (('b, exn * string) result, exn) result option array = Array.make n None in
    let cursor = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        results.(i) <- (try Some (Ok (run i tasks.(i))) with e -> Some (Error e));
        work ()
      end
    in
    share ~helpers:(jobs - 1) work;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error fatal) -> raise fatal (* lowest index: Array.map visits in order *)
        | None -> assert false (* every index below the final cursor was claimed *))
      results
  end

(* The raising flavor: crash isolation plus the historical contract —
   the lowest-indexed failure is re-raised after every slot settled. *)
let mapi ~jobs tasks ~f =
  let slots = mapi_isolated ~jobs tasks ~f in
  Array.iter (function Error (e, _) -> raise e | Ok _ -> ()) slots;
  Array.map (function Ok v -> v | Error _ -> assert false) slots

let map ~jobs tasks ~f = mapi ~jobs tasks ~f:(fun _ x -> f x)
