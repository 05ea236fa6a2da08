let available_jobs () = max 1 (Domain.recommended_domain_count ())

let c_spawned = Metrics.event "exec.pool.domains_spawned"
let c_tasks = Metrics.event "exec.pool.tasks"
let c_isolated = Metrics.event "exec.pool.crashes_isolated"

(* Fatal exceptions cross the pool barrier: isolating an OOM or a user
   interrupt into a per-slot value would hide a dying process. *)
let is_fatal = function Out_of_memory | Stack_overflow | Sys.Break -> true | _ -> false

(* Workers claim indices from a shared cursor (in order) and write into
   a per-index slot: completion order never shows in the result. A
   raising task is captured in its own slot (crash isolation — one
   job's crash never takes down its siblings or the pool), except fatal
   exceptions, which are re-raised after the join, lowest index first,
   deterministically. The [Chaos.Pool_worker] site sits inside the
   per-slot protection, so an injected "domain death" is isolated to
   the task the dying domain was running. *)
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
    | exception e when not (is_fatal e) ->
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
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          results.(i) <- (try Some (Ok (run i tasks.(i))) with e -> Some (Error e));
          loop ()
        end
      in
      loop ()
    in
    let domains =
      List.init (jobs - 1) (fun k ->
          Metrics.Registry.inc c_spawned;
          if Trace.enabled () then
            Trace.instant "pool.spawn" ~attrs:[ ("worker", Trace.Int (k + 1)) ];
          Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join domains;
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
