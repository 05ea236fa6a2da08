(* Seeded deterministic fault injection for the execution layer.

   A chaos schedule names, per injection site, how many faults to fire.
   For a site configured with [count], the harness picks [count]
   distinct invocation indices out of the site's first [2 * count]
   invocations (the window), chosen by the seeded RNG — so a schedule
   is (a) deterministic given (spec, seed), (b) seed-sensitive (which
   early invocations fault moves with the seed), and (c) exhaustible:
   past the window the site never fires again, which is what lets a
   retrying supervisor provably absorb any schedule whose crash counts
   stay below its attempt budget.

   Invocation counters are atomics, so sites may be crossed from any
   domain; which invocation a given task observes is scheduling-
   dependent, but the supervised executor's recovery makes the final
   results independent of that (see test/test_chaos.ml). *)

type site = Rung | Cache_read | Cache_write | Recertify | Pool_worker | Serve

exception Injected of { site : site; index : int }

let site_name = function
  | Rung -> "rung"
  | Cache_read -> "cache-read"
  | Cache_write -> "cache-write"
  | Recertify -> "recertify"
  | Pool_worker -> "pool"
  | Serve -> "serve"

let all_sites = [ Rung; Cache_read; Cache_write; Recertify; Pool_worker; Serve ]
let site_of_name s = List.find_opt (fun x -> site_name x = s) all_sites
let site_code = function
  | Rung -> 1
  | Cache_read -> 2
  | Cache_write -> 3
  | Recertify -> 4
  | Pool_worker -> 5
  | Serve -> 6

(* Per-site plan: the invocation counter plus the sorted fire indices
   drawn from the window. Installed atomically as a whole (plans are
   immutable after [configure]); only the counters mutate afterwards. *)
type plan = { counter : int Atomic.t; fires : int array }

type config = { seed : int; plans : (site * plan) list }

let state : config option Atomic.t = Atomic.make None

let enabled () = Atomic.get state <> None
let disable () = Atomic.set state None

(* [count] distinct indices out of [0 .. 2*count - 1], by a seeded
   partial Fisher-Yates. Sorted so tests can reason about the plan. *)
let pick_fires ~seed ~site count =
  let window = 2 * count in
  let rng = Random.State.make [| 0x5eed; seed; site_code site |] in
  let idx = Array.init window (fun i -> i) in
  for i = 0 to count - 1 do
    let j = i + Random.State.int rng (window - i) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  let fires = Array.sub idx 0 count in
  Array.sort compare fires;
  fires

(* --- the spec language --------------------------------------------------- *)

(* SPEC := item ("," item)*   item := SITE ":" COUNT
   e.g. "rung:1,cache-read:2". COUNT faults fire among the site's first
   2*COUNT invocations. *)
let parse_spec spec =
  let items = String.split_on_char ',' spec |> List.filter (( <> ) "") in
  if items = [] then Error "empty chaos spec"
  else
    List.fold_left
      (fun acc item ->
        match acc with
        | Error _ -> acc
        | Ok sites -> (
            match String.index_opt item ':' with
            | None ->
                Error
                  (Printf.sprintf "chaos item %S: expected SITE:COUNT (sites: %s)" item
                     (String.concat ", " (List.map site_name all_sites)))
            | Some i -> (
                let name = String.sub item 0 i in
                let count = String.sub item (i + 1) (String.length item - i - 1) in
                match (site_of_name name, int_of_string_opt count) with
                | None, _ ->
                    Error
                      (Printf.sprintf "chaos item %S: unknown site %S (sites: %s)" item name
                         (String.concat ", " (List.map site_name all_sites)))
                | _, None ->
                    Error (Printf.sprintf "chaos item %S: COUNT must be a positive integer" item)
                | _, Some n when n <= 0 ->
                    Error (Printf.sprintf "chaos item %S: COUNT must be a positive integer" item)
                | Some site, Some n ->
                    if List.mem_assoc site sites then
                      Error (Printf.sprintf "chaos item %S: site %s appears twice" item name)
                    else Ok ((site, n) :: sites))))
      (Ok []) items
    |> Result.map List.rev

let configure ?(seed = 0) spec =
  match parse_spec spec with
  | Error _ as e -> e
  | Ok sites ->
      let plans =
        List.filter_map
          (fun (site, count) ->
            if count = 0 then None
            else
              Some (site, { counter = Atomic.make 0; fires = pick_fires ~seed ~site count }))
          sites
      in
      Atomic.set state (Some { seed; plans });
      Ok ()

(* Tests re-run the same schedule (jobs=1 vs jobs=N): [rewind] resets
   every invocation counter while keeping the plan, so the second run
   sees the identical fault schedule. *)
let rewind () =
  match Atomic.get state with
  | None -> ()
  | Some { plans; _ } -> List.iter (fun (_, p) -> Atomic.set p.counter 0) plans

(* The invocation index this call drew if the schedule says it faults. *)
let fire_index site =
  match Atomic.get state with
  | None -> None
  | Some { plans; _ } -> (
      match List.assoc_opt site plans with
      | None -> None
      | Some p ->
          let i = Atomic.fetch_and_add p.counter 1 in
          (* The fires array is tiny (the schedule's count); linear scan. *)
          if Array.exists (( = ) i) p.fires then begin
            Metrics.Registry.inc
              (Metrics.Registry.counter ~help:"Injected chaos faults by site."
                 ~labels:[ ("site", site_name site) ]
                 "nova_chaos_injected_total");
            if Trace.enabled () then
              Trace.instant "chaos.inject"
                ~attrs:[ ("site", Trace.String (site_name site)); ("index", Trace.Int i) ];
            Some i
          end
          else None)

let should_fire site = fire_index site <> None

let maybe_raise site =
  match fire_index site with None -> () | Some index -> raise (Injected { site; index })

let () =
  Printexc.register_printer (function
    | Injected { site; index } ->
        Some (Printf.sprintf "Chaos.Injected(site=%s, invocation=%d)" (site_name site) index)
    | _ -> None)
