module Histogram = Histogram
module Registry = Registry
module Expose = Expose
module Flight = Flight

type event = Registry.counter

let event name =
  Registry.counter ~help:"Kernel and executor operation counts, by dotted event name."
    ~labels:[ ("event", name) ] "nova_events_total"

type section = { name : string; seconds : Histogram.t }

let section name =
  {
    name;
    seconds =
      Registry.histogram ~help:"Wall-clock seconds per timed section, by dotted span name."
        ~labels:[ ("span", name) ] "nova_span_seconds";
  }

let sections ~prefix names =
  let table = Hashtbl.create (List.length names) in
  List.iter (fun n -> Hashtbl.replace table n (section (prefix ^ n))) names;
  fun n -> match Hashtbl.find_opt table n with Some s -> s | None -> section (prefix ^ n)

(* A lock-free memo: an immutable association list behind an atomic.
   A miss interns through [make] and publishes with a CAS; two callers
   racing on one fresh key both call [make], which the registry answers
   with the same series. *)
let interned make =
  let seen = Atomic.make [] in
  let rec publish k v =
    let l = Atomic.get seen in
    if not (Atomic.compare_and_set seen l ((k, v) :: l)) then publish k v
  in
  fun k ->
    match List.assoc_opt k (Atomic.get seen) with
    | Some v -> v
    | None ->
        let v = make k in
        publish k v;
        v

let timed s f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | v ->
      Registry.observe s.seconds (Unix.gettimeofday () -. t0);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Registry.observe s.seconds (Unix.gettimeofday () -. t0);
      Printexc.raise_with_backtrace e bt

let span ?attrs ?end_attrs s f =
  if Trace.enabled () then timed s (fun () -> Trace.with_span ?attrs ?end_attrs s.name f)
  else if Registry.enabled () then timed s f
  else f ()

(* The registry read back per probe family: (dotted name, value) pairs,
   sorted by name like the snapshot they come from. *)
let family name label entries =
  List.filter_map
    (fun ((s : Registry.series), v) ->
      if s.s_name <> name then None
      else Option.map (fun n -> (n, v)) (List.assoc_opt label s.s_labels))
    entries

let events () = family "nova_events_total" "event" (Registry.snapshot ()).Registry.counters
let spans () = family "nova_span_seconds" "span" (Registry.snapshot ()).Registry.histograms
