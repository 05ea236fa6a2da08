type reason = Work | Deadline | Cancelled

(* [tripped] is Atomic so that another domain (a racing winner) can trip
   this budget mid-[tick] without torn reads: every [tick] reads it on
   its way out, so a cross-domain [cancel] is observed within one tick.
   [work]/[until_poll] stay plain mutable fields — a budget tree is
   owned by the single domain that ticks it; only the cancellation
   signal crosses domains. *)
type t = {
  parent : t option;
  max_work : int option;
  deadline : float option;  (* absolute, Unix.gettimeofday clock *)
  cancel : (unit -> bool) option;
  mutable work : int;
  tripped : reason option Atomic.t;
  mutable until_poll : int;
}

exception Out_of_budget of reason

(* Deadline/cancellation are polled every [poll_interval] ticks, so a
   tick on an unconstrained budget is just a couple of increments. *)
let poll_interval = 256

let make ?parent ?max_work ?deadline ?cancel () =
  { parent; max_work; deadline; cancel; work = 0; tripped = Atomic.make None;
    until_poll = poll_interval }

let unlimited = make ()

let create ?max_work ?deadline_ms ?cancel () =
  let deadline = Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) deadline_ms in
  make ?max_work ?deadline ?cancel ()

let sub ?max_work parent = make ~parent ?max_work ()

type caps = { cap_deadline_ms : float option; cap_work : int option }

let no_caps = { cap_deadline_ms = None; cap_work = None }

(* Admission-control budget derivation: a serving layer imposes its own
   per-request ceilings on top of whatever the request asked for. The
   effective limit on each axis is the minimum of the two — a request
   can always ask for less than the cap, never for more, and an axis
   neither side bounds stays unlimited. *)
let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> Some (min x y)

(* Always a fresh root, even when unconstrained: derived budgets are
   ticked by concurrent request handlers, and sharing the global
   [unlimited] value across them would share its counters. *)
let derive ?deadline_ms ?max_work caps =
  match
    (min_opt caps.cap_deadline_ms deadline_ms, min_opt caps.cap_work max_work)
  with
  | None, None -> create ()
  | deadline_ms, max_work -> create ?deadline_ms ?max_work ()

let reason_name = function Work -> "work" | Deadline -> "deadline" | Cancelled -> "cancelled"

(* Trip [b] with [r] unless already tripped: the first reason wins, even
   against a concurrent trip from another domain. The winning trip emits
   a trace instant on the tripping domain's track and counts into the
   metrics registry by reason (a trip fires at most once per budget
   node, so the registration lookup is off the tick path). *)
let trip b r =
  if Atomic.compare_and_set b.tripped None (Some r) then begin
    Metrics.Registry.inc
      (Metrics.Registry.counter ~help:"Budget trips by reason."
         ~labels:[ ("reason", reason_name r) ]
         "nova_budget_trips_total");
    if Trace.enabled () then
      Trace.instant "budget.trip"
        ~attrs:[ ("reason", Trace.String (reason_name r)); ("spent", Trace.Int b.work) ]
  end

let cancel b = trip b Cancelled

let rec poll b =
  (if Atomic.get b.tripped = None then
     match b.deadline with
     | Some d when Unix.gettimeofday () >= d -> trip b Deadline
     | Some _ | None -> (
         match b.cancel with
         | Some f when f () -> trip b Cancelled
         | Some _ | None -> ()));
  match b.parent with Some p -> poll p | None -> ()

let rec first_tripped b =
  match Atomic.get b.tripped with
  | Some r -> Some r
  | None -> ( match b.parent with Some p -> first_tripped p | None -> None)

(* Charge one unit to [b] and every ancestor; a counter that moves past
   its cap trips its node ([work > cap]: the historical Embed tick). *)
let rec bump b =
  b.work <- b.work + 1;
  (match b.max_work with
  | Some cap when b.work > cap -> trip b Work
  | Some _ | None -> ());
  match b.parent with Some p -> bump p | None -> ()

let tick b =
  bump b;
  b.until_poll <- b.until_poll - 1;
  if b.until_poll <= 0 then begin
    b.until_poll <- poll_interval;
    poll b
  end;
  first_tripped b = None

(* [work >= cap]: the historical iexact loop-guard pre-check. *)
let rec at_cap b =
  (match b.max_work with Some cap -> b.work >= cap | None -> false)
  || match b.parent with Some p -> at_cap p | None -> false

let exhausted b =
  poll b;
  first_tripped b <> None || at_cap b

let reason b =
  match first_tripped b with
  | Some r -> Some r
  | None -> if at_cap b then Some Work else None

let spent b = b.work

let rec headroom b =
  if b.deadline <> None || b.cancel <> None || Atomic.get b.tripped <> None then None
  else
    let own = match b.max_work with Some cap -> cap - b.work | None -> max_int in
    match b.parent with
    | None -> Some own
    | Some p -> Option.map (min own) (headroom p)

(* [bump] [n] times over. No poll-counter bookkeeping: below the
   headroom no node of the chain has a deadline or a callback, so a poll
   there observes nothing. *)
let rec charge b n =
  b.work <- b.work + n;
  (match b.max_work with
  | Some cap when b.work > cap -> trip b Work
  | Some _ | None -> ());
  match b.parent with Some p -> charge p n | None -> ()
