type 'a state = Pending of (unit -> 'a) | Done of 'a

(* [lock] makes [force] domain-safe: concurrent forcing from the [Exec]
   pool computes the thunk exactly once, and the second domain blocks
   until the value is ready (stage thunks never force themselves, so the
   per-cell lock cannot self-deadlock). *)
type 'a t = {
  name : string;
  section : Metrics.section;
  lock : Mutex.t;
  mutable state : 'a state;
  mutable elapsed : float;
}

let make ~name f =
  { name; section = Metrics.section ("pipeline." ^ name); lock = Mutex.create ();
    state = Pending f; elapsed = 0. }

let name t = t.name
let forced t = match t.state with Done _ -> true | Pending _ -> false
let elapsed t = t.elapsed

let force t =
  match t.state with
  | Done v -> v
  | Pending _ ->
      Mutex.lock t.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
      (match t.state with
      | Done v -> v
      | Pending f ->
          (* The wall-clock figure is always measured (tables print it
             even with the registry off). *)
          let t0 = Unix.gettimeofday () in
          let v = Metrics.span t.section f in
          t.elapsed <- Unix.gettimeofday () -. t0;
          t.state <- Done v;
          v)
