type entry = {
  seq : int;
  at : float;
  verb : string;
  machine : string;
  algorithm : string;
  tier : string;
  wall_ms : float;
  ok : bool;
  code : int;
  error : string;
  spent : int;
}

type t = {
  lock : Mutex.t;
  ring : entry option array;
  mutable next_seq : int;  (* doubles as the total-recorded count *)
}

let create capacity =
  { lock = Mutex.create (); ring = Array.make (max 1 capacity) None; next_seq = 0 }

let capacity t = Array.length t.ring

let record ?(sink = ignore) t e =
  Mutex.protect t.lock (fun () ->
      let e = { e with seq = t.next_seq } in
      t.next_seq <- e.seq + 1;
      t.ring.(e.seq mod Array.length t.ring) <- Some e;
      sink e)

let recorded t = Mutex.protect t.lock (fun () -> t.next_seq)

let entries t =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.ring in
      (* Oldest live entry sits at next_seq mod cap once the ring has
         wrapped; before that, slot 0. *)
      let n = min t.next_seq cap in
      let start = if t.next_seq <= cap then 0 else t.next_seq mod cap in
      List.init n (fun i ->
          match t.ring.((start + i) mod cap) with
          | Some e -> e
          | None -> assert false))

let entry_json e =
  Json_min.Obj
    [
      ("seq", Json_min.Num (float_of_int e.seq));
      ("at", Json_min.Num e.at);
      ("id", Json_min.Num (float_of_int e.seq));
      ("verb", Json_min.Str e.verb);
      ("machine", Json_min.Str e.machine);
      ("algorithm", Json_min.Str e.algorithm);
      ("tier", Json_min.Str e.tier);
      ("wall_ms", Json_min.Num e.wall_ms);
      ("ok", Json_min.Bool e.ok);
      ("code", Json_min.Num (float_of_int e.code));
      ("error", Json_min.Str e.error);
      ("spent", Json_min.Num (float_of_int e.spent));
    ]

let to_json ?(reason = "request") t =
  Json_min.Obj
    [
      ("schema", Json_min.Str "nova-flightrec/v1");
      ("reason", Json_min.Str reason);
      ("capacity", Json_min.Num (float_of_int (capacity t)));
      ("recorded", Json_min.Num (float_of_int (recorded t)));
      ("entries", Json_min.Arr (List.map entry_json (entries t)));
    ]

let dump ?reason ~path t =
  (* Best-effort: a failing dump must never take the daemon down with it. *)
  try Trace.write_atomic ~path (to_json ?reason t) with _ -> ()
