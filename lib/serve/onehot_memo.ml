let capacity = 1024

type t = {
  entries : (Digest.t, (int * int) option) Hashtbl.t;
  order : Digest.t Queue.t;  (* insertion order, oldest first *)
  lock : Mutex.t;
}

let create () = { entries = Hashtbl.create 64; order = Queue.create (); lock = Mutex.create () }
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)
let find t key = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries key)

(* First writer wins: two handlers that computed the same machine
   concurrently hold the same exact value. *)
let add t key v =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.entries key) then begin
        if Hashtbl.length t.entries >= capacity then
          Hashtbl.remove t.entries (Queue.pop t.order);
        Hashtbl.add t.entries key v;
        Queue.push key t.order
      end)

(* The reference runs outside the lock: a miss costs one ESPRESSO run,
   which must not stall lookups for other machines. *)
let reference t ~key ~budget m =
  match find t key with
  | Some v -> (v, `Memo)
  | None ->
      let v = Render.onehot_reference ~budget m in
      if not (Budget.exhausted budget) then add t key v;
      (v, `Computed)
