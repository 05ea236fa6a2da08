(** The daemon's memo of the 1-hot reference line: one entry per
    machine, keyed by {!Exec.Job.machine_digest}, so a warm cache hit
    and a request for another algorithm on the same machine both skip
    the one-hot ESPRESSO run {!Render.onehot_reference} does.

    The memo is exact. An entry is stored only when the budget the
    reference ran under is not exhausted afterwards, so every stored
    value is the unlimited-budget value — what the one-shot
    [nova encode] prints. Safe to share between handler threads. *)

type t

val capacity : int
(** 1024 entries; adding past it evicts the oldest entry first. *)

val create : unit -> t
val length : t -> int

val find : t -> Digest.t -> (int * int) option option
(** [find t key] is the stored reference of the machine [key], if any. *)

val reference :
  t -> key:Digest.t -> budget:Budget.t -> Fsm.t -> (int * int) option * [ `Memo | `Computed ]
(** [reference t ~key ~budget m] is [m]'s 1-hot reference and where it
    came from: the stored value when [key] is present, else
    [Render.onehot_reference ~budget m], stored when [budget] is not
    exhausted after the run. [key] must be [Exec.Job.machine_digest m]. *)
