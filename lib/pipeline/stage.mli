(** A memoized, timed pipeline stage.

    A stage is a named thunk computed at most once. Forcing it measures
    wall-clock time unconditionally (the harness tables report stage
    times even with the registry off) and times the computation as the
    section ["pipeline.<name>"] ({!Metrics.span}). This replaces the
    [Lazy.t]-plus-[float ref] pattern the harness flow used to carry. *)

type 'a t

(** [make ~name f] is a pending stage; [f] runs on first {!force}. *)
val make : name:string -> (unit -> 'a) -> 'a t

(** [force t] computes (once) and returns the stage's artifact. *)
val force : 'a t -> 'a

val name : 'a t -> string

(** [forced t] is whether the artifact has been computed. *)
val forced : 'a t -> bool

(** [elapsed t] is the wall-clock seconds the computation took, [0.]
    while the stage is still pending. *)
val elapsed : 'a t -> float
