(** Per-machine experiment flow with caching. Domain-safe: the memo
    tables are mutex-guarded and each {!Stage.t} single-flights its
    computation, so flows may be shared by an [Exec] worker pool.

    Every paper table needs some subset of: the multiple-valued
    minimization (input constraints), symbolic minimization (mixed
    constraints), the four NOVA encodings, the baselines, random
    assignments, and an ESPRESSO run per encoding. Each is a memoized
    {!Stage.t} computed once per machine: forcing a stage records its
    wall-clock time ({!Stage.elapsed}) and times it as the section
    ["pipeline.<stage>"]. *)

type t = {
  name : string;
  machine : Fsm.t;
  sym : Symbolic.t Stage.t;
  ics : Constraints.input_constraint list Stage.t;
  symbolic_min : Symbmin.t Stage.t;
  ihybrid : Ihybrid.result Stage.t;
  igreedy : Igreedy.result Stage.t;
  iohybrid : Iohybrid.result Stage.t;
  iexact : Iexact.outcome Stage.t;
  kiss : Encoding.t Stage.t;
  one_hot : Encoding.t Stage.t;
  randoms : Encoding.t list Stage.t;  (** the paper's random-assignment pool *)
}

(** [get name] is the cached flow of benchmark machine [name]. *)
val get : string -> t

(** [implement flow encoding] minimizes the encoded PLA (cached per
    distinct encoding). *)
val implement : t -> Encoding.t -> Encoded.result

(** [area_of flow encoding] is [ (implement flow encoding).area ]. *)
val area_of : t -> Encoding.t -> int

(** [random_best_avg flow] is the best and average area over the random
    pool. *)
val random_best_avg : t -> int * int

(** [nova_best flow] is the minimum-area encoding among ihybrid, igreedy
    and iohybrid — the paper's "best of NOVA". *)
val nova_best : t -> Encoding.t

(** [best_ih_ig flow] is the smaller-area of ihybrid and igreedy. *)
val best_ih_ig : t -> Encoding.t

(** [mustang_best_cubes flow] is the best MUSTANG encoding over the
    [-p]/[-n]/[-pt]/[-nt] flavors at minimum code length, by cube count
    (paper's Table VII protocol), together with its flavor label. *)
val mustang_best_cubes : t -> Encoding.t * string

(** [factored_literals flow encoding] runs the multilevel optimizer on
    the minimized encoded cover and counts factored literals. *)
val factored_literals : t -> Encoding.t -> int

(** [num_random_runs] is the size of the random pool per machine (the
    paper used one per state; we cap it — see DESIGN.md). *)
val num_random_runs : int

(** [clear_cache ()] empties all caches (used by benchmarks to measure
    cold runs). *)
val clear_cache : unit -> unit
