(** Portfolio jobs: the unit of work of the parallel executor.

    A job is one (machine × algorithm × options) task — exactly the cell
    structure of the paper's Tables I/V/VII, where every machine is run
    through several encoding programs and the best PLA wins. Jobs carry
    everything needed to (a) run {!Harness.Driver.report} and (b) derive
    the content address under which the result is cached. *)

type task = {
  machine : Fsm.t;
  algorithm : Harness.Driver.algorithm;
  bits : int option;  (** code-length override, when the algorithm takes one *)
  max_work : int option;
      (** deterministic work cap (e.g. iexact's intrinsic 400k); part of
          the cache fingerprint, unlike wall-clock deadlines which are
          inherently uncacheable *)
  fallback : bool;
}

val task :
  ?bits:int -> ?max_work:int -> ?fallback:bool -> Fsm.t -> Harness.Driver.algorithm -> task

(** A completed job, flattened to what reports and the cache need. The
    driver's [Nova_error.t] degradation details are reduced to the rung
    names so a cached result round-trips exactly. *)
type success = {
  encoding : Encoding.t;
  produced_by : Harness.Driver.rung;
  degraded : Harness.Driver.rung list;
      (** rungs tried and failed before [produced_by], in order *)
  claims : Check.claims;
  cover : Logic.Cover.t;  (** minimized encoded cover, over [Encoded.build]'s domain *)
  num_cubes : int;
  area : int;
}

(** Where a row's result came from. *)
type origin =
  | Computed
  | Cached
  | Cancelled_by_race  (** a racing loser: no result was produced *)

type row = {
  task : task;
  result : (success, Nova_error.t) result;
  origin : origin;
  wall_s : float;
}

(** [code_version] participates in every cache key: bump it when an
    encoder or the minimizer changes behavior, and every stale entry
    misses instead of resurfacing. *)
val code_version : string

(** [fingerprint t] is the option part of the cache key (bits, work cap,
    fallback — everything that can change the result besides the machine
    text and the algorithm). *)
val fingerprint : task -> string

(** [key t] is the content address of [t]'s result: an MD5 hex digest of
    the machine's canonical KISS2 text, the algorithm name, the option
    fingerprint and {!code_version}. *)
val key : task -> string

(** [machine_digest m] is the content address of the machine alone: the
    MD5 digest (raw, not hex) of the same canonical KISS2 text {!key}
    hashes, so a file and the built-in suite entry it spells out share
    it. Keys what depends on the machine but on no algorithm or option. *)
val machine_digest : Fsm.t -> Digest.t

(** [success_equal a b] is bit-level equality of two results: encoding,
    rungs, claims, minimized cover and area — what the determinism
    guarantee (jobs-independence, cold vs warm cache) quantifies over. *)
val success_equal : success -> success -> bool

(** [run ?budget ?ctx t] executes the task through
    {!Harness.Driver.report}. [budget] defaults to a fresh root with
    [t.max_work]; pass one to add
    racing cancellation. [ctx] shares the symbolic minimization and
    equal-encoding ESPRESSO runs with the machine's other tasks, with
    the same result and the same [Budget.spent]
    (see {!Harness.Driver.context}). *)
val run :
  ?budget:Budget.t -> ?ctx:Harness.Driver.context -> task -> (success, Nova_error.t) result

(** [artifacts_of m s] packages a success for re-certification by the
    independent checker. *)
val artifacts_of : success -> Check.artifacts
