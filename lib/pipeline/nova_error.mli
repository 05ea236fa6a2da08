(** The typed error taxonomy of the encoding pipeline.

    Every stage entry point of the pipeline returns
    [('a, Nova_error.t) result] instead of raising, so the driver can
    degrade gracefully (fall down the ladder) and the CLI can map each
    failure mode to a distinct exit code. *)

(** The pipeline stage an error originated in: the rung of the
    driver's fallback ladder that failed. *)
type stage =
  | Iexact
  | Semiexact
  | Project
  | Ihybrid
  | Igreedy
  | Iohybrid
  | Iovariant
  | Baseline  (** kiss / mustang / one-hot / random baseline encoders *)

type t =
  | Budget_exhausted of { stage : stage; reason : Budget.reason }
      (** the stage's work/deadline budget ran out before it produced a
          usable result *)
  | Parse_error of { file : string; line : int; col : int; msg : string }
      (** malformed input; [line]/[col] are 1-based, 0 when unknown *)
  | Infeasible of { stage : stage; msg : string }
      (** the stage cannot succeed regardless of budget (unsatisfiable
          constraints at the requested length, cyclic covering
          relations, ...) *)
  | Invalid_request of string  (** the request itself is malformed *)
  | Certification_failed of { machine : string; failed : string list }
      (** the independent certificate layer ([Check]) rejected a pipeline
          result: [failed] names the checks that did not pass *)
  | Job_crashed of { job : string; attempts : int; detail : string }
      (** a supervised job raised instead of returning: [job] identifies
          the work (machine/algorithm), [attempts] how many times the
          supervisor ran it before giving up (or [0] when it was
          quarantined without running), [detail] the exception and a
          backtrace head *)

val stage_name : stage -> string

(** [to_string e] is a one-line human-readable rendering. *)
val to_string : t -> string

(** [exit_code e] is the CLI exit code for [e]: 2 parse, 3 budget,
    4 infeasible, 5 invalid request, 6 certification failure, 7 job
    crash (distinct per constructor). *)
val exit_code : t -> int

(** [is_fatal e] holds for the exceptions no layer may turn into a
    value — [Out_of_memory], [Stack_overflow] and [Sys.Break]: the pool,
    the supervisor, the cache writer and the daemon re-raise them. *)
val is_fatal : exn -> bool
