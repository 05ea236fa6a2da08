type stage = Iexact | Semiexact | Project | Ihybrid | Igreedy | Iohybrid | Iovariant | Baseline

type t =
  | Budget_exhausted of { stage : stage; reason : Budget.reason }
  | Parse_error of { file : string; line : int; col : int; msg : string }
  | Infeasible of { stage : stage; msg : string }
  | Invalid_request of string
  | Certification_failed of { machine : string; failed : string list }
  | Job_crashed of { job : string; attempts : int; detail : string }

let stage_name = function
  | Iexact -> "iexact"
  | Semiexact -> "semiexact"
  | Project -> "project"
  | Ihybrid -> "ihybrid"
  | Igreedy -> "igreedy"
  | Iohybrid -> "iohybrid"
  | Iovariant -> "iovariant"
  | Baseline -> "baseline"

let to_string = function
  | Budget_exhausted { stage; reason } ->
      Printf.sprintf "%s: budget exhausted (%s)" (stage_name stage) (Budget.reason_name reason)
  | Parse_error { file; line; col; msg } -> Printf.sprintf "%s:%d:%d: %s" file line col msg
  | Infeasible { stage; msg } -> Printf.sprintf "%s: infeasible: %s" (stage_name stage) msg
  | Invalid_request msg -> Printf.sprintf "invalid request: %s" msg
  | Certification_failed { machine; failed } ->
      Printf.sprintf "certification failed on %s: %s" machine (String.concat ", " failed)
  | Job_crashed { job; attempts; detail } ->
      Printf.sprintf "%s: crashed after %d attempt%s: %s" job attempts
        (if attempts = 1 then "" else "s")
        detail

(* One exit code per constructor, so scripts can tell failure modes
   apart. 1 is cmdliner's own; 124/125 are reserved by it too. *)
let exit_code = function
  | Parse_error _ -> 2
  | Budget_exhausted _ -> 3
  | Infeasible _ -> 4
  | Invalid_request _ -> 5
  | Certification_failed _ -> 6
  | Job_crashed _ -> 7

(* Fatal exceptions cross every barrier that turns the others into
   values (a pool slot, a retry, a cache write, a daemon response):
   absorbing an OOM or a user interrupt would hide a dying process. *)
let is_fatal = function Out_of_memory | Stack_overflow | Sys.Break -> true | _ -> false
