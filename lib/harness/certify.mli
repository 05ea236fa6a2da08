(** Glue between the driver and the independent certificate layer
    ([lib/check]): packages a {!Driver.report} outcome as raw
    {!Check.artifacts} and maps a failed certificate to the typed
    {!Nova_error.Certification_failed} (exit code 6). The checking itself
    lives entirely in [Check] — this module only moves data. *)

(** [artifacts_of outcome impl] is the raw material the certificate
    re-verifies: the code array (copied out of the validated encoding),
    the declared length, the minimized cover, and the producing rung's
    claims. *)
val artifacts_of : Driver.outcome -> Encoded.result -> Check.artifacts

(** [run m outcome impl] certifies the report with {!Check.certify}. *)
val run : Fsm.t -> Driver.outcome -> Encoded.result -> Check.t

(** [error_of ~machine cert] is [Some (Certification_failed ...)] naming
    the failed checks, or [None] for a clean certificate. *)
val error_of : machine:string -> Check.t -> Nova_error.t option
