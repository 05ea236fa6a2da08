(** Independent result certification for the encoding pipeline.

    NOVA's contract is that the encoded, ESPRESSO-minimized PLA is
    functionally identical to the symbolic FSM while satisfying the
    face-embedding and output-covering constraints the encoders claim.
    Since the fallback ladder can silently substitute a degraded
    encoding, every pipeline outcome can be re-verified here by code that
    shares {e nothing} with the code that produced it: this library links
    against [Logic]/[Bitvec]/[Fsm]/[Constraints] only — never against
    [Espresso], [Embed] or the [Iexact]-family encoders (see the dune
    file).

    A certificate re-establishes, from the raw artifacts:

    - {b injectivity}: the state codes are pairwise distinct and one per
      state (recomputed from the raw code array, not trusted from
      [Encoding.make]);
    - {b code length}: every code fits the declared number of bits;
    - {b face constraints}: every input constraint the encoder claimed
      satisfied really spans a face of the hypercube containing no
      foreign code (recomputed with {!Constraints.satisfied});
    - {b output covering}: every claimed covering relation [u > v] holds
      bitwise on the final codes, strictly;
    - {b cover containment}: the minimized cover contains the on-set and
      stays inside on-set ∪ DC-set of the re-encoded transition table
      (decided with [Logic] containment/tautology primitives);
    - {b trace equivalence}: the PLA is trace-equivalent to the symbolic
      machine via {!Simulate} — exhaustive for machines with few inputs,
      seeded-sampled beyond {!certify}'s [exhaustive_inputs] threshold.

    The checks that need a well-formed encoding (everything past code
    length) are skipped when injectivity or code length fail — the
    certificate already failed and [Encoding.t] cannot even be built.

    {!Inject} mutates artifacts to prove the checker effective: the test
    harness asserts every fault class is caught. *)

open Logic

(** What the producing pipeline claims about its result. Baselines claim
    nothing; the constraint-driven encoders claim the constraints they
    report satisfied. An empty claim set weakens the certificate (checks
    (c) and (d) of the paper contract become vacuous) but never fails
    it. *)
type claims = {
  claimed_ics : Bitvec.t list;
      (** state groups claimed to span faces (over [num_states] bits) *)
  claimed_ocs : (int * int) list;
      (** [(u, v)]: code of state [u] claimed to cover the code of [v] *)
}

val no_claims : claims

(** The raw artifacts of one pipeline outcome. Codes arrive as a bare
    array — deliberately unvalidated, so the certificate (and the fault
    injector) can represent ill-formed encodings that [Encoding.make]
    would reject. *)
type artifacts = {
  nbits : int;
  codes : int array;
  cover : Cover.t;  (** the minimized encoded cover, over {!Encoded.build}'s domain *)
  claims : claims;
}

type check_id =
  | Injectivity
  | Code_length
  | Face_constraints
  | Output_covering
  | Cover_containment
  | Trace_equivalence

(** [check_name id] is the stable spelling used in reports, JSON and CLI
    output ("injectivity", "code-length", ...). *)
val check_name : check_id -> string

val all_checks : check_id list

type outcome = {
  id : check_id;
  pass : bool;
  detail : string;  (** empty when passed; what went wrong otherwise *)
  span_s : float;  (** wall-clock seconds this check took *)
}

(** A certificate: the ordered check outcomes and the conjunction. *)
type t = { ok : bool; checks : outcome list }

(** [certify m artifacts] runs every applicable check and never raises.
    [exhaustive_inputs] (default 12) bounds the exhaustive trace check:
    machines with more primary inputs are verified with [sample_traces]
    (default 64) seeded random traces of [sample_length] (default 32)
    steps drawn from [seed] (default 0). Each check is also timed as
    the section ["check.<name>"] ({!Metrics.span}). *)
val certify :
  ?seed:int ->
  ?exhaustive_inputs:int ->
  ?sample_traces:int ->
  ?sample_length:int ->
  Fsm.t ->
  artifacts ->
  t

(** [failures c] is the failed subset of [c.checks]. *)
val failures : t -> outcome list

(** [summary c] is a one-line rendering: ["certificate OK (6 checks)"] or
    the failed check names with their details. *)
val summary : t -> string

(** [to_json c] is a machine-readable rendering (stable field names:
    [ok], [checks[].name/pass/span_s/detail]) for [BENCH_check.json];
    spans are rounded to the microsecond. *)
val to_json : t -> Json_min.t

(** Fault injection: mutate artifacts in ways that {e genuinely} break
    the contract, so the test harness can assert the checker catches
    them. Each injector vets its candidate mutation against the ground
    truth (the transition table, re-encoded with [Logic] primitives) and
    returns [None] only when the fault class cannot produce a genuine
    fault on this machine (e.g. corrupting a binary output column on a
    machine with no outputs). *)
module Inject : sig
  type fault =
    | Flip_code_bit  (** flip one bit of one state's code *)
    | Duplicate_code  (** overwrite a code with another state's code *)
    | Oversize_code  (** set a bit beyond the declared code length *)
    | Drop_cube  (** remove a cube from the minimized cover *)
    | Raise_cube  (** free a bound literal field of a cube *)
    | Corrupt_next_state  (** toggle a next-state output column bit *)
    | Corrupt_output  (** toggle a binary-output column bit *)
    | Bogus_ic_claim  (** claim an unsatisfied face constraint *)
    | Bogus_oc_claim  (** claim an unsatisfied covering relation *)

  val all : fault list
  val name : fault -> string

  (** [of_name s] inverts {!name} (the CLI's [--inject] spelling). *)
  val of_name : string -> fault option

  (** [apply m artifacts fault] is the mutated artifacts, or [None] when
      no genuine fault of this class exists for [m]. Deterministic: the
      first vetted candidate in a fixed scan order is returned. *)
  val apply : Fsm.t -> artifacts -> fault -> artifacts option
end
