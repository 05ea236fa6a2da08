(** Minimal dependency-free JSON reader for the repo's own artifacts
    (trace exports, BENCH_*.json, the metrics snapshot), plus the one
    writer every JSON emitter goes through. Numbers are floats; objects
    keep key order; non-ASCII bytes in strings pass through verbatim. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
val of_file : string -> t

(** [render v] is [v] as compact one-line JSON (no newlines: control
    characters in strings are escaped), suitable for newline-delimited
    protocols. [of_string (render v) = v] for any [v] whose numbers are
    finite; non-finite floats render as [null]. Integral floats render
    without a decimal point, other numbers with the shorter of [%.15g]
    and [%.17g] that reads back equal. *)
val render : t -> string

val member : string -> t -> t option
val to_string : t -> string option
val to_float : t -> float option
val to_list : t -> t list option
