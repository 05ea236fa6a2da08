(** The protocol's newline-framed transport over a stream socket, shared
    by {!Client} and {!Server}: a write that a signal cannot cut short
    or repeat, and one line reader under {!Protocol.max_line_bytes}. *)

(** [write_all fd s] writes every byte of [s] exactly once and returns
    how many times a signal interrupted it. Each write is one
    [Unix.single_write], so an [EINTR] is retried from the bytes already
    written. Any other error raises [Unix.Unix_error]. *)
val write_all : Unix.file_descr -> string -> int

type reader

(** [reader fd] reads lines from [fd] through its own buffer. *)
val reader : Unix.file_descr -> reader

(** Why no line came: end of stream, a line longer than
    {!Protocol.max_line_bytes} (newline arrived or not: the stream
    cannot be resynchronized past it), or a read error. *)
type stop = Eof | Too_long | Failed of Unix.error

(** [read_line r] is the next line, without its newline. A read that
    a signal interrupted is retried. *)
val read_line : reader -> (string, stop) result
