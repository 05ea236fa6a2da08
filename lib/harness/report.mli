(** Text-table rendering helpers shared by the table drivers. *)

(** [print_table ppf ~title ~header rows] renders an aligned text table.
    Every row must have [List.length header] cells. *)
val print_table :
  Format.formatter -> title:string -> header:string list -> string list list -> unit

(** [opt_int] renders [Some n] as the number and [None] as ["-"]. *)
val opt_int : int option -> string

(** [spark values] renders a one-line unicode sparkline of the ratio
    series (missing points as spaces), for the figure reproductions. *)
val spark : float option list -> string
