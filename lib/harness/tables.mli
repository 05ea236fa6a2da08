(** Reproduction drivers: one entry point per table and figure of the
    paper's evaluation section (Section VII). Each [tableN]/[figN]
    computes its rows over the benchmark suite and prints the same
    columns the paper reports, followed by the paper-vs-measured summary
    ratios. [quick] skips the machines marked heavy in the suite. *)

(** Table I: benchmark statistics. *)
val table1 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table II: iexact vs ihybrid vs igreedy vs 1-hot. *)
val table2 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table III: best of ihybrid/igreedy vs KISS vs random. *)
val table3 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table IV: iohybrid vs ihybrid/igreedy vs best-of-NOVA vs random. *)
val table4 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table V: iohybrid vs the published Cappuccino/Cream results. *)
val table5 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table VI: ihybrid statistics (weights satisfied, code lengths, time). *)
val table6 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table VII: two-level and multilevel comparison with MUSTANG. *)
val table7 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table VIII (figure): area ratios KISS/NOVA and random/NOVA by
    increasing number of states. *)
val fig8 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table IX (figure): area ratios ihybrid/NOVA and iohybrid/NOVA. *)
val fig9 : ?quick:bool -> Format.formatter -> unit -> unit

(** Table X (figure): MUSTANG/NOVA cube and literal ratios. *)
val fig10 : ?quick:bool -> Format.formatter -> unit -> unit

(** [all ?quick ppf ()] prints every table and figure. *)
val all : ?quick:bool -> Format.formatter -> unit -> unit

(** The PLA areas behind "best of NOVA" on one machine: the best of
    NOVA, ihybrid, igreedy, and the best and average over the random
    pool. *)
type areas = {
  nova_best : int;
  ihybrid : int;
  igreedy : int;
  random_best : int;
  random_avg : int;
}

(** [areas name] is {!areas} for benchmark machine [name], from the
    same per-machine results the tables print. *)
val areas : string -> areas

(** The machines included at the given effort level, in Table I order. *)
val names : quick:bool -> string list
