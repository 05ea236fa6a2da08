(** Symbolic minimization revisited (Section 6.1).

    Produces a minimal encoding-independent sum-of-products cover of the
    FSM's combinational logic together with the directed acyclic graph of
    output covering constraints it relies on: an edge [(u, v, w)] means
    the code of next state [u] must cover bitwise the code of [v], and
    accepting the edges into [v] saved [w] product terms.

    Both of the paper's modifications are implemented:
    + each per-next-state minimization carries a complete description of
      the binary outputs (their on- and off-conditions participate), and
    + covering relations are accepted only when the minimization actually
      decreased the on-set cardinality of the next state.

    The translation of the final cover into a compatible Boolean
    representation is the ordered face hypercube embedding problem solved
    by {!Iohybrid}. *)

open Logic

type t = {
  symbolic : Symbolic.t;
  final_cover : Cover.t;  (** FinalP, over the symbolic domain *)
  graph : (int * int * int) list;  (** accepted edges [(u, v, w)]: u covers v *)
  problem : Iohybrid.problem;  (** clustered (IC, OC) for the encoder *)
}

(** Selection order of step 4 of the loop ("select a symbol"). The paper
    notes that any variation determines a different (IC, OC) pair; the
    ablation bench compares them. *)
type order =
  | Largest_first  (** decreasing on-set cardinality (the default) *)
  | Smallest_first
  | Index_order

(** [run ?order ?cover sym] executes the symbolic minimization loop.
    Its input cover is [Symbolic.minimize ?budget sym], unless [cover]
    passes that cover in already minimized. *)
val run : ?order:order -> ?budget:Budget.t -> ?cover:Cover.t -> Symbolic.t -> t

(** [upper_bound t] is the product-term cardinality of the final cover —
    the encoding-independent upper bound symbolic minimization promises
    when all its constraints are satisfied. *)
val upper_bound : t -> int
