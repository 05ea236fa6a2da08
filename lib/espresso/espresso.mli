(** A two-level multiple-valued logic minimizer in the ESPRESSO style.

    Implements the classic iteration
    {[ EXPAND ; IRREDUNDANT ; loop (REDUCE ; EXPAND ; IRREDUNDANT) ]}
    over covers with an explicit off-set, in the formulation of Brayton
    et al. (Logic Minimization Algorithms for VLSI Synthesis, 1984):
    EXPAND tests raises with blocking counts against the off-set, from
    tables built once per minimization, and IRREDUNDANT, REDUCE and
    ESSENTIAL_PRIMES ask their questions on the care set (the on-set
    points no don't-care covers). Multiple-output
    functions are handled by the characteristic-function encoding of
    {!Logic.Cover} (the output is the last multiple-valued variable of
    the domain), which is exactly ESPRESSO-MV's positional treatment of
    the output part.

    Every test is exact — a cube is valid iff it meets no off point, a
    cube is redundant iff the rest covers its care points, a reduction is
    the supercube of a set difference — so the result depends only on the
    on-set's cube order and on the off and care {e sets}, never on how
    they are written down. That is what lets {!Fsm.Encoded} build the
    off-set from the table's rows instead of a complement.

    This is the substrate the NOVA paper calls ESPRESSO / ESPRESSO-MV. *)

open Logic

(** [off_set ~on ~dc] is the complement of [on OR dc]. *)
val off_set : on:Cover.t -> dc:Cover.t -> Cover.t

(** [expand cover ~off] makes every cube prime against the off-set [off]
    and removes cubes covered by the expansion of another, returning a
    prime cover of the same function (assuming [cover] was disjoint from
    [off]). *)
val expand : ?budget:Budget.t -> Cover.t -> off:Cover.t -> Cover.t

(** [irredundant cover ~care] greedily removes cubes whose care points
    the rest of the cover covers. [cover] must be disjoint from the
    off-set; [care] is the on-set minus the don't-care set, so "the rest
    covers [c]'s care points" is "the rest plus the don't-care set covers
    [c]". *)
val irredundant : ?budget:Budget.t -> Cover.t -> care:Cover.t -> Cover.t

(** [reduce cover ~care] replaces each cube by the smallest cube covering
    its care points no other cube covers, dropping cubes left with none. *)
val reduce : ?budget:Budget.t -> Cover.t -> care:Cover.t -> Cover.t

(** [essential_primes cover ~care] returns the cubes of [cover] covering
    some care point no other cube covers. Essential primes belong to
    every prime irredundant cover, so the minimization loop can set them
    aside (classic ESPRESSO ESSENTIAL_PRIMES step). On a cover
    {!irredundant} has finished it returns every cube, since a kept cube
    misses a care point of the rest and the rest only shrinks after it
    is kept; {!minimize_off} therefore reads its set-aside off
    IRREDUNDANT's verdicts instead of calling this, and ticks the budget
    the same way. Brayton et al.'s test, on the consensus of the other
    primes, is a different question (see ROADMAP). *)
val essential_primes : ?budget:Budget.t -> Cover.t -> care:Cover.t -> Cover.t

(** [minimize_off ~off ~care on] is a minimal cover [g] with
    [care <= g] and [g] disjoint from [off], for an on-set [on] whose
    don't-care set is everything outside [off] and [care]: [off] must be
    exactly [¬(on ∪ dc)] and [care] exactly [on ∖ dc], in any cube
    representation. After the first EXPAND and IRREDUNDANT it sets
    every cube IRREDUNDANT kept aside as essential (what
    {!essential_primes} returns on that cover) and iterates on the rest,
    which is empty unless the budget drained during the set-aside.
    With [budget], every per-cube step of the
    expand/irredundant/reduce loop pre-checks it: an exhausted budget
    (work cap, wall-clock deadline or cancellation) interrupts the
    iteration and the best valid cover found so far is returned —
    degrading, at the limit, to single-cube containment of the on-set. *)
val minimize_off : ?budget:Budget.t -> off:Cover.t -> care:Cover.t -> Cover.t -> Cover.t

(** [minimize ~dc on] is {!minimize_off} with the off-set and care set
    derived from [dc]: a minimal cover [g] with
    [on <= g <= on OR dc] (set inclusion of the functions). For PLA input
    and tests; the FSM covers build their off-sets directly. *)
val minimize : ?budget:Budget.t -> dc:Cover.t -> Cover.t -> Cover.t

(** [minimize_care ~off on] minimizes when only the on-set and off-set
    are explicit and the don't-care set is implicitly everything else:
    the result covers [on], avoids [off], and may use any other minterm.
    Unlike {!minimize_off} it sets no essential primes aside — the
    work-horse of the per-next-state minimizations inside symbolic
    minimization (Section 6.1). *)
val minimize_care : ?budget:Budget.t -> off:Cover.t -> Cover.t -> Cover.t
