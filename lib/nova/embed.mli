(** The backtracking face-assignment engine behind [pos_equiv]
    (Section 3.4): assigns faces of the k-cube to the elements of an
    input poset so that set-theoretic inclusion and intersection are
    preserved, walking the input graph with the paper's priority
    selection and verifying the conditions of Section 3.4.3
    incrementally.

    Category-1 and category-3 elements are selected and enumerated;
    category-2 elements are forced to the intersection of their fathers'
    faces. Singleton elements always receive level-0 faces, whose vertex
    is the state's code. *)

type level_policy =
  | Fixed_min  (** every selected element gets its minimum feasible level
                   (the [semiexact_code] restriction of Section 4.1) *)
  | Flexible of int
      (** levels from the minimum up to minimum + slack are enumerated
          per element inside the search — a cheap middle ground between
          [Fixed_min] and the full primary-level-vector enumeration *)
  | Dimvect of int array
      (** [levels.(id)] is the face level of category-1 element [id]
          (the primary level vector of Section 3.3.1); other elements
          use their minimum or, for category 3, any feasible level *)

type params = {
  k : int;  (** embedding dimension *)
  policy : level_policy;
  budget : Budget.t;
      (** charged one tick per attempted face assignment; shareable
          across calls (and with the caller, via {!Budget.sub}) so a
          sequence of searches runs under one budget *)
  output_constraints : Constraints.output_constraint list;
      (** covering relations rejected during search (io_semiexact) *)
}

type outcome =
  | Sat of { codes : int array; faces : Face.t array }
      (** [codes.(s)] is state [s]'s vertex; [faces.(id)] the face of
          poset element [id] *)
  | Unsat  (** the search space was exhausted without a solution *)
  | Exhausted  (** the work bound was hit first *)

(** [solve poset params] runs the backtracking search. *)
val solve : Input_poset.t -> params -> outcome
