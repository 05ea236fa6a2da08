open Logic

(* Probes: one timed section per minimizer phase, plus iteration
   counters. [expand] tallies its passes and raised bits in plain ints
   and publishes them once per call. *)
let s_offset = Metrics.section "espresso.off_set"
let s_expand = Metrics.section "espresso.expand"
let s_irredundant = Metrics.section "espresso.irredundant"
let s_reduce = Metrics.section "espresso.reduce"
let s_essential = Metrics.section "espresso.essential_primes"
let s_minimize = Metrics.section "espresso.minimize"
let c_expand_passes = Metrics.event "espresso.expand_passes"
let c_expand_raises = Metrics.event "espresso.expand_raised_bits"
let c_reduce_iterations = Metrics.event "espresso.reduce_iterations"
let c_minimize_calls = Metrics.event "espresso.minimize_calls"

let off_set ~on ~dc = Metrics.span s_offset (fun () -> Cover.complement (Cover.union on dc))

(* One minimizer phase as a timed section; when tracing, the span
   records the cover size going in (Begin) and coming out (End). The
   guard keeps the off path from computing sizes. *)
let phase s (cover : Cover.t) f =
  let attrs = if Trace.enabled () then [ ("cubes_in", Trace.Int (Cover.size cover)) ] else [] in
  Metrics.span s ~attrs ~end_attrs:(fun r -> [ ("cubes_out", Trace.Int (Cover.size r)) ]) f

(* Budget plumbing: [None] (the default) compiles to the historical
   unbudgeted behavior; with a budget, every per-cube step of
   expand/irredundant/reduce pre-checks it, so a deadline interrupts the
   minimizer between cube operations and the loop returns the best valid
   cover found so far. *)
let drained = function None -> false | Some b -> Budget.exhausted b
let charge = function None -> () | Some b -> ignore (Budget.tick b)

(* A cube may be raised at bit [i] iff the raised cube still intersects no
   off-set cube. Intersection with the off-set is the only validity
   criterion since the off-set is explicit. *)
let valid dom c off = not (List.exists (fun o -> Cube.intersects dom c o) off)

(* Expand one cube to a prime: repeatedly raise bits, preferring bits set
   in many of the not-yet-covered companion cubes so that the expansion
   swallows as much of the rest of the cover as possible. *)
let expand_cube dom c ~off ~companions ~passes ~raised =
  let width = Domain.width dom in
  let cur = Bitvec.copy c in
  (* The companions never change within one expansion, so each candidate
     bit is scored once up front; a raised bit enables re-examining the
     earlier rejects, so passes repeat only while the cube still grows. *)
  let score = Array.make width 0 in
  List.iter (fun comp -> Bitvec.iter (fun i -> score.(i) <- score.(i) + 1) comp) companions;
  let candidates =
    List.init width (fun i -> i)
    |> List.filter (fun i -> not (Bitvec.get cur i))
    |> List.sort (fun a b -> compare score.(b) score.(a))
  in
  let improved = ref true in
  while !improved do
    improved := false;
    incr passes;
    List.iter
      (fun i ->
        if not (Bitvec.get cur i) then begin
          Bitvec.set cur i;
          if valid dom cur off then begin
            improved := true;
            incr raised
          end
          else Bitvec.clear cur i
        end)
      candidates
  done;
  cur

let expand ?budget (cover : Cover.t) ~(off : Cover.t) =
  phase s_expand cover @@ fun () ->
  let dom = cover.Cover.dom in
  let passes = ref 0 and raised = ref 0 in
  Fun.protect ~finally:(fun () ->
      Metrics.Registry.add c_expand_passes !passes;
      Metrics.Registry.add c_expand_raises !raised)
  @@ fun () ->
  (* Fewest-literal (largest) cubes first: their expansions swallow the
     most companions, shrinking the list early. *)
  let ordered =
    List.sort (fun a b -> compare (Cube.num_literal_bits dom a) (Cube.num_literal_bits dom b)) cover.Cover.cubes
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | c :: rest ->
        (* Out of budget: the remaining cubes stay unexpanded — still a
           valid cover of the same function, just not prime. *)
        if drained budget then List.rev_append acc (c :: rest)
        else if List.exists (fun e -> Cube.contains e c) acc then loop acc rest
        else begin
          charge budget;
          let e = expand_cube dom c ~off:off.Cover.cubes ~companions:rest ~passes ~raised in
          let rest = List.filter (fun r -> not (Cube.contains e r)) rest in
          loop (e :: acc) rest
        end
  in
  Cover.make dom (loop [] ordered)

let irredundant ?budget (cover : Cover.t) ~(dc : Cover.t) =
  phase s_irredundant cover @@ fun () ->
  let dom = cover.Cover.dom in
  (* Try to remove big cubes last: small, specific cubes are more likely
     redundant leftovers of expansion. *)
  let ordered =
    List.sort (fun a b -> compare (Cube.num_minterms dom a) (Cube.num_minterms dom b)) cover.Cover.cubes
  in
  let redundant kept pending c =
    let rest = Cover.make dom (kept @ pending @ dc.Cover.cubes) in
    Cover.covers_cube rest c
  in
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: pending ->
        (* Out of budget: keep the rest — possibly redundant, still a
           cover. *)
        if drained budget then List.rev_append kept (c :: pending)
        else begin
          charge budget;
          if redundant kept pending c then loop kept pending else loop (c :: kept) pending
        end
  in
  Cover.make dom (loop [] ordered)

let reduce ?budget (cover : Cover.t) ~(dc : Cover.t) =
  phase s_reduce cover @@ fun () ->
  let dom = cover.Cover.dom in
  (* Largest cubes first, per ESPRESSO: reducing big cubes frees room for
     subsequent reductions. *)
  let ordered =
    List.sort (fun a b -> compare (Cube.num_minterms dom b) (Cube.num_minterms dom a)) cover.Cover.cubes
  in
  let rec loop done_ = function
    | [] -> List.rev done_
    | c :: pending ->
        (* Out of budget: the remaining cubes stay unreduced (each
           reduction is independently sound, so a partial pass is too). *)
        if drained budget then List.rev_append done_ (c :: pending)
        else begin
          charge budget;
          let rest = Cover.make dom (done_ @ pending @ dc.Cover.cubes) in
          let unique = Cover.complement_within rest ~space:c in
          match Cover.supercube unique with
          | None -> loop done_ pending (* fully covered elsewhere: drop *)
          | Some sc -> loop (sc :: done_) pending
        end
  in
  Cover.make dom (loop [] ordered)

let essential_primes ?budget (cover : Cover.t) ~(dc : Cover.t) =
  phase s_essential cover @@ fun () ->
  let dom = cover.Cover.dom in
  let essential c =
    (* Out of budget: treat the rest as non-essential (the set-aside is
       an optimization, not needed for correctness). *)
    (not (drained budget))
    &&
    let rest =
      Cover.make dom
        (dc.Cover.cubes @ List.filter (fun d -> not (Cube.equal d c)) cover.Cover.cubes)
    in
    charge budget;
    not (Cover.covers_cube rest c)
  in
  Cover.make dom (List.filter essential cover.Cover.cubes)

let cost (c : Cover.t) = (Cover.size c, Cover.literal_cost c)

let minimize_with_off ?budget ~(dc : Cover.t) ~(off : Cover.t) (on : Cover.t) =
  Metrics.Registry.inc c_minimize_calls;
  phase s_minimize on @@ fun () ->
  let dom = on.Cover.dom in
  let f = Cover.single_cube_containment on in
  if f.Cover.cubes = [] || drained budget then f
    (* An exhausted budget degrades to single-cube containment of the
       on-set: always a valid cover, computed in linear passes. *)
  else begin
    let f = expand ?budget f ~off in
    let f = irredundant ?budget f ~dc in
    (* Set the essential primes aside: they are in every solution, so the
       iteration only has to improve the rest. *)
    let ess = essential_primes ?budget f ~dc in
    let f =
      Cover.make dom
        (List.filter (fun c -> not (List.exists (Cube.equal c) ess.Cover.cubes)) f.Cover.cubes)
    in
    let dc = Cover.union dc ess in
    let best = ref f in
    (* The cost of the incumbent only changes when it is replaced: keep
       it hoisted out of the loop instead of recomputing per iteration. *)
    let best_cost = ref (cost f) in
    let continue_ = ref true in
    let iterations = ref 0 in
    while !continue_ && !iterations < 12 && !best.Cover.cubes <> [] && not (drained budget) do
      incr iterations;
      Metrics.Registry.inc c_reduce_iterations;
      let f = reduce ?budget !best ~dc in
      let f = expand ?budget f ~off in
      let f = irredundant ?budget f ~dc in
      let fc = cost f in
      (* A budget-truncated pass can leave reduced (non-prime) cubes in
         [f]; the incumbent only ever moves to a cheaper full pass, so
         [best] stays a valid cover either way. *)
      if fc < !best_cost && not (drained budget) then begin
        best := f;
        best_cost := fc
      end
      else continue_ := false
    done;
    Cover.single_cube_containment (Cover.union ess !best)
  end

let minimize ?budget ~dc on = minimize_with_off ?budget ~dc ~off:(off_set ~on ~dc) on

(* --- Care-set driven variant ------------------------------------------ *)

(* With dc = ¬(on ∪ off) implicit, a cube c of a valid cover (disjoint
   from off) is redundant iff the rest covers c ∩ on; and its reduction
   keeps only the part of c ∩ on the rest misses. *)

let irredundant_care ?budget (cover : Cover.t) ~(care : Cover.t) =
  let dom = cover.Cover.dom in
  let ordered =
    List.sort (fun a b -> compare (Cube.num_minterms dom a) (Cube.num_minterms dom b)) cover.Cover.cubes
  in
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: pending ->
        if drained budget then List.rev_append kept (c :: pending)
        else begin
          charge budget;
          let rest = Cover.make dom (kept @ pending) in
          let needed = Cover.intersect (Cover.make dom [ c ]) care in
          if List.for_all (fun d -> Cover.covers_cube rest d) needed.Cover.cubes then
            loop kept pending
          else loop (c :: kept) pending
        end
  in
  Cover.make dom (loop [] ordered)

let reduce_care ?budget (cover : Cover.t) ~(care : Cover.t) =
  let dom = cover.Cover.dom in
  let ordered =
    List.sort (fun a b -> compare (Cube.num_minterms dom b) (Cube.num_minterms dom a)) cover.Cover.cubes
  in
  let rec loop done_ = function
    | [] -> List.rev done_
    | c :: pending ->
        if drained budget then List.rev_append done_ (c :: pending)
        else begin
          charge budget;
          let rest = Cover.make dom (done_ @ pending) in
          let needed = Cover.intersect (Cover.make dom [ c ]) care in
          let unique =
            List.concat_map
              (fun d -> (Cover.complement_within rest ~space:d).Cover.cubes)
              needed.Cover.cubes
          in
          match Cover.supercube (Cover.make dom unique) with
          | None -> loop done_ pending
          | Some sc -> loop (sc :: done_) pending
        end
  in
  Cover.make dom (loop [] ordered)

let minimize_care ?budget ~(off : Cover.t) (on : Cover.t) =
  Metrics.Registry.inc c_minimize_calls;
  phase s_minimize on @@ fun () ->
  let f = Cover.single_cube_containment on in
  if f.Cover.cubes = [] || drained budget then f
  else begin
    let f = expand ?budget f ~off in
    let f = irredundant_care ?budget f ~care:on in
    let best = ref f in
    let best_cost = ref (cost f) in
    let continue_ = ref true in
    let iterations = ref 0 in
    while !continue_ && !iterations < 12 && not (drained budget) do
      incr iterations;
      Metrics.Registry.inc c_reduce_iterations;
      let f = reduce_care ?budget !best ~care:on in
      let f = expand ?budget f ~off in
      let f = irredundant_care ?budget f ~care:on in
      let fc = cost f in
      if fc < !best_cost && not (drained budget) then begin
        best := f;
        best_cost := fc
      end
      else continue_ := false
    done;
    !best
  end
