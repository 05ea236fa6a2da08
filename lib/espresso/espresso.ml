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

(* The off-set side of EXPAND, fixed for a whole minimization: the off
   cubes, for each bit the off cubes that have it (in increasing order)
   and each bit's variable. *)
type tables = { offs : Bitvec.t array; has : int array array; var_of : int array }

let tables (off : Cover.t) =
  let dom = off.Cover.dom in
  let width = Domain.width dom in
  let offs = Array.of_list off.Cover.cubes in
  (* One sweep counts the off cubes per bit, a second files them. *)
  let fill = Array.make width 0 in
  Array.iter (Bitvec.iter (fun i -> fill.(i) <- fill.(i) + 1)) offs;
  let has = Array.map (fun n -> Array.make n 0) fill in
  Array.fill fill 0 width 0;
  Array.iteri
    (fun k o ->
      Bitvec.iter
        (fun i ->
          has.(i).(fill.(i)) <- k;
          fill.(i) <- fill.(i) + 1)
        o)
    offs;
  let var_of = Array.make width 0 in
  for v = 0 to Domain.num_vars dom - 1 do
    Array.fill var_of (Domain.offset dom v) (Domain.size dom v) v
  done;
  { offs; has; var_of }

(* Expand one cube to a prime: repeatedly raise bits, preferring bits set
   in many of the not-yet-covered companion cubes so that the expansion
   swallows as much of the rest of the cover as possible. A raise is
   valid iff the raised cube still meets no off cube; blocking counts
   answer that without a pass over the off-set. [blk.(k)] is the number
   of variables on which the cube and off cube [k] are disjoint, so
   raising bit [i] of variable [v] makes it meet off cube [k] iff [k]
   has [i], is disjoint from the cube on [v] and has [blk.(k) = 1]. A
   cube that already meets the off-set can never be raised.

   A rejected bit stays rejected: the off cube [k] that blocked it keeps
   [blk.(k) = 1] and stays disjoint from the cube on [v], since a raise
   that would change either is itself blocked by [k]. So one pass over
   the candidates decides every raise. [passes] counts the pass that
   would re-examine the rejects after a raise, too (2 when the cube
   grew, else 1), so it counts what the classic loop until nothing
   grows makes.

   [score.(i)] is the number of companions with bit [i]: a column sum
   the caller keeps over the companions as they leave. *)
let expand_cube dom { offs; has; var_of } c ~score ~passes ~raised =
  let cur = Bitvec.copy c in
  let blk = Array.map (Cube.distance dom cur) offs in
  let raisable = Array.for_all (fun b -> b > 0) blk in
  let apart v k = not (Cube.var_intersects dom cur offs.(k) v) in
  let blocked v ks =
    let rec from j = j < Array.length ks && ((blk.(ks.(j)) = 1 && apart v ks.(j)) || from (j + 1)) in
    from 0
  in
  let grew = ref false in
  if raisable then begin
    (* The companions never change within one expansion, so each
       candidate bit is scored once up front: an insertion sort, highest
       score first and ties in bit order. *)
    let candidates = Array.make (Domain.width dom) 0 and n = ref 0 in
    Bitvec.iter
      (fun i ->
        let j = ref !n in
        while !j > 0 && score.(candidates.(!j - 1)) < score.(i) do
          candidates.(!j) <- candidates.(!j - 1);
          decr j
        done;
        candidates.(!j) <- i;
        incr n)
      (Bitvec.complement cur);
    for j = 0 to !n - 1 do
      let i = candidates.(j) in
      let v = var_of.(i) and ks = has.(i) in
      if not (blocked v ks) then begin
        Array.iter (fun k -> if apart v k then blk.(k) <- blk.(k) - 1) ks;
        Bitvec.set cur i;
        grew := true;
        incr raised
      end
    done
  end;
  passes := !passes + if !grew then 2 else 1;
  cur

let expand_with ?budget tables (cover : Cover.t) =
  phase s_expand cover @@ fun () ->
  let dom = cover.Cover.dom in
  let width = Domain.width dom in
  let passes = ref 0 and raised = ref 0 in
  Fun.protect ~finally:(fun () ->
      Metrics.Registry.add c_expand_passes !passes;
      Metrics.Registry.add c_expand_raises !raised)
  @@ fun () ->
  (* Fewest-literal (largest) cubes first: their expansions swallow the
     most companions, shrinking the list early. The sort is stable. *)
  let ordered =
    List.map (fun c -> (Cube.num_literal_bits dom c, c)) cover.Cover.cubes
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  (* Column sums over the cubes not yet taken up: a cube leaves them
     when it is expanded, skipped or swallowed, so at each expansion they
     count exactly the companions still to come. *)
  let score = Array.make width 0 in
  let count d c = Bitvec.iter (fun i -> score.(i) <- score.(i) + d) c in
  List.iter (count 1) ordered;
  let rec loop acc = function
    | [] -> List.rev acc
    | c :: rest ->
        (* Out of budget: the remaining cubes stay unexpanded — still a
           valid cover of the same function, just not prime. *)
        if drained budget then List.rev_append acc (c :: rest)
        else begin
          count (-1) c;
          if List.exists (fun e -> Cube.contains e c) acc then loop acc rest
          else begin
            charge budget;
            let e = expand_cube dom tables c ~score ~passes ~raised in
            let rest =
              List.filter
                (fun r ->
                  let swallowed = Cube.contains e r in
                  if swallowed then count (-1) r;
                  not swallowed)
                rest
            in
            loop (e :: acc) rest
          end
        end
  in
  Cover.make dom (loop [] ordered)

let expand ?budget cover ~off = expand_with ?budget (tables off) cover

(* The questions below are asked of covers disjoint from the off-set,
   and answered on the care set alone. For such a cube [c] and any cover
   [r], [c ⊆ r ∪ dc] iff [c ∩ care ⊆ r], and [c ∖ (r ∪ dc)] is
   [(c ∩ care) ∖ r]: the don't-care set is never written down.
   [covered] asks [c ∩ care ⊆ rest] of a list of cubes [rest] (in
   IRREDUNDANT, a neighbour list). A point set [x] one cube of [rest]
   contains, or that none meets, is answered here; only the others take
   a tautology. *)
let covered dom ~(care : Cover.t) rest c =
  List.for_all
    (fun d ->
      match Cube.inter dom c d with
      | None -> true
      | Some x ->
          List.exists (fun r -> Cube.contains r x) rest
          || List.exists (fun r -> Cube.intersects dom r x) rest
             && Cover.covers_cube { Cover.dom; cubes = rest } x)
    care.Cover.cubes

(* IRREDUNDANT and REDUCE visit the cubes one by one, stably sorted on
   one minterm count per cube, and ask each question of the rest of the
   cover: the cubes visited before it that are still in the cover,
   newest first, then the cubes still to come. Every question is about
   a subcube [x] of the visited cube [c], and the kernel keeps only the
   cubes of the rest that meet [x] (its cofactor), so the cubes that
   miss [c] can be left out up front: the cofactor then holds the same
   cubes in the same order. Which cubes meet which is computed once.
   The cover only loses cubes and REDUCE only shrinks them, so a cube
   missing [c] at the start misses it to the end. *)
type visit = {
  cubes : Cube.t array; (* visiting order; REDUCE writes its reductions back *)
  meets : int array array; (* the other cubes each one meets, increasing *)
  live : bool array; (* false once a cube has left the cover *)
}

let visit dom ~largest_first (cover : Cover.t) =
  let keyed = Array.of_list (List.map (fun c -> (Cube.num_minterms dom c, c)) cover.Cover.cubes) in
  Array.stable_sort
    (fun (a, _) (b, _) -> if largest_first then Int.compare b a else Int.compare a b)
    keyed;
  let cubes = Array.map snd keyed in
  let n = Array.length cubes in
  let meets = Array.make n [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Cube.intersects dom cubes.(i) cubes.(j) then begin
        meets.(i) <- j :: meets.(i);
        meets.(j) <- i :: meets.(j)
      end
    done
  done;
  { cubes; meets = Array.map Array.of_list meets; live = Array.make n true }

(* The rest of the cover as cube [i] sees it, cut down to its
   neighbours: the live ones before it, newest first, then those after. *)
let rest v i =
  let nb = v.meets.(i) in
  let acc = ref [] in
  for k = Array.length nb - 1 downto 0 do
    if nb.(k) > i then acc := v.cubes.(nb.(k)) :: !acc
  done;
  Array.iter (fun j -> if j < i && v.live.(j) then acc := v.cubes.(j) :: !acc) nb;
  !acc

(* The cover left after the visit, in visiting order. *)
let remaining dom v =
  let acc = ref [] in
  for i = Array.length v.cubes - 1 downto 0 do
    if v.live.(i) then acc := v.cubes.(i) :: !acc
  done;
  Cover.make dom !acc

let irredundant ?budget (cover : Cover.t) ~(care : Cover.t) =
  phase s_irredundant cover @@ fun () ->
  let dom = cover.Cover.dom in
  (* Try to remove big cubes last: small, specific cubes are more likely
     redundant leftovers of expansion. *)
  let v = visit dom ~largest_first:false cover in
  let n = Array.length v.cubes in
  (* Out of budget: keep the rest — possibly redundant, still a cover. *)
  let rec loop i =
    if i < n && not (drained budget) then begin
      charge budget;
      if covered dom ~care (rest v i) v.cubes.(i) then v.live.(i) <- false;
      loop (i + 1)
    end
  in
  loop 0;
  remaining dom v

let reduce ?budget (cover : Cover.t) ~(care : Cover.t) =
  phase s_reduce cover @@ fun () ->
  let dom = cover.Cover.dom in
  (* Largest cubes first, per ESPRESSO: reducing big cubes frees room for
     subsequent reductions. *)
  let v = visit dom ~largest_first:true cover in
  let n = Array.length v.cubes in
  (* Out of budget: the remaining cubes stay unreduced (each reduction
     is independently sound, so a partial pass is too). *)
  let rec loop i =
    if i < n && not (drained budget) then begin
      charge budget;
      let c = v.cubes.(i) and rest = { Cover.dom; cubes = rest v i } in
      let unique =
        List.concat_map
          (fun d ->
            match Cube.inter dom c d with
            | None -> []
            | Some x -> (Cover.complement_within rest ~space:x).Cover.cubes)
          care.Cover.cubes
      in
      (match Cover.supercube (Cover.make dom unique) with
      | None -> v.live.(i) <- false (* fully covered elsewhere: drop *)
      | Some sc -> v.cubes.(i) <- sc);
      loop (i + 1)
    end
  in
  loop 0;
  remaining dom v

let essential_primes ?budget (cover : Cover.t) ~(care : Cover.t) =
  phase s_essential cover @@ fun () ->
  let dom = cover.Cover.dom in
  let essential c =
    (* Out of budget: treat the rest as non-essential (the set-aside is
       an optimization, not needed for correctness). *)
    (not (drained budget))
    &&
    let rest = Cover.make dom (List.filter (fun d -> not (Cube.equal d c)) cover.Cover.cubes) in
    charge budget;
    not (covered dom ~care rest.Cover.cubes c)
  in
  Cover.make dom (List.filter essential cover.Cover.cubes)

(* The set-aside of [minimize_off], read off IRREDUNDANT's verdicts
   instead of asked again. IRREDUNDANT keeps a cube only when the rest
   of the cover (the cubes kept before it and all those still pending)
   misses one of its care points, and afterwards the rest only shrinks;
   so in a cover IRREDUNDANT has finished, every cube covers a care
   point no other cube does, and {!essential_primes} would return all of
   them (a cover it has not finished means a drained budget, for which
   that returns none). The budget sees what [essential_primes] does: one
   pre-check per cube and one tick per cube until it drains, so the
   work counted and the point of a cap trip do not move. Returns the
   essential cubes and the rest, each in cover order. *)
let set_aside ?budget (f : Cover.t) =
  let dom = f.Cover.dom in
  let rest = ref [] in
  let ess =
    phase s_essential f @@ fun () ->
    let ess, r =
      List.partition
        (fun _ ->
          (not (drained budget))
          &&
          (charge budget;
           true))
        f.Cover.cubes
    in
    rest := r;
    Cover.make dom ess
  in
  (ess, Cover.make dom !rest)

let cost (c : Cover.t) = (Cover.size c, Cover.literal_cost c)

(* REDUCE ; EXPAND ; IRREDUNDANT from the prime irredundant cover [f]
   while the cost falls. *)
let improve ?budget ~tables ~care f =
  let best = ref f in
  (* The cost of the incumbent only changes when it is replaced: keep
     it hoisted out of the loop instead of recomputing per iteration. *)
  let best_cost = ref (cost f) in
  let continue_ = ref true in
  let iterations = ref 0 in
  while !continue_ && !iterations < 12 && !best.Cover.cubes <> [] && not (drained budget) do
    incr iterations;
    Metrics.Registry.inc c_reduce_iterations;
    let f = reduce ?budget !best ~care in
    let f = expand_with ?budget tables f in
    let f = irredundant ?budget f ~care in
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
  !best

let minimize_off ?budget ~(off : Cover.t) ~(care : Cover.t) (on : Cover.t) =
  Metrics.Registry.inc c_minimize_calls;
  phase s_minimize on @@ fun () ->
  let f = Cover.single_cube_containment on in
  if f.Cover.cubes = [] || drained budget then f
    (* An exhausted budget degrades to single-cube containment of the
       on-set: always a valid cover, computed in linear passes. *)
  else begin
    let tables = tables off in
    let f = expand_with ?budget tables f in
    let f = irredundant ?budget f ~care in
    (* Set the essential primes aside: they are in every solution, so the
       iteration only has to improve the rest, on the care points they
       leave (computed only when the iteration runs). IRREDUNDANT has
       just decided which cubes they are. *)
    let ess, f = set_aside ?budget f in
    let best =
      if f.Cover.cubes = [] || drained budget then f
      else improve ?budget ~tables ~care:(Cover.diff care ess) f
    in
    Cover.single_cube_containment (Cover.union ess best)
  end

let minimize ?budget ~dc on =
  minimize_off ?budget ~off:(off_set ~on ~dc) ~care:(Cover.diff on dc) on

let minimize_care ?budget ~(off : Cover.t) (on : Cover.t) =
  Metrics.Registry.inc c_minimize_calls;
  phase s_minimize on @@ fun () ->
  let f = Cover.single_cube_containment on in
  if f.Cover.cubes = [] || drained budget then f
  else begin
    let tables = tables off in
    improve ?budget ~tables ~care:on (irredundant ?budget (expand_with ?budget tables f) ~care:on)
  end
