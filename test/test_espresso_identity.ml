(* ESPRESSO without the don't-care complement returns the same covers.

   [Reference] keeps the dc-complement formulation the minimizer used
   before: the off-set is [¬(on ∪ dc)] by complement, expand tests every
   raise against every off cube, and irredundant, reduce and
   essential-primes ask their questions of [rest ∪ dc]. The fast
   minimizer builds its off-set from the table's rows, answers on the
   care set and expands with blocking counts; every one of those tests
   is exact, so both must return the same cube list, in the same order,
   on every problem — FSM covers of the suite and of the benchmark's
   generator families, symbolic covers, and random multiple-valued
   problems. The reference is the oracle, the way [Cover_naive] is for
   the unate kernels: slow, and for tests only. *)

open Logic

module Reference = struct
  let off_set ~on ~dc = Cover.complement (Cover.union on dc)

  (* Its own intersection test, variable by variable and bit by bit, so
     the oracle does not share the word-parallel kernel under test. *)
  let intersects dom a b =
    let meets v =
      let lo = Domain.offset dom v and sz = Domain.size dom v in
      let rec part p = p < sz && ((Bitvec.get a (lo + p) && Bitvec.get b (lo + p)) || part (p + 1)) in
      part 0
    in
    let rec all v = v = Domain.num_vars dom || (meets v && all (v + 1)) in
    all 0

  let valid dom c off = not (List.exists (fun o -> intersects dom c o) off)

  let expand_cube dom c ~off ~companions =
    let width = Domain.width dom in
    let cur = Bitvec.copy c in
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
      List.iter
        (fun i ->
          if not (Bitvec.get cur i) then begin
            Bitvec.set cur i;
            if valid dom cur off then improved := true else Bitvec.clear cur i
          end)
        candidates
    done;
    cur

  let expand (cover : Cover.t) ~(off : Cover.t) =
    let dom = cover.Cover.dom in
    let ordered =
      List.sort
        (fun a b -> compare (Cube.num_literal_bits dom a) (Cube.num_literal_bits dom b))
        cover.Cover.cubes
    in
    let rec loop acc = function
      | [] -> List.rev acc
      | c :: rest ->
          if List.exists (fun e -> Cube.contains e c) acc then loop acc rest
          else begin
            let e = expand_cube dom c ~off:off.Cover.cubes ~companions:rest in
            loop (e :: acc) (List.filter (fun r -> not (Cube.contains e r)) rest)
          end
    in
    Cover.make dom (loop [] ordered)

  let irredundant (cover : Cover.t) ~(dc : Cover.t) =
    let dom = cover.Cover.dom in
    let ordered =
      List.sort (fun a b -> compare (Cube.num_minterms dom a) (Cube.num_minterms dom b)) cover.Cover.cubes
    in
    let rec loop kept = function
      | [] -> List.rev kept
      | c :: pending ->
          if Cover.covers_cube (Cover.make dom (kept @ pending @ dc.Cover.cubes)) c then loop kept pending
          else loop (c :: kept) pending
    in
    Cover.make dom (loop [] ordered)

  let reduce (cover : Cover.t) ~(dc : Cover.t) =
    let dom = cover.Cover.dom in
    let ordered =
      List.sort (fun a b -> compare (Cube.num_minterms dom b) (Cube.num_minterms dom a)) cover.Cover.cubes
    in
    let rec loop done_ = function
      | [] -> List.rev done_
      | c :: pending -> (
          let rest = Cover.make dom (done_ @ pending @ dc.Cover.cubes) in
          match Cover.supercube (Cover.complement_within rest ~space:c) with
          | None -> loop done_ pending
          | Some sc -> loop (sc :: done_) pending)
    in
    Cover.make dom (loop [] ordered)

  let essential_primes (cover : Cover.t) ~(dc : Cover.t) =
    let dom = cover.Cover.dom in
    let essential c =
      let rest =
        Cover.make dom (dc.Cover.cubes @ List.filter (fun d -> not (Cube.equal d c)) cover.Cover.cubes)
      in
      not (Cover.covers_cube rest c)
    in
    Cover.make dom (List.filter essential cover.Cover.cubes)

  let cost (c : Cover.t) = (Cover.size c, Cover.literal_cost c)

  (* [improved] counts the REDUCE passes that lowered the cost. *)
  let improved = ref 0

  let loop ~off ~irr ~red f =
    let best = ref f and best_cost = ref (cost f) in
    let continue_ = ref true and iterations = ref 0 in
    while !continue_ && !iterations < 12 && !best.Cover.cubes <> [] do
      incr iterations;
      let f = irr (expand (red !best) ~off) in
      let fc = cost f in
      if fc < !best_cost then begin
        incr improved;
        best := f;
        best_cost := fc
      end
      else continue_ := false
    done;
    !best

  let minimize ~(dc : Cover.t) (on : Cover.t) =
    let off = off_set ~on ~dc in
    let dom = on.Cover.dom in
    let f = Cover.single_cube_containment on in
    if f.Cover.cubes = [] then f
    else begin
      let f = irredundant (expand f ~off) ~dc in
      let ess = essential_primes f ~dc in
      let f =
        Cover.make dom
          (List.filter (fun c -> not (List.exists (Cube.equal c) ess.Cover.cubes)) f.Cover.cubes)
      in
      let dc = Cover.union dc ess in
      let best = loop ~off ~irr:(irredundant ~dc) ~red:(reduce ~dc) f in
      Cover.single_cube_containment (Cover.union ess best)
    end

  (* With the don't-care set implicit, a cube is redundant iff the rest
     covers its on points, and reduces to the on points the rest misses. *)
  let irredundant_care (cover : Cover.t) ~(care : Cover.t) =
    let dom = cover.Cover.dom in
    let ordered =
      List.sort (fun a b -> compare (Cube.num_minterms dom a) (Cube.num_minterms dom b)) cover.Cover.cubes
    in
    let rec loop kept = function
      | [] -> List.rev kept
      | c :: pending ->
          let rest = Cover.make dom (kept @ pending) in
          let needed = Cover.intersect (Cover.make dom [ c ]) care in
          if List.for_all (fun d -> Cover.covers_cube rest d) needed.Cover.cubes then loop kept pending
          else loop (c :: kept) pending
    in
    Cover.make dom (loop [] ordered)

  let reduce_care (cover : Cover.t) ~(care : Cover.t) =
    let dom = cover.Cover.dom in
    let ordered =
      List.sort (fun a b -> compare (Cube.num_minterms dom b) (Cube.num_minterms dom a)) cover.Cover.cubes
    in
    let rec loop done_ = function
      | [] -> List.rev done_
      | c :: pending -> (
          let rest = Cover.make dom (done_ @ pending) in
          let needed = Cover.intersect (Cover.make dom [ c ]) care in
          let unique =
            List.concat_map (fun d -> (Cover.complement_within rest ~space:d).Cover.cubes) needed.Cover.cubes
          in
          match Cover.supercube (Cover.make dom unique) with
          | None -> loop done_ pending
          | Some sc -> loop (sc :: done_) pending)
    in
    Cover.make dom (loop [] ordered)

  let minimize_care ~(off : Cover.t) (on : Cover.t) =
    let f = Cover.single_cube_containment on in
    if f.Cover.cubes = [] then f
    else
      loop ~off ~irr:(irredundant_care ~care:on) ~red:(reduce_care ~care:on)
        (irredundant_care (expand f ~off) ~care:on)
end

(* EXPAND as it was before its tables were kept incrementally: the
   bit -> off-cube index rebuilt with one filter per bit, companion
   columns recounted per cube, [Cube.distance] field by field and
   literal counts recomputed inside the sort comparator. Same budget
   calls; returns the cover with its passes and raised bits. *)
module Expand_reference = struct
  let distance dom a b =
    let count = ref 0 in
    for v = 0 to Domain.num_vars dom - 1 do
      if not (Cube.var_intersects dom a b v) then incr count
    done;
    !count

  let drained = function None -> false | Some b -> Budget.exhausted b
  let charge = function None -> () | Some b -> ignore (Budget.tick b)

  let expand_cube dom c ~offs ~has ~var_of ~companions ~passes ~raised =
    let width = Domain.width dom in
    let cur = Bitvec.copy c in
    let blk = Array.map (distance dom cur) offs in
    let raisable = Array.for_all (fun b -> b > 0) blk in
    let apart v k = not (Cube.var_intersects dom cur offs.(k) v) in
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
          let v = var_of.(i) in
          if raisable && (not (Bitvec.get cur i))
             && not (Array.exists (fun k -> blk.(k) = 1 && apart v k) has.(i))
          then begin
            Array.iter (fun k -> if apart v k then blk.(k) <- blk.(k) - 1) has.(i);
            Bitvec.set cur i;
            improved := true;
            incr raised
          end)
        candidates
    done;
    cur

  let expand ?budget (cover : Cover.t) ~(off : Cover.t) =
    let dom = cover.Cover.dom in
    let passes = ref 0 and raised = ref 0 in
    let offs = Array.of_list off.Cover.cubes in
    let ks = List.init (Array.length offs) Fun.id in
    let has =
      Array.init (Domain.width dom) (fun i ->
          Array.of_list (List.filter (fun k -> Bitvec.get offs.(k) i) ks))
    in
    let var_of = Array.make (Domain.width dom) 0 in
    for v = 0 to Domain.num_vars dom - 1 do
      Array.fill var_of (Domain.offset dom v) (Domain.size dom v) v
    done;
    let ordered =
      List.sort
        (fun a b -> compare (Cube.num_literal_bits dom a) (Cube.num_literal_bits dom b))
        cover.Cover.cubes
    in
    let rec loop acc = function
      | [] -> List.rev acc
      | c :: rest ->
          if drained budget then List.rev_append acc (c :: rest)
          else if List.exists (fun e -> Cube.contains e c) acc then loop acc rest
          else begin
            charge budget;
            let e = expand_cube dom c ~offs ~has ~var_of ~companions:rest ~passes ~raised in
            loop (e :: acc) (List.filter (fun r -> not (Cube.contains e r)) rest)
          end
    in
    let cubes = loop [] ordered in
    (Cover.make dom cubes, !passes, !raised)
end

(* [minimize_off] with the essential primes asked again, cube by cube,
   after IRREDUNDANT: the formulation the set-aside replaces. *)
module Minimize_reference = struct
  let drained = Expand_reference.drained

  let improve ?budget ~off ~care f =
    let cost (c : Cover.t) = (Cover.size c, Cover.literal_cost c) in
    let best = ref f and best_cost = ref (cost f) in
    let continue_ = ref true and iterations = ref 0 in
    while !continue_ && !iterations < 12 && !best.Cover.cubes <> [] && not (drained budget) do
      incr iterations;
      let f = Espresso.reduce ?budget !best ~care in
      let f = Espresso.expand ?budget f ~off in
      let f = Espresso.irredundant ?budget f ~care in
      let fc = cost f in
      if fc < !best_cost && not (drained budget) then begin
        best := f;
        best_cost := fc
      end
      else continue_ := false
    done;
    !best

  let minimize_off ?budget ~(off : Cover.t) ~(care : Cover.t) (on : Cover.t) =
    let dom = on.Cover.dom in
    let f = Cover.single_cube_containment on in
    if f.Cover.cubes = [] || drained budget then f
    else begin
      let f = Espresso.irredundant ?budget (Espresso.expand ?budget f ~off) ~care in
      let ess = Espresso.essential_primes ?budget f ~care in
      let f =
        Cover.make dom
          (List.filter (fun c -> not (List.exists (Cube.equal c) ess.Cover.cubes)) f.Cover.cubes)
      in
      let best =
        if f.Cover.cubes = [] || drained budget then f
        else improve ?budget ~off ~care:(Cover.diff care ess) f
      in
      Cover.single_cube_containment (Cover.union ess best)
    end
end

(* IRREDUNDANT and REDUCE as they were before the neighbour lists: the
   minterm count recomputed inside the sort comparator, the whole rest
   of the cover rebuilt per cube, and one tautology (or complement) per
   care cube the visited cube meets. Same budget calls. *)
module Visit_reference = struct
  let drained = Expand_reference.drained
  let charge = Expand_reference.charge

  let covered dom ~(care : Cover.t) r c =
    List.for_all
      (fun d -> match Cube.inter dom c d with None -> true | Some x -> Cover.covers_cube r x)
      care.Cover.cubes

  let irredundant ?budget (cover : Cover.t) ~(care : Cover.t) =
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
            if covered dom ~care (Cover.make dom (kept @ pending)) c then loop kept pending
            else loop (c :: kept) pending
          end
    in
    Cover.make dom (loop [] ordered)

  let reduce ?budget (cover : Cover.t) ~(care : Cover.t) =
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
            let unique =
              List.concat_map
                (fun d ->
                  match Cube.inter dom c d with
                  | None -> []
                  | Some x -> (Cover.complement_within rest ~space:x).Cover.cubes)
                care.Cover.cubes
            in
            match Cover.supercube (Cover.make dom unique) with
            | None -> loop done_ pending
            | Some sc -> loop (sc :: done_) pending
          end
    in
    Cover.make dom (loop [] ordered)
end

let same_cubes ctx (want : Cover.t) (got : Cover.t) =
  if not (List.equal Cube.equal want.Cover.cubes got.Cover.cubes) then
    Alcotest.failf "%s: %d reference cubes, %d fast cubes, or a different order" ctx
      (Cover.size want) (Cover.size got)

(* --- FSM corpus --------------------------------------------------------- *)

(* 1-hot up to 60 states, plus [randoms] seeded minimum-width encodings. *)
let encodings ~randoms (m : Fsm.t) =
  let n = Array.length m.Fsm.states in
  (if n <= 60 then [ ("1-hot", Encoding.one_hot n) ] else [])
  @ List.init randoms (fun s ->
        ( Printf.sprintf "random seed %d" s,
          Encoding.random (Random.State.make [| s |]) ~num_states:n ~nbits:(Fsm.min_code_length m) ))

let check_encoded (m : Fsm.t) (name, e) =
  let ctx = Printf.sprintf "%s under %s" m.Fsm.name name in
  let t = Encoded.build m e in
  same_cubes ctx (Reference.minimize ~dc:(Encoded.dc t) t.Encoded.on) (Encoded.minimize t)

let check_off_encoded (m : Fsm.t) (name, e) =
  let t = Encoded.build m e in
  let dc = Encoded.dc t in
  Alcotest.(check bool)
    (Printf.sprintf "%s under %s: off = ¬(on ∪ dc)" m.Fsm.name name)
    true
    (Cover.equivalent t.Encoded.off (Cover.complement (Cover.union t.Encoded.on dc)));
  Alcotest.(check bool)
    (Printf.sprintf "%s under %s: care = on ∖ dc" m.Fsm.name name)
    true
    (Cover.equivalent t.Encoded.care (Cover.diff t.Encoded.on dc))

let suite_machines () = List.map (fun e -> Lazy.force e.Benchmarks.Suite.machine) Benchmarks.Suite.all

(* The serve-miss bases and the report-pool families of the repository
   benchmark: (inputs, outputs, states, rows, generator seed). *)
let generated =
  List.map (fun s -> (5, 4, 12, 48, s)) [ 2; 19; 8; 20; 4; 5; 9; 24; 11; 18; 7; 26; 6; 16; 54; 404 ]
  @ List.map (fun s -> (5, 4, 10, 40, s)) [ 1; 10; 28; 33; 36; 42; 47; 79 ]
  @ [ (4, 3, 10, 40, 96) ]
  @ List.map (fun g -> (3, 2, 5, 16, g)) [ 0; 2; 3; 4; 5 ]
  @ List.map (fun g -> (3, 3, 6, 20, g)) [ 1; 2; 3; 4; 6 ]
  @ List.map (fun g -> (4, 3, 7, 24, g)) [ 5; 10; 11; 16; 19 ]
  @ List.map (fun g -> (4, 2, 6, 24, g)) [ 1; 3; 4; 5; 6 ]

let generated_machines () =
  List.map
    (fun (i, o, s, r, g) ->
      Benchmarks.Generator.generate
        ~name:(Printf.sprintf "g%d_%d_%d_%d_%d" i o s r g)
        ~num_inputs:i ~num_outputs:o ~num_states:s ~num_rows:r ~seed:g)
    generated

let test_suite_encoded () =
  List.iter (fun m -> List.iter (check_encoded m) (encodings ~randoms:3 m)) (suite_machines ())

let test_generated_encoded () =
  List.iter (fun m -> List.iter (check_encoded m) (encodings ~randoms:3 m)) (generated_machines ())

let test_symbolic () =
  List.iter
    (fun m ->
      let sym = Symbolic.of_fsm m in
      same_cubes (m.Fsm.name ^ " symbolic")
        (Reference.minimize ~dc:(Symbolic.dc sym) sym.Symbolic.on)
        (Symbolic.minimize sym))
    (suite_machines () @ generated_machines ())

let test_off_sets () =
  List.iter
    (fun m ->
      List.iter (check_off_encoded m) (encodings ~randoms:1 m);
      let sym = Symbolic.of_fsm m in
      let dc = Symbolic.dc sym in
      Alcotest.(check bool)
        (m.Fsm.name ^ " symbolic: off = ¬(on ∪ dc)")
        true
        (Cover.equivalent sym.Symbolic.off (Cover.complement (Cover.union sym.Symbolic.on dc)));
      Alcotest.(check bool)
        (m.Fsm.name ^ " symbolic: care = on ∖ dc")
        true
        (Cover.equivalent sym.Symbolic.care (Cover.diff sym.Symbolic.on dc)))
    (List.filter (fun m -> Array.length m.Fsm.states <= 60) (suite_machines ()) @ generated_machines ())

(* --- random multiple-valued problems ------------------------------------ *)

let gen_cube dom =
  let open QCheck.Gen in
  let n = Domain.num_vars dom in
  let rec fields v c =
    if v = n then return c
    else
      let sz = Domain.size dom v in
      list_size (int_range 1 sz) (int_bound (sz - 1)) >>= fun parts ->
      fields (v + 1) (Cube.set_var dom c v (List.sort_uniq compare parts))
  in
  fields 0 (Cube.full dom)

(* A domain of 2 to 4 variables of 2 to 4 parts, an on-set of up to
   [on] cubes and a second cover of up to [other] cubes. *)
let gen_problem ~on ~other =
  QCheck.make
    ~print:(fun (sizes, a, b) ->
      Printf.sprintf "dom=[%s] |on|=%d |other|=%d"
        (String.concat ";" (List.map string_of_int sizes))
        (List.length a) (List.length b))
    QCheck.Gen.(
      list_size (int_range 2 4) (int_range 2 4) >>= fun sizes ->
      let dom = Domain.create (Array.of_list sizes) in
      list_size (int_bound on) (gen_cube dom) >>= fun a ->
      list_size (int_bound other) (gen_cube dom) >>= fun b -> return (sizes, a, b))

let prop_minimize_identity =
  QCheck.Test.make ~name:"minimize ~dc: same cube list as the dc-complement reference" ~count:300
    (gen_problem ~on:8 ~other:4) (fun (sizes, on, dc) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on and dc = Cover.make dom dc in
      List.equal Cube.equal (Reference.minimize ~dc on).Cover.cubes
        (Espresso.minimize ~dc on).Cover.cubes)

(* The off cover is a random cover minus the on-set, so the instance is
   consistent: Symbmin's problems never assert an on point off. *)
let care_instance (sizes, on, off) =
  let dom = Domain.create (Array.of_list sizes) in
  let on = Cover.make dom on in
  (on, Cover.diff (Cover.make dom off) on)

let prop_minimize_care_identity =
  QCheck.Test.make ~name:"minimize_care: same cube list as the reference" ~count:300
    (gen_problem ~on:8 ~other:6) (fun p ->
      let on, off = care_instance p in
      List.equal Cube.equal (Reference.minimize_care ~off on).Cover.cubes
        (Espresso.minimize_care ~off on).Cover.cubes)

(* The corpus must reach REDUCE: count the fast minimizer's iterations
   and the reference passes that lowered the cost on a fixed sample. *)
let test_care_corpus_reduces () =
  let iterations () =
    Option.value ~default:0 (List.assoc_opt "espresso.reduce_iterations" (Metrics.events ()))
  in
  let rand = Random.State.make [| 20261017 |] in
  let before = iterations () in
  Reference.improved := 0;
  for _ = 1 to 300 do
    let on, off = care_instance (QCheck.Gen.generate1 ~rand (QCheck.gen (gen_problem ~on:8 ~other:6))) in
    same_cubes "minimize_care" (Reference.minimize_care ~off on) (Espresso.minimize_care ~off on)
  done;
  Alcotest.(check bool) "espresso.reduce_iterations > 0" true (iterations () > before);
  Alcotest.(check bool) "some REDUCE pass lowered the cost" true (!Reference.improved > 0)

(* --- EXPAND against its former tables ------------------------------------ *)

(* Wide domains: with probability 1/2 a prefix of exactly 62 bits (3-part
   and 2-part fields) puts a 2-part field across the first word
   boundary, and a tail of up to 39 more variables takes widths past
   one word and sometimes two; otherwise 2 to 12 variables. Fields beyond the prefix are
   2-part two times in three, else 3 to 5 parts. *)
let gen_wide_sizes st =
  let r k = Random.State.int st k in
  let tail n = List.init n (fun _ -> if r 3 = 0 then 3 + r 3 else 2) in
  if Random.State.bool st then begin
    let threes = 2 * r 6 in
    let prefix = List.init threes (fun _ -> 3) @ List.init ((62 - (3 * threes)) / 2) (fun _ -> 2) in
    let prefix = List.map snd (List.sort compare (List.map (fun x -> (r 1000, x)) prefix)) in
    prefix @ [ 2 ] @ tail (r 40)
  end
  else tail (2 + r 11)

(* A cube whose fields are full with probability 7/10, otherwise a
   random non-empty part set. *)
let gen_sparse_cube st dom =
  let c = Cube.full dom in
  for v = 0 to Domain.num_vars dom - 1 do
    if Random.State.int st 10 >= 7 then begin
      let sz = Domain.size dom v in
      let parts = List.filter (fun _ -> Random.State.bool st) (List.init sz Fun.id) in
      let parts = if parts = [] then [ Random.State.int st sz ] else parts in
      Bitvec.clear_range c (Domain.offset dom v) sz;
      List.iter (fun p -> Bitvec.set c (Domain.offset dom v + p)) parts
    end
  done;
  c

(* Off cubes are carved away from every on cube they meet (one field
   replaced by the complement of the on cube's), and dropped when that
   fails: the problem then has cubes that can grow. One problem in four
   keeps a raw off cube, so some cubes meet the off-set and cannot. *)
let gen_expand_problem =
  QCheck.make
    ~print:(fun (sizes, on, off, cap) ->
      Printf.sprintf "dom=[%s] |on|=%d |off|=%d cap=%s"
        (String.concat ";" (List.map string_of_int sizes))
        (List.length on) (List.length off)
        (match cap with None -> "none" | Some k -> string_of_int k))
    (fun st ->
      let sizes = gen_wide_sizes st in
      let dom = Domain.create (Array.of_list sizes) in
      let on = List.init (1 + Random.State.int st 10) (fun _ -> gen_sparse_cube st dom) in
      let carve o =
        List.fold_left
          (fun o c ->
            match o with
            | Some o when Cube.intersects dom o c -> (
                let vs =
                  List.filter (fun v -> not (Cube.var_full dom c v)) (List.init (Domain.num_vars dom) Fun.id)
                in
                match vs with
                | [] -> None
                | _ ->
                    let v = List.nth vs (Random.State.int st (List.length vs)) in
                    let lo = Domain.offset dom v in
                    let o = Bitvec.copy o in
                    for p = 0 to Domain.size dom v - 1 do
                      if Bitvec.get c (lo + p) then Bitvec.clear o (lo + p) else Bitvec.set o (lo + p)
                    done;
                    Some o)
            | o -> o)
          (Some o) on
        |> Option.map (fun o -> (o, List.exists (Cube.intersects dom o) on))
      in
      let raw = Random.State.int st 4 = 0 in
      let off =
        List.filter_map
          (fun _ ->
            let o = gen_sparse_cube st dom in
            match carve o with
            | Some (o, false) -> Some o
            | Some (_, true) | None -> if raw then Some o else None)
          (List.init (Random.State.int st 25) Fun.id)
      in
      let cap = if Random.State.int st 3 = 0 then Some (Random.State.int st 6) else None in
      (sizes, on, off, cap))

let event_value name = Metrics.Registry.counter_value (Metrics.event name)

let prop_expand_identity =
  QCheck.Test.make ~name:"expand: same cubes, order, passes, raised bits and ticks as its former tables"
    ~count:400 gen_expand_problem (fun (sizes, on, off, cap) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on and off = Cover.make dom off in
      let budget () = Option.map (fun max_work -> Budget.create ~max_work ()) cap in
      let b_ref = budget () and b_new = budget () in
      let want, passes, raised = Expand_reference.expand ?budget:b_ref on ~off in
      let was = Metrics.Registry.enabled () in
      Metrics.Registry.set_enabled true;
      let p0 = event_value "espresso.expand_passes" and r0 = event_value "espresso.expand_raised_bits" in
      let got = Espresso.expand ?budget:b_new on ~off in
      let p1 = event_value "espresso.expand_passes" and r1 = event_value "espresso.expand_raised_bits" in
      Metrics.Registry.set_enabled was;
      let spent = Option.map Budget.spent in
      List.equal Cube.equal want.Cover.cubes got.Cover.cubes
      && p1 - p0 = passes && r1 - r0 = raised
      && spent b_ref = spent b_new)

let prop_distance =
  QCheck.Test.make ~name:"Cube.distance counts disjoint fields, word boundaries included" ~count:300
    gen_expand_problem (fun (sizes, on, off, _) ->
      let dom = Domain.create (Array.of_list sizes) in
      List.for_all
        (fun a -> List.for_all (fun b -> Cube.distance dom a b = Expand_reference.distance dom a b) (on @ off))
        on)

(* The generator really reaches the cases the word-parallel kernel
   splits on: a 2-part field across a word boundary, widths past one
   word, MV fields. *)
let test_wide_corpus () =
  let rand = Random.State.make [| 20261018 |] in
  let straddles = ref 0 and wide = ref 0 and mv = ref 0 in
  for _ = 1 to 200 do
    let sizes, _, _, _ = QCheck.Gen.generate1 ~rand (QCheck.gen gen_expand_problem) in
    let dom = Domain.create (Array.of_list sizes) in
    if Domain.width dom > Bitvec.bits_per_word then incr wide;
    if List.exists (fun s -> s > 2) sizes then incr mv;
    if Array.exists (fun v -> Domain.size dom v = 2) (Domain.other_vars dom) then incr straddles
  done;
  Alcotest.(check bool) "some 2-part field straddles a word" true (!straddles > 0);
  Alcotest.(check bool) "some domain is wider than a word" true (!wide > 0);
  Alcotest.(check bool) "some domain has an MV field" true (!mv > 0)

(* --- the essential-prime set-aside ---------------------------------------- *)

let tick_machines () = List.map Benchmarks.Suite.find [ "lion"; "dk16"; "bbara" ]

let tick_encodings (m : Fsm.t) =
  let n = Array.length m.Fsm.states in
  [
    ("1-hot", Encoding.one_hot n);
    ( "random seed 1",
      Encoding.random (Random.State.make [| 1 |]) ~num_states:n ~nbits:(Fsm.min_code_length m) );
  ]

(* Every cap from the tick before the set-aside to the tick after it:
   the cap trips before it, at each of its cubes, and after it. *)
let test_set_aside_ticks () =
  List.iter
    (fun (m : Fsm.t) ->
      List.iter
        (fun (name, e) ->
          let t = Encoded.build m e in
          let on = t.Encoded.on and off = t.Encoded.off and care = t.Encoded.care in
          let before = Budget.create () in
          let f =
            Espresso.irredundant ~budget:before
              (Espresso.expand ~budget:before (Cover.single_cube_containment on) ~off)
              ~care
          in
          let first = Budget.spent before in
          for cap = first - 1 to first + Cover.size f + 1 do
            let ctx = Printf.sprintf "%s under %s, cap %d" m.Fsm.name name cap in
            let b_ref = Budget.create ~max_work:cap () and b_new = Budget.create ~max_work:cap () in
            same_cubes ctx
              (Minimize_reference.minimize_off ~budget:b_ref ~off ~care on)
              (Espresso.minimize_off ~budget:b_new ~off ~care on);
            Alcotest.(check int) (ctx ^ ": Budget.spent") (Budget.spent b_ref) (Budget.spent b_new)
          done;
          let b_ref = Budget.create () and b_new = Budget.create () in
          same_cubes (m.Fsm.name ^ " unlimited")
            (Minimize_reference.minimize_off ~budget:b_ref ~off ~care on)
            (Espresso.minimize_off ~budget:b_new ~off ~care on);
          Alcotest.(check int)
            (m.Fsm.name ^ " unlimited: Budget.spent")
            (Budget.spent b_ref) (Budget.spent b_new))
        (tick_encodings m))
    (tick_machines ())

(* The invariant the set-aside rests on: ESSENTIAL_PRIMES keeps every
   cube of a cover IRREDUNDANT has finished. *)
let check_all_essential ctx ~off ~care on =
  let f = Espresso.irredundant (Espresso.expand (Cover.single_cube_containment on) ~off) ~care in
  same_cubes (ctx ^ ": essential_primes of an irredundant cover") f (Espresso.essential_primes f ~care)

let test_irredundant_all_essential () =
  List.iter
    (fun (m : Fsm.t) ->
      List.iter
        (fun (name, e) ->
          let t = Encoded.build m e in
          check_all_essential (m.Fsm.name ^ " under " ^ name) ~off:t.Encoded.off ~care:t.Encoded.care
            t.Encoded.on)
        (encodings ~randoms:1 m);
      let sym = Symbolic.of_fsm m in
      check_all_essential (m.Fsm.name ^ " symbolic") ~off:sym.Symbolic.off ~care:sym.Symbolic.care
        sym.Symbolic.on)
    (List.filter (fun m -> Array.length m.Fsm.states <= 32) (suite_machines ()) @ generated_machines ())

let prop_irredundant_all_essential =
  QCheck.Test.make ~name:"essential_primes keeps every cube of an irredundant cover" ~count:300
    (gen_problem ~on:8 ~other:4) (fun (sizes, on, dc) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on and dc = Cover.make dom dc in
      let off = Espresso.off_set ~on ~dc and care = Cover.diff on dc in
      let f = Espresso.irredundant (Espresso.expand (Cover.single_cube_containment on) ~off) ~care in
      List.equal Cube.equal f.Cover.cubes (Espresso.essential_primes f ~care).Cover.cubes)

(* --- IRREDUNDANT and REDUCE on neighbour lists ----------------------------- *)

(* One phase against its reference: the same cubes in the same order and
   the same [Budget.spent], unbounded or under [cap]. *)
let same_visit ctx ?cap ~care phase reference cover =
  let budget () = Option.map (fun max_work -> Budget.create ~max_work ()) cap in
  let b_ref = budget () and b_new = budget () in
  same_cubes ctx (reference ?budget:b_ref cover ~care) (phase ?budget:b_new cover ~care);
  let spent = Option.fold ~none:(-1) ~some:Budget.spent in
  Alcotest.(check int) (ctx ^ ": Budget.spent") (spent b_ref) (spent b_new)

(* Both phases on the covers a minimization hands them: IRREDUNDANT on
   the first expansion, REDUCE on its result, IRREDUNDANT again on the
   next expansion. *)
let check_visits ctx ?cap ~off ~care on =
  let f = Espresso.expand (Cover.single_cube_containment on) ~off in
  same_visit (ctx ^ ": irredundant") ?cap ~care Espresso.irredundant Visit_reference.irredundant f;
  let f = Espresso.irredundant f ~care in
  same_visit (ctx ^ ": reduce") ?cap ~care Espresso.reduce Visit_reference.reduce f;
  let g = Espresso.expand (Espresso.reduce f ~care) ~off in
  same_visit (ctx ^ ": irredundant after reduce") ?cap ~care Espresso.irredundant
    Visit_reference.irredundant g

let test_visits_fsm () =
  List.iter
    (fun (m : Fsm.t) ->
      List.iter
        (fun (name, e) ->
          let t = Encoded.build m e in
          check_visits (m.Fsm.name ^ " under " ^ name) ~off:t.Encoded.off ~care:t.Encoded.care t.Encoded.on)
        (encodings ~randoms:1 m);
      let sym = Symbolic.of_fsm m in
      check_visits (m.Fsm.name ^ " symbolic") ~off:sym.Symbolic.off ~care:sym.Symbolic.care sym.Symbolic.on)
    (suite_machines () @ generated_machines ())

(* The wide corpus, under its caps: the minimization's covers, and the
   raw on cubes against the off cubes as the care set, where many
   questions meet no neighbour or one that contains them. *)
let prop_visits_wide =
  QCheck.Test.make ~name:"irredundant and reduce: same cubes and ticks as the whole-rest reference"
    ~count:300 gen_expand_problem (fun (sizes, on, off, cap) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on and off = Cover.make dom off in
      check_visits "wide" ?cap ~off ~care:on on;
      same_visit "wide raw irredundant" ?cap ~care:off Espresso.irredundant Visit_reference.irredundant on;
      same_visit "wide raw reduce" ?cap ~care:off Espresso.reduce Visit_reference.reduce on;
      true)

(* Every cap from none to one past the last tick of each phase. *)
let test_visit_ticks () =
  List.iter
    (fun (m : Fsm.t) ->
      List.iter
        (fun (name, e) ->
          let t = Encoded.build m e in
          let care = t.Encoded.care in
          let f = Espresso.expand (Cover.single_cube_containment t.Encoded.on) ~off:t.Encoded.off in
          let g = Espresso.irredundant f ~care in
          let at phase reference cover =
            for cap = 0 to Cover.size cover + 1 do
              let ctx = Printf.sprintf "%s under %s, cap %d" m.Fsm.name name cap in
              same_visit ctx ~cap ~care phase reference cover
            done
          in
          at Espresso.irredundant Visit_reference.irredundant f;
          at Espresso.reduce Visit_reference.reduce g)
        (tick_encodings m))
    (tick_machines ())

let suite =
  [
    Alcotest.test_case "Encoded.minimize = reference on the suite (1-hot + 3 random)" `Quick
      test_suite_encoded;
    Alcotest.test_case "Encoded.minimize = reference on the generator families" `Quick
      test_generated_encoded;
    Alcotest.test_case "Symbolic.minimize = reference on suite and generated" `Quick test_symbolic;
    Alcotest.test_case "off = ¬(on ∪ dc) and care = on ∖ dc, Encoded and Symbolic" `Quick
      test_off_sets;
    QCheck_alcotest.to_alcotest prop_minimize_identity;
    QCheck_alcotest.to_alcotest prop_minimize_care_identity;
    Alcotest.test_case "minimize_care corpus exercises REDUCE" `Quick test_care_corpus_reduces;
    QCheck_alcotest.to_alcotest prop_expand_identity;
    QCheck_alcotest.to_alcotest prop_distance;
    Alcotest.test_case "wide corpus: straddling 2-part fields, > 63 bits, MV fields" `Quick
      test_wide_corpus;
    Alcotest.test_case "minimize_off set-aside: same cover and ticks at every cap (lion, dk16, bbara)"
      `Quick test_set_aside_ticks;
    Alcotest.test_case "essential_primes keeps every cube of an irredundant cover" `Quick
      test_irredundant_all_essential;
    QCheck_alcotest.to_alcotest prop_irredundant_all_essential;
    Alcotest.test_case "irredundant and reduce = whole-rest reference on suite and generated" `Quick
      test_visits_fsm;
    QCheck_alcotest.to_alcotest prop_visits_wide;
    Alcotest.test_case "irredundant and reduce: same cubes and ticks at every cap (lion, dk16, bbara)"
      `Quick test_visit_ticks;
  ]
