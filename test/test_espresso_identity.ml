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
   problems. The reference is the oracle, the way [Cover.Naive] is for
   the unate kernels: slow, and for tests only. *)

open Logic

module Reference = struct
  let off_set ~on ~dc = Cover.complement (Cover.union on dc)
  let valid dom c off = not (List.exists (fun o -> Cube.intersects dom c o) off)

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
  ]
