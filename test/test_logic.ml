(* Unit and property tests for the multiple-valued logic kernel. *)

open Logic

let dom_bb = Domain.create [| 2; 2 |]
let dom_bbb = Domain.create [| 2; 2; 2 |]
let dom_mv = Domain.create [| 2; 3; 2 |]

(* Build a cube from a per-variable list of parts; [] means full field. *)
let cube dom fields =
  List.fold_left
    (fun c (v, parts) -> if parts = [] then c else Cube.set_var dom c v parts)
    (Cube.full dom)
    (List.mapi (fun v parts -> (v, parts)) fields)

let check = Alcotest.(check bool)

let test_cube_basics () =
  let c = cube dom_mv [ [ 0 ]; [ 1; 2 ]; [] ] in
  check "not empty" false (Cube.is_empty dom_mv c);
  check "not full" false (Cube.is_full dom_mv c);
  Alcotest.(check (list int)) "var 0" [ 0 ] (Cube.var_bits dom_mv c 0);
  Alcotest.(check (list int)) "var 1" [ 1; 2 ] (Cube.var_bits dom_mv c 1);
  check "var 2 full" true (Cube.var_full dom_mv c 2);
  Alcotest.(check int) "minterms 1*2*2" 4 (Cube.num_minterms dom_mv c);
  Alcotest.(check int) "literal bits" 3 (Cube.num_literal_bits dom_mv c)

let test_cube_intersection () =
  let a = cube dom_mv [ [ 0 ]; [ 0; 1 ]; [] ] in
  let b = cube dom_mv [ []; [ 1; 2 ]; [ 0 ] ] in
  (match Cube.inter dom_mv a b with
  | None -> Alcotest.fail "expected nonempty intersection"
  | Some i ->
      Alcotest.(check (list int)) "var1 of inter" [ 1 ] (Cube.var_bits dom_mv i 1);
      Alcotest.(check (list int)) "var2 of inter" [ 0 ] (Cube.var_bits dom_mv i 2));
  let c = cube dom_mv [ [ 1 ]; []; [] ] in
  check "disjoint in var0" false (Cube.intersects dom_mv a c);
  Alcotest.(check int) "distance a c" 1 (Cube.distance dom_mv a c)

let test_cube_cofactor () =
  let a = cube dom_bb [ [ 0 ]; [] ] in
  let wrt = cube dom_bb [ [ 0 ]; [ 1 ] ] in
  (match Cube.cofactor dom_bb a ~wrt with
  | None -> Alcotest.fail "expected cofactor"
  | Some cf -> check "cofactor is full" true (Cube.is_full dom_bb cf));
  let b = cube dom_bb [ [ 1 ]; [] ] in
  check "no cofactor when disjoint" true (Cube.cofactor dom_bb b ~wrt = None)

let test_minterm_containment () =
  let c = cube dom_mv [ [ 0 ]; [ 1; 2 ]; [] ] in
  let m = Cube.of_minterm dom_mv [| 0; 2; 1 |] in
  check "contains its minterm" true (Cube.contains c m);
  let m2 = Cube.of_minterm dom_mv [| 1; 2; 1 |] in
  check "excludes others" false (Cube.contains c m2)

(* xor(a,b): on-set = a'b + ab' *)
let xor_cover =
  Cover.make dom_bb [ cube dom_bb [ [ 0 ]; [ 1 ] ]; cube dom_bb [ [ 1 ]; [ 0 ] ] ]

let test_tautology () =
  check "xor not tautology" false (Cover.tautology xor_cover);
  let full = Cover.universe dom_bb in
  check "universe tautology" true (Cover.tautology full);
  let both_halves =
    Cover.make dom_bb [ cube dom_bb [ [ 0 ]; [] ]; cube dom_bb [ [ 1 ]; [] ] ]
  in
  check "a + a' tautology" true (Cover.tautology both_halves);
  check "empty not tautology" false (Cover.tautology (Cover.empty dom_bb))

let test_complement_xor () =
  let xnor = Cover.complement xor_cover in
  Alcotest.(check int) "xnor has 2 cubes" 2 (Cover.size xnor);
  check "xor and xnor disjoint" true (Cover.size (Cover.intersect xor_cover xnor) = 0);
  check "xor + xnor tautology" true (Cover.tautology (Cover.union xor_cover xnor));
  Alcotest.(check int) "minterm split" 2 (Cover.num_minterms xnor);
  Alcotest.(check int) "xor minterms" 2 (Cover.num_minterms xor_cover)

let test_covers () =
  let f = Cover.make dom_bbb [ cube dom_bbb [ [ 0 ]; []; [] ] ] in
  let g =
    Cover.make dom_bbb [ cube dom_bbb [ [ 0 ]; [ 0 ]; [] ]; cube dom_bbb [ [ 0 ]; [ 1 ]; [ 1 ] ] ]
  in
  check "f covers g" true (Cover.covers f g);
  check "g does not cover f" false (Cover.covers g f);
  check "f equivalent f" true (Cover.equivalent f f)

let test_supercube () =
  let f =
    Cover.make dom_mv [ cube dom_mv [ [ 0 ]; [ 0 ]; [ 0 ] ]; cube dom_mv [ [ 0 ]; [ 2 ]; [ 1 ] ] ]
  in
  match Cover.supercube f with
  | None -> Alcotest.fail "expected supercube"
  | Some sc ->
      Alcotest.(check (list int)) "var0" [ 0 ] (Cube.var_bits dom_mv sc 0);
      Alcotest.(check (list int)) "var1" [ 0; 2 ] (Cube.var_bits dom_mv sc 1);
      check "var2 full" true (Cube.var_full dom_mv sc 2)

let test_scc () =
  let small = cube dom_bb [ [ 0 ]; [ 0 ] ] in
  let big = cube dom_bb [ [ 0 ]; [] ] in
  let f = Cover.make dom_bb [ small; big; small ] in
  let r = Cover.single_cube_containment f in
  Alcotest.(check int) "only the big cube remains" 1 (Cover.size r);
  check "kept the big one" true (List.exists (fun c -> Cube.equal c big) r.Cover.cubes)

(* Property tests -------------------------------------------------------- *)

let gen_sizes = QCheck.Gen.(list_size (int_range 1 4) (int_range 2 4))

let gen_cover_in dom =
  let n = Domain.num_vars dom in
  QCheck.Gen.(
    list_size (int_bound 6) (
      (* one random non-empty part subset per variable *)
      let gen_cube =
        let rec fields v acc =
          if v = n then return (List.rev acc)
          else
            let sz = Domain.size dom v in
            list_size (int_range 1 sz) (int_bound (sz - 1)) >>= fun parts ->
            fields (v + 1) (List.sort_uniq compare parts :: acc)
        in
        fields 0 [] >>= fun fields ->
        return
          (List.fold_left
             (fun c (v, parts) -> Cube.set_var dom c v parts)
             (Cube.full dom)
             (List.mapi (fun v parts -> (v, parts)) fields))
      in
      gen_cube))

let gen_domain_cover =
  QCheck.make
    ~print:(fun (sizes, _) ->
      Printf.sprintf "dom=[%s]" (String.concat ";" (List.map string_of_int sizes)))
    QCheck.Gen.(
      gen_sizes >>= fun sizes ->
      let dom = Domain.create (Array.of_list sizes) in
      gen_cover_in dom >>= fun cubes -> return (sizes, cubes))

let cover_of (sizes, cubes) = Cover.make (Domain.create (Array.of_list sizes)) cubes

let prop_complement_partition =
  QCheck.Test.make ~name:"F and ¬F partition the space" ~count:100 gen_domain_cover (fun dc ->
      let f = cover_of dc in
      let nf = Cover.complement f in
      Cover.tautology (Cover.union f nf)
      && Cover.size (Cover.intersect f nf) = 0
      && Cover.num_minterms f + Cover.num_minterms nf = Domain.num_minterms f.Cover.dom)

let prop_complement_involution =
  QCheck.Test.make ~name:"¬¬F ≡ F" ~count:100 gen_domain_cover (fun dc ->
      let f = cover_of dc in
      Cover.equivalent f (Cover.complement (Cover.complement f)))

let prop_scc_preserves =
  QCheck.Test.make ~name:"single-cube containment preserves the function" ~count:100
    gen_domain_cover (fun dc ->
      let f = cover_of dc in
      Cover.equivalent f (Cover.single_cube_containment f))

let prop_covers_reflexive =
  QCheck.Test.make ~name:"every cover covers its own cubes" ~count:100 gen_domain_cover
    (fun dc ->
      let f = cover_of dc in
      List.for_all (fun c -> Cover.covers_cube f c) f.Cover.cubes)

let prop_tautology_definition =
  QCheck.Test.make ~name:"tautology iff covers all minterms" ~count:100 gen_domain_cover
    (fun dc ->
      let f = cover_of dc in
      Cover.tautology f = (Cover.num_minterms f = Domain.num_minterms f.Cover.dom))

let prop_complement_within =
  QCheck.Test.make ~name:"complement_within space ∧ ¬F" ~count:100
    (QCheck.pair gen_domain_cover gen_domain_cover) (fun (dc1, (_, cubes2)) ->
      let f = cover_of dc1 in
      match cubes2 with
      | [] -> true
      | _ ->
          (* reuse a cube shape from f's own domain *)
          let space = Cube.full f.Cover.dom in
          let cw = Cover.complement_within f ~space in
          Cover.equivalent cw (Cover.complement f))

(* The word-parallel [Cube.intersects] and [Cube.is_empty] against a
   per-variable definition read bit by bit. Domains mix 1-part, 2-part
   and multi-part fields; with probability 1/2 a prefix puts a 2-part
   field across the first word boundary, and tails of up to 30
   fields of up to 70 parts take widths past one and two words. Each
   field is full, empty or a random part set, so both answers occur. *)
let vars dom = List.init (Domain.num_vars dom) Fun.id

let ref_is_empty dom c = List.exists (fun v -> Cube.var_bits dom c v = []) (vars dom)

let ref_intersects dom a b =
  List.for_all
    (fun v -> List.exists (fun p -> List.mem p (Cube.var_bits dom b v)) (Cube.var_bits dom a v))
    (vars dom)

let gen_kernel_sizes st =
  let r k = Random.State.int st k in
  let field () = match r 4 with 0 -> 1 | 1 -> 3 + r 68 | _ -> 2 in
  let prefix =
    if Random.State.bool st then
      (* An even number of 3-part fields and 2-part ones up to bit 61:
         the next 2-part field holds bits 62 and 63. *)
      let threes = 2 * r 3 in
      List.init threes (fun _ -> 3) @ List.init ((62 - (3 * threes)) / 2) (fun _ -> 2) @ [ 2 ]
    else []
  in
  prefix @ List.init (1 + r 30) (fun _ -> field ())

let gen_kernel_cube st dom =
  let c = Bitvec.create (Domain.width dom) in
  for v = 0 to Domain.num_vars dom - 1 do
    let sz = Domain.size dom v and lo = Domain.offset dom v in
    match Random.State.int st 8 with
    | 0 -> ()
    | 1 | 2 | 3 | 4 -> Bitvec.set_range c lo sz
    | _ -> for p = 0 to sz - 1 do if Random.State.bool st then Bitvec.set c (lo + p) done
  done;
  c

let gen_kernel_problem =
  QCheck.make
    ~print:(fun (sizes, cubes) ->
      Printf.sprintf "dom=[%s] %d cubes" (String.concat ";" (List.map string_of_int sizes)) (List.length cubes))
    (fun st ->
      let sizes = gen_kernel_sizes st in
      let dom = Domain.create (Array.of_list sizes) in
      (sizes, List.init (2 + Random.State.int st 6) (fun _ -> gen_kernel_cube st dom)))

let prop_kernel_word_parallel =
  QCheck.Test.make ~name:"Cube.intersects and Cube.is_empty = per-variable definition" ~count:500
    gen_kernel_problem (fun (sizes, cubes) ->
      let dom = Domain.create (Array.of_list sizes) in
      List.for_all (fun c -> Cube.is_empty dom c = ref_is_empty dom c) cubes
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let want = ref_intersects dom a b in
                 Cube.intersects dom a b = want
                 && Cube.is_empty dom (Bitvec.inter a b) = not want
                 && Option.is_some (Cube.inter dom a b) = want)
               cubes)
           cubes)

(* The generator reaches every case the kernel splits on, and both
   answers of each test. *)
let test_kernel_corpus () =
  let rand = Random.State.make [| 20261019 |] in
  let seen = Hashtbl.create 8 in
  let note k = Hashtbl.replace seen k () in
  for _ = 1 to 300 do
    let sizes, cubes = QCheck.Gen.generate1 ~rand (QCheck.gen gen_kernel_problem) in
    let dom = Domain.create (Array.of_list sizes) in
    if Domain.width dom > 2 * Bitvec.bits_per_word then note "wider than two words";
    if List.mem 1 sizes then note "1-part field";
    if List.exists (fun s -> s > Bitvec.bits_per_word) sizes then note "field wider than a word";
    if Array.exists (fun v -> Domain.size dom v = 2) (Domain.other_vars dom) then note "straddling 2-part field";
    List.iter (fun c -> note (if ref_is_empty dom c then "empty cube" else "non-empty cube")) cubes;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if not (ref_is_empty dom a || ref_is_empty dom b) then
              note (if ref_intersects dom a b then "meeting pair" else "disjoint pair"))
          cubes)
      cubes
  done;
  List.iter
    (fun k -> check k true (Hashtbl.mem seen k))
    [
      "wider than two words"; "1-part field"; "field wider than a word"; "straddling 2-part field";
      "empty cube"; "non-empty cube"; "meeting pair"; "disjoint pair";
    ]

(* Past 2^62 minterms the count saturates: on 70 binary fields it stays
   positive and never drops below the count of a cube it contains. *)
let test_num_minterms_saturates () =
  let dom = Domain.create (Array.make 70 2) in
  let full = Cube.full dom in
  (* [free k] fixes field 0 and fields k .. 69: 2^(k-1) minterms. *)
  let free k =
    List.fold_left
      (fun c v -> Cube.set_var dom c v [ 1 ])
      (Cube.set_var dom full 0 [ 0 ])
      (List.init (70 - k) (fun i -> k + i))
  in
  let chain = full :: List.map free [ 70; 65; 64; 63; 62; 40; 1 ] in
  let keys = List.map (Cube.num_minterms dom) chain in
  List.iter (fun k -> Alcotest.(check bool) "positive" true (k > 0)) keys;
  Alcotest.(check int) "full space saturates" max_int (List.hd keys);
  Alcotest.(check int) "2^62 saturates" max_int (List.nth keys 4);
  Alcotest.(check int) "2^61 exact" (1 lsl 61) (List.nth keys 5);
  Alcotest.(check int) "one minterm" 1 (List.nth keys 7);
  List.iter2
    (fun outer inner ->
      Alcotest.(check bool) "contains" true (Cube.contains outer inner);
      Alcotest.(check bool) "key monotone" true (Cube.num_minterms dom outer >= Cube.num_minterms dom inner))
    (List.filteri (fun i _ -> i < 7) chain) (List.tl chain);
  Alcotest.(check int) "empty cube" 0 (Cube.num_minterms dom (Cube.empty_cube dom))

let suite =
  [
    Alcotest.test_case "cube basics" `Quick test_cube_basics;
    Alcotest.test_case "cube intersection/distance" `Quick test_cube_intersection;
    Alcotest.test_case "cube cofactor" `Quick test_cube_cofactor;
    Alcotest.test_case "minterm containment" `Quick test_minterm_containment;
    Alcotest.test_case "tautology" `Quick test_tautology;
    Alcotest.test_case "complement of xor" `Quick test_complement_xor;
    Alcotest.test_case "cover containment" `Quick test_covers;
    Alcotest.test_case "supercube" `Quick test_supercube;
    Alcotest.test_case "single cube containment" `Quick test_scc;
    QCheck_alcotest.to_alcotest prop_complement_partition;
    QCheck_alcotest.to_alcotest prop_complement_involution;
    QCheck_alcotest.to_alcotest prop_scc_preserves;
    QCheck_alcotest.to_alcotest prop_covers_reflexive;
    QCheck_alcotest.to_alcotest prop_tautology_definition;
    QCheck_alcotest.to_alcotest prop_complement_within;
    QCheck_alcotest.to_alcotest prop_kernel_word_parallel;
    Alcotest.test_case "kernel corpus: every field layout, both answers" `Quick test_kernel_corpus;
    Alcotest.test_case "num_minterms saturates past 2^62" `Quick test_num_minterms_saturates;
  ]
