(* Randomized differential tests for the fast unate-aware ESPRESSO
   kernels.

   The fast [Cover.tautology] / [Cover.complement] carry unate
   shortcuts, component reduction, minterm-count cutoffs and
   word-parallel cofactor paths; [Cover_naive] retains the seed's
   straight-line recursion verbatim. Random small multiple-valued
   covers are thrown at both, and everything is additionally compared
   against the one oracle that cannot be wrong: exhaustive truth-table
   evaluation with [Cover.contains_minterm].

   Everything is driven by a fixed-seed [Random.State], so failures
   reproduce deterministically and the suite needs no extra
   dependencies. *)

open Logic

let check = Alcotest.(check bool)

(* --- random instances ---------------------------------------------------- *)

let random_domain rng =
  let nvars = 1 + Random.State.int rng 3 in
  Domain.create (Array.init nvars (fun _ -> 2 + Random.State.int rng 2))

(* A uniformly random non-empty subset of parts per variable. *)
let random_cube rng dom =
  let nvars = Domain.num_vars dom in
  let c = ref (Cube.full dom) in
  for v = 0 to nvars - 1 do
    let sz = Domain.size dom v in
    let parts = List.filter (fun _ -> Random.State.bool rng) (List.init sz Fun.id) in
    let parts = if parts = [] then [ Random.State.int rng sz ] else parts in
    c := Cube.set_var dom !c v parts
  done;
  !c

let random_cover rng dom ~max_cubes =
  let n = Random.State.int rng (max_cubes + 1) in
  Cover.make dom (List.init n (fun _ -> random_cube rng dom))

(* All minterms of a (small) domain, as value vectors. *)
let all_minterms dom =
  let nvars = Domain.num_vars dom in
  let rec go v =
    if v = nvars then [ [] ]
    else
      let rest = go (v + 1) in
      List.concat_map (fun p -> List.map (fun tl -> p :: tl) rest)
        (List.init (Domain.size dom v) Fun.id)
  in
  List.map Array.of_list (go 0)

(* --- tautology: fast = naive = truth table ------------------------------- *)

let test_tautology_agrees () =
  let rng = Random.State.make [| 20260806; 1 |] in
  for i = 1 to 200 do
    let dom = random_domain rng in
    let f = random_cover rng dom ~max_cubes:6 in
    let truth = List.for_all (Cover.contains_minterm f) (all_minterms dom) in
    let ctx = Printf.sprintf "case %d: %s" i (Format.asprintf "%a" Cover.pp f) in
    check (ctx ^ " fast=truth") truth (Cover.tautology f);
    check (ctx ^ " naive=truth") truth (Cover_naive.tautology f)
  done

(* --- complement: fast and naive both match the truth table --------------- *)

let test_complement_agrees () =
  let rng = Random.State.make [| 20260806; 2 |] in
  for i = 1 to 200 do
    let dom = random_domain rng in
    let f = random_cover rng dom ~max_cubes:6 in
    let fast = Cover.complement f in
    let naive = Cover_naive.complement f in
    List.iter
      (fun mt ->
        let inside = Cover.contains_minterm f mt in
        let ctx = Printf.sprintf "case %d" i in
        check (ctx ^ " fast complement") (not inside) (Cover.contains_minterm fast mt);
        check (ctx ^ " naive complement") (not inside) (Cover.contains_minterm naive mt))
      (all_minterms dom)
  done

(* --- covers_cube against minterm enumeration ----------------------------- *)

let test_covers_cube_agrees () =
  let rng = Random.State.make [| 20260806; 3 |] in
  for i = 1 to 200 do
    let dom = random_domain rng in
    let f = random_cover rng dom ~max_cubes:5 in
    let c = random_cube rng dom in
    let truth =
      List.for_all
        (fun mt ->
          (not (Cube.contains c (Cube.of_minterm dom mt))) || Cover.contains_minterm f mt)
        (all_minterms dom)
    in
    check (Printf.sprintf "case %d covers_cube" i) truth (Cover.covers_cube f c)
  done

(* --- minimize: on-dc <= result <= on OR dc, by truth table ---------------
   A minterm in both [on] and [dc] is a don't-care (the ESPRESSO
   convention: the result covers the care on-set [on - dc] and stays
   inside [on OR dc]). *)

let test_minimize_against_truth_table () =
  let rng = Random.State.make [| 20260806; 4 |] in
  for i = 1 to 200 do
    let dom = random_domain rng in
    let on = random_cover rng dom ~max_cubes:5 in
    let dc = random_cover rng dom ~max_cubes:2 in
    let m = Espresso.minimize ~dc on in
    List.iter
      (fun mt ->
        let in_on = Cover.contains_minterm on mt in
        let in_dc = Cover.contains_minterm dc mt in
        let in_m = Cover.contains_minterm m mt in
        let ctx = Printf.sprintf "case %d" i in
        if in_on && not in_dc then check (ctx ^ " minimize covers care on-set") true in_m;
        if in_m then check (ctx ^ " minimize within on+dc") true (in_on || in_dc))
      (all_minterms dom)
  done

(* --- minimize_care: avoids off, covers on -------------------------------- *)

let test_minimize_care_against_truth_table () =
  let rng = Random.State.make [| 20260806; 5 |] in
  for i = 1 to 100 do
    let dom = random_domain rng in
    let on = random_cover rng dom ~max_cubes:4 in
    (* Off-set: random cover minus the on-set, so the instance is
       consistent by construction. *)
    let off_raw = random_cover rng dom ~max_cubes:4 in
    let minterms = all_minterms dom in
    let off_minterms =
      List.filter
        (fun mt -> Cover.contains_minterm off_raw mt && not (Cover.contains_minterm on mt))
        minterms
    in
    let off = Cover.make dom (List.map (Cube.of_minterm dom) off_minterms) in
    let m = Espresso.minimize_care ~off on in
    List.iter
      (fun mt ->
        let ctx = Printf.sprintf "case %d" i in
        if Cover.contains_minterm on mt then
          check (ctx ^ " minimize_care covers on-set") true (Cover.contains_minterm m mt);
        if Cover.contains_minterm off mt then
          check (ctx ^ " minimize_care avoids off-set") false (Cover.contains_minterm m mt))
      minterms
  done

let suite =
  [
    Alcotest.test_case "tautology: fast = naive = truth table (200 random covers)" `Quick
      test_tautology_agrees;
    Alcotest.test_case "complement: fast & naive match truth table (200 random covers)" `Quick
      test_complement_agrees;
    Alcotest.test_case "covers_cube matches minterm enumeration (200 random cases)" `Quick
      test_covers_cube_agrees;
    Alcotest.test_case "minimize: on <= result <= on+dc by truth table (200 random cases)"
      `Quick test_minimize_against_truth_table;
    Alcotest.test_case "minimize_care: covers on, avoids off (100 random cases)" `Quick
      test_minimize_care_against_truth_table;
  ]
