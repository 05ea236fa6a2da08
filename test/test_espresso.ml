(* Tests for the ESPRESSO-style minimizer. *)

open Logic

let dom_bb = Domain.create [| 2; 2 |]

let cube dom fields =
  List.fold_left
    (fun c (v, parts) -> if parts = [] then c else Cube.set_var dom c v parts)
    (Cube.full dom)
    (List.mapi (fun v parts -> (v, parts)) fields)

let check = Alcotest.(check bool)

let test_minimize_or () =
  (* a + b given as the four minterms asserting it: should collapse to two
     cubes (or fewer literals). *)
  let dom = dom_bb in
  let on =
    Cover.make dom
      [
        cube dom [ [ 1 ]; [ 0 ] ];
        cube dom [ [ 0 ]; [ 1 ] ];
        cube dom [ [ 1 ]; [ 1 ] ];
      ]
  in
  let m = Espresso.minimize ~dc:(Cover.empty dom) on in
  check "equivalent" true (Cover.equivalent m on);
  check "at most 2 cubes" true (Cover.size m <= 2)

let test_minimize_tautology () =
  let dom = dom_bb in
  let on =
    Cover.make dom
      [
        cube dom [ [ 0 ]; [ 0 ] ];
        cube dom [ [ 0 ]; [ 1 ] ];
        cube dom [ [ 1 ]; [ 0 ] ];
        cube dom [ [ 1 ]; [ 1 ] ];
      ]
  in
  let m = Espresso.minimize ~dc:(Cover.empty dom) on in
  Alcotest.(check int) "single full cube" 1 (Cover.size m);
  check "it is the full cube" true (Cube.is_full dom (List.hd m.Cover.cubes))

let test_minimize_with_dc () =
  (* xor with one minterm as don't-care minimizes to at most 2 cubes and
     covers the on-set. *)
  let dom = dom_bb in
  let on = Cover.make dom [ cube dom [ [ 0 ]; [ 1 ] ]; cube dom [ [ 1 ]; [ 0 ] ] ] in
  let dc = Cover.make dom [ cube dom [ [ 1 ]; [ 1 ] ] ] in
  let m = Espresso.minimize ~dc on in
  check "covers on-set" true (Cover.covers m on);
  check "within on+dc" true (Cover.covers (Cover.union on dc) m);
  check "no more cubes than before" true (Cover.size m <= 2)

let test_minimize_empty () =
  let dom = dom_bb in
  let m = Espresso.minimize ~dc:(Cover.empty dom) (Cover.empty dom) in
  Alcotest.(check int) "empty stays empty" 0 (Cover.size m)

let test_expand_primality () =
  let dom = dom_bb in
  let on = Cover.make dom [ cube dom [ [ 0 ]; [ 0 ] ] ] in
  let dc = Cover.empty dom in
  let off = Espresso.off_set ~on ~dc in
  let e = Espresso.expand on ~off in
  (* The single minterm of a'b' against its own off-set is already prime:
     raising any bit hits the off-set. *)
  Alcotest.(check int) "one cube" 1 (Cover.size e);
  check "unchanged" true (Cube.equal (List.hd e.Cover.cubes) (List.hd on.Cover.cubes))

let test_irredundant () =
  let dom = dom_bb in
  let f =
    Cover.make dom
      [ cube dom [ [ 0 ]; [] ]; cube dom [ [ 0 ]; [ 1 ] ] (* redundant *) ]
  in
  let r = Espresso.irredundant f ~care:f in
  Alcotest.(check int) "redundant cube removed" 1 (Cover.size r);
  check "still equivalent" true (Cover.equivalent r f)

(* Property: minimization preserves the function on the care set. *)

let gen_problem =
  QCheck.make
    ~print:(fun (sizes, non, ndc) ->
      Printf.sprintf "dom=[%s] on=%d dc=%d"
        (String.concat ";" (List.map string_of_int sizes))
        (List.length non) (List.length ndc))
    QCheck.Gen.(
      list_size (int_range 1 3) (int_range 2 3) >>= fun sizes ->
      let dom = Domain.create (Array.of_list sizes) in
      let gen_cube =
        let n = Domain.num_vars dom in
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
      list_size (int_bound 5) gen_cube >>= fun on ->
      list_size (int_bound 3) gen_cube >>= fun dc -> return (sizes, on, dc))

let prop_minimize_sound =
  QCheck.Test.make ~name:"minimize: on ⊆ result∪dc and result ⊆ on∪dc" ~count:60 gen_problem
    (fun (sizes, on_cubes, dc_cubes) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on_cubes and dc = Cover.make dom dc_cubes in
      let m = Espresso.minimize ~dc on in
      (* When on and dc overlap, the overlap may be dropped, so the lower
         bound is on ⊆ result ∪ dc. *)
      Cover.covers (Cover.union m dc) on && Cover.covers (Cover.union on dc) m)

let prop_minimize_no_growth =
  QCheck.Test.make ~name:"minimize never increases cube count" ~count:60 gen_problem
    (fun (sizes, on_cubes, dc_cubes) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on_cubes and dc = Cover.make dom dc_cubes in
      let m = Espresso.minimize ~dc on in
      Cover.size m <= Cover.size (Cover.single_cube_containment on))

let prop_expand_preserves =
  QCheck.Test.make ~name:"expand preserves function and yields primes" ~count:60 gen_problem
    (fun (sizes, on_cubes, dc_cubes) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on = Cover.make dom on_cubes and dc = Cover.make dom dc_cubes in
      if Cover.size on = 0 then true
      else
        let off = Espresso.off_set ~on ~dc in
        let e = Espresso.expand on ~off in
        Cover.covers e on && List.for_all (fun c -> not (List.exists (fun o -> Cube.intersects dom c o) off.Cover.cubes)) e.Cover.cubes)

let test_essential_primes () =
  let dom = dom_bb in
  (* f = a'b' + ab: both cubes essential. *)
  let f = Cover.make dom [ cube dom [ [ 0 ]; [ 0 ] ]; cube dom [ [ 1 ]; [ 1 ] ] ] in
  let ess = Espresso.essential_primes f ~care:f in
  Alcotest.(check int) "both essential" 2 (Cover.size ess);
  (* f = a' + b' + (a'b'): the third is covered by either of the others. *)
  let g =
    Cover.make dom
      [ cube dom [ [ 0 ]; [] ]; cube dom [ []; [ 0 ] ]; cube dom [ [ 0 ]; [ 0 ] ] ]
  in
  let ess_g = Espresso.essential_primes g ~care:g in
  check "a'b' not essential" true
    (not (List.exists (fun c -> Cube.equal c (cube dom [ [ 0 ]; [ 0 ] ])) ess_g.Cover.cubes))

let test_pla_parse () =
  let p = Pla.parse ".i 2\n.o 2\n# comment\n01 1-\n1- 01\n.e\n" in
  Alcotest.(check int) "inputs" 2 p.Pla.num_inputs;
  Alcotest.(check int) "outputs" 2 p.Pla.num_outputs;
  Alcotest.(check int) "on cubes" 2 (Cover.size p.Pla.on);
  Alcotest.(check int) "dc cubes" 1 (Cover.size p.Pla.dc);
  (* joined form without a space *)
  let j = Pla.parse ".i 2\n.o 1\n011\n.e\n" in
  Alcotest.(check int) "joined on" 1 (Cover.size j.Pla.on)

let test_pla_parse_errors () =
  let bad s = try ignore (Pla.parse s); false with Pla.Parse_error _ -> true in
  check "missing .i" true (bad ".o 1\n0 1\n.e\n");
  check "bad char" true (bad ".i 1\n.o 1\nx 1\n.e\n");
  check "width" true (bad ".i 2\n.o 1\n0 1\n.e\n")

let test_pla_roundtrip_minimize () =
  (* parse → minimize → print → parse again → equivalent *)
  let p = Pla.parse ".i 3\n.o 1\n000 1\n001 1\n010 1\n011 1\n110 1\n.e\n" in
  let m = Espresso.minimize ~dc:p.Pla.dc p.Pla.on in
  let text = Pla.to_string m ~num_binary_vars:3 in
  let p2 = Pla.parse text in
  check "roundtrip equivalent" true (Cover.equivalent p2.Pla.on p.Pla.on)

(* minimize_care: explicit on/off, implicit dc. *)
let prop_minimize_care_sound =
  QCheck.Test.make ~name:"minimize_care: covers on, avoids off" ~count:60 gen_problem
    (fun (sizes, on_cubes, off_cubes) ->
      let dom = Domain.create (Array.of_list sizes) in
      let on0 = Cover.make dom on_cubes and off0 = Cover.make dom off_cubes in
      (* Make the instance consistent: remove the off-overlap from on. *)
      let on = Cover.make dom
          (List.concat_map
             (fun c -> (Cover.complement_within off0 ~space:c).Cover.cubes)
             on0.Cover.cubes)
      in
      let m = Espresso.minimize_care ~off:off0 on in
      Cover.covers m on
      && List.for_all
           (fun c -> not (List.exists (fun o -> Cube.intersects dom c o) off0.Cover.cubes))
           m.Cover.cubes)

let prop_minimize_care_no_growth =
  QCheck.Test.make ~name:"minimize_care never increases cube count" ~count:60 gen_problem
    (fun (sizes, on_cubes, off_cubes) ->
      let dom = Domain.create (Array.of_list sizes) in
      let off = Cover.make dom off_cubes in
      let on = Cover.make dom
          (List.concat_map
             (fun c -> (Cover.complement_within off ~space:c).Cover.cubes)
             on_cubes)
      in
      Cover.size (Espresso.minimize_care ~off on)
      <= Cover.size (Cover.single_cube_containment on))

let suite =
  [
    Alcotest.test_case "essential primes" `Quick test_essential_primes;
    QCheck_alcotest.to_alcotest prop_minimize_care_sound;
    QCheck_alcotest.to_alcotest prop_minimize_care_no_growth;
    Alcotest.test_case "pla parse" `Quick test_pla_parse;
    Alcotest.test_case "pla parse errors" `Quick test_pla_parse_errors;
    Alcotest.test_case "pla roundtrip minimize" `Quick test_pla_roundtrip_minimize;
    Alcotest.test_case "minimize a+b" `Quick test_minimize_or;
    Alcotest.test_case "minimize tautology" `Quick test_minimize_tautology;
    Alcotest.test_case "minimize with dc" `Quick test_minimize_with_dc;
    Alcotest.test_case "minimize empty" `Quick test_minimize_empty;
    Alcotest.test_case "expand keeps prime minterm" `Quick test_expand_primality;
    Alcotest.test_case "irredundant removal" `Quick test_irredundant;
    QCheck_alcotest.to_alcotest prop_minimize_sound;
    QCheck_alcotest.to_alcotest prop_minimize_no_growth;
    QCheck_alcotest.to_alcotest prop_expand_preserves;
  ]
