(* Tests for the face algebra, input poset and embedding engine against
   the paper's worked examples. *)

let check = Alcotest.(check bool)

(* --- Face algebra ------------------------------------------------------ *)

let face k s =
  (* parse e.g. "x0x1": dimension 0 leftmost *)
  let mask = ref 0 and bits = ref 0 in
  String.iteri
    (fun d c ->
      match c with
      | 'x' -> ()
      | '0' -> mask := !mask lor (1 lsl d)
      | '1' ->
          mask := !mask lor (1 lsl d);
          bits := !bits lor (1 lsl d)
      | _ -> invalid_arg "face")
    s;
  ignore k;
  Face.make (String.length s) ~mask:!mask ~bits:!bits

let test_face_basics () =
  let f = face 4 "x0x1" in
  Alcotest.(check int) "level" 2 (Face.level 4 f);
  Alcotest.(check int) "cardinality" 4 (Face.cardinality 4 f);
  Alcotest.(check string) "roundtrip" "x0x1" (Face.to_string 4 f);
  check "contains vertex 1001" true (Face.contains_code f 0b1001);
  (* dimension 0 is bit 0: "x0x1" means d1=0, d3=1 *)
  check "contains code with d1=0,d3=1" true (Face.contains_code f (1 lsl 3));
  check "excludes d1=1" false (Face.contains_code f (1 lsl 1))

let test_face_inter () =
  let a = face 3 "x0x" and b = face 3 "10x" in
  (match Face.inter a b with
  | None -> Alcotest.fail "expected intersection"
  | Some h -> Alcotest.(check string) "inter" "10x" (Face.to_string 3 h));
  let c = face 3 "x1x" in
  check "disjoint" true (Face.inter b c = None);
  check "a contains b" true (Face.contains a b);
  check "b not contains a" false (Face.contains b a);
  let sc = Face.supercube b c in
  (* d0 specified only in b, d1 differs: nothing survives *)
  Alcotest.(check string) "supercube" "xxx" (Face.to_string 3 sc);
  let sc2 = Face.supercube (face 3 "10x") (face 3 "11x") in
  Alcotest.(check string) "supercube keeps agreeing dims" "1xx" (Face.to_string 3 sc2)

let test_face_enumeration () =
  let count s = Seq.fold_left (fun n _ -> n + 1) 0 s in
  Alcotest.(check int) "vertices of 3-cube" 8 (count (Face.faces_at_level 3 0));
  Alcotest.(check int) "level-1 faces of 3-cube" 12 (count (Face.faces_at_level 3 1));
  Alcotest.(check int) "level-2 faces of 3-cube" 6 (count (Face.faces_at_level 3 2));
  Alcotest.(check int) "whole cube" 1 (count (Face.faces_at_level 3 3));
  let g = face 4 "x0xx" in
  Alcotest.(check int) "level-1 subfaces of level-3 face" 12 (count (Face.subfaces_at_level 4 g 1));
  Alcotest.(check int) "vertices of face" 8 (List.length (Face.vertices 4 g))

let test_face_vertices () =
  let f = face 3 "1x0" in
  Alcotest.(check (list int)) "two vertices" [ 0b001; 0b011 ] (Face.vertices 3 f)

(* --- Input poset over the paper's running example ---------------------- *)

(* IC = {1110000, 0111000, 0000111, 1000110, 0000011, 0011000} where a 1
   in position i means state i belongs to the constraint (Example 3.1.1,
   state 1 of the paper = our state 0). *)
let paper_ics =
  List.map Bitvec.of_string
    [ "1110000"; "0111000"; "0000111"; "1000110"; "0000011"; "0011000" ]

let poset = Input_poset.build ~num_states:7 paper_ics

let elem states_str =
  match Input_poset.find poset (Bitvec.of_string states_str) with
  | Some id -> poset.Input_poset.elements.(id)
  | None -> Alcotest.failf "element %s missing from closure" states_str

let test_closure_elements () =
  (* Example 3.1.2's 15 sets plus the universe: 16 elements. *)
  Alcotest.(check int) "closure size" 16 (Array.length poset.Input_poset.elements);
  List.iter
    (fun s -> ignore (elem s))
    [
      "1111111"; "1110000"; "0111000"; "0000111"; "1000110"; "0000011"; "0011000";
      "0110000"; "0000110"; "1000000"; "0100000"; "0010000"; "0001000"; "0000100";
      "0000010"; "0000001";
    ]

let test_categories () =
  (* Example 3.3.1.1 *)
  List.iter
    (fun (s, cat) ->
      Alcotest.(check int) (Printf.sprintf "cat %s" s) cat (elem s).Input_poset.category)
    [
      ("1110000", 1); ("0111000", 1); ("0000111", 1); ("1000110", 1);
      ("0000110", 2); ("0110000", 2); ("0010000", 2); ("0000010", 2); ("1000000", 2);
      ("0011000", 3); ("0000011", 3); ("0001000", 3); ("0100000", 3); ("0000001", 3);
      ("0000100", 3);
    ]

let test_fathers_example_321 () =
  (* The paper's printed F(0000100) is garbled; the minimal superset of
     state 5 in the closure is 0000110 = 0000111 ∩ 1000110, consistent
     with cat(0000100) = 3 in Example 3.3.1.1. Also check a category-2
     element: F(0000010) = (0000011, 0000110). *)
  let fathers_of s =
    List.map
      (fun id -> Bitvec.to_string poset.Input_poset.elements.(id).Input_poset.states)
      (elem s).Input_poset.fathers
  in
  Alcotest.(check (list string)) "father of 0000100" [ "0000110" ] (fathers_of "0000100");
  let f6 = List.sort compare (fathers_of "0000010") in
  Alcotest.(check (list string)) "fathers of 0000010" [ "0000011"; "0000110" ] f6

let test_mincube_dim () =
  (* Example 3.3.2.2.1: counting conditions give 4. *)
  Alcotest.(check int) "mincube" 4 (Input_poset.mincube_dim poset)

(* --- The closure against the fixpoint reference ------------------------- *)

(* The fixpoint closure [Input_poset.build] used before its semi-naive
   worklist, kept as the reference: rescan every pair each round until
   no new intersection appears, keyed by [Bitvec.to_string]. The element
   array is derived exactly as [build] derives it. *)
let reference_elements ~num_states ics =
  let tbl = Hashtbl.create 61 in
  let add b = if not (Bitvec.is_empty b) then Hashtbl.replace tbl (Bitvec.to_string b) b in
  add (Bitvec.full num_states);
  for s = 0 to num_states - 1 do
    add (Bitvec.of_list num_states [ s ])
  done;
  List.iter add ics;
  let changed = ref true in
  while !changed do
    changed := false;
    let current = Hashtbl.fold (fun _ b acc -> b :: acc) tbl [] in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let i = Bitvec.inter a b in
            if not (Bitvec.is_empty i) then begin
              let key = Bitvec.to_string i in
              if not (Hashtbl.mem tbl key) then begin
                Hashtbl.add tbl key i;
                changed := true
              end
            end)
          current)
      current
  done;
  let sets =
    Hashtbl.fold (fun _ b acc -> b :: acc) tbl []
    |> List.sort (fun a b ->
           let c = compare (Bitvec.cardinal b) (Bitvec.cardinal a) in
           if c <> 0 then c else Bitvec.compare a b)
    |> Array.of_list
  in
  let m = Array.length sets in
  let strictly_contains a b = Bitvec.subset b a && not (Bitvec.equal a b) in
  let fathers = Array.make m [] and children = Array.make m [] in
  for i = 0 to m - 1 do
    let supers = ref [] in
    for j = 0 to i - 1 do
      if strictly_contains sets.(j) sets.(i) then supers := j :: !supers
    done;
    let minimal j =
      not (List.exists (fun j' -> j' <> j && strictly_contains sets.(j) sets.(j')) !supers)
    in
    let fs = List.filter minimal !supers in
    fathers.(i) <- fs;
    List.iter (fun j -> children.(j) <- i :: children.(j)) fs
  done;
  Array.init m (fun i ->
      let category =
        if i = 0 then 0
        else
          match fathers.(i) with
          | [ f ] -> if f = 0 then 1 else 3
          | _ :: _ :: _ -> 2
          | [] -> assert false
      in
      {
        Input_poset.id = i;
        states = sets.(i);
        card = Bitvec.cardinal sets.(i);
        fathers = fathers.(i);
        children = children.(i);
        category;
      })

(* Random families on 1..130 states (multi-word past 63): dense random
   groups, and groups drawn inside an earlier one so that nesting gives
   category-3 chains as well as category-2 meets. *)
let test_closure_matches_reference () =
  let rng = Random.State.make [| 2024 |] in
  for case = 1 to 150 do
    let n = 1 + Random.State.int rng 130 in
    let random_subset within density =
      let v = Bitvec.create n in
      Bitvec.iter (fun s -> if Random.State.float rng 1.0 < density then Bitvec.set v s) within;
      v
    in
    let ics = ref [] in
    for _ = 1 to Random.State.int rng 7 do
      let within =
        match !ics with
        | g :: _ when Random.State.bool rng -> g
        | _ -> Bitvec.full n
      in
      ics := random_subset within (0.2 +. Random.State.float rng 0.6) :: !ics
    done;
    let ctx = Printf.sprintf "case %d (n=%d, %d groups)" case n (List.length !ics) in
    let expected = reference_elements ~num_states:n !ics in
    let got = (Input_poset.build ~num_states:n !ics).Input_poset.elements in
    Alcotest.(check int) (ctx ^ ": size") (Array.length expected) (Array.length got);
    Array.iteri
      (fun i (e : Input_poset.element) ->
        let g = got.(i) in
        let ctx = Printf.sprintf "%s element %d" ctx i in
        check (ctx ^ ": states") true (Bitvec.equal e.states g.Input_poset.states);
        Alcotest.(check int) (ctx ^ ": id") e.id g.Input_poset.id;
        Alcotest.(check int) (ctx ^ ": card") e.card g.Input_poset.card;
        Alcotest.(check (list int)) (ctx ^ ": fathers") e.fathers g.Input_poset.fathers;
        Alcotest.(check (list int)) (ctx ^ ": children") e.children g.Input_poset.children;
        Alcotest.(check int) (ctx ^ ": category") e.category g.Input_poset.category)
      expected
  done

(* --- The embedding engine on the paper's instance ---------------------- *)

let test_iexact_paper_example () =
  match Iexact.iexact_code ~num_states:7 paper_ics with
  | Iexact.Exhausted -> Alcotest.fail "iexact exhausted on the paper example"
  | Iexact.Sat { k; codes; _ } ->
      Alcotest.(check int) "minimum dimension 4" 4 k;
      let enc = Encoding.make ~nbits:k codes in
      List.iter
        (fun ic ->
          check
            (Printf.sprintf "constraint %s satisfied" (Bitvec.to_string ic))
            true (Constraints.satisfied enc ic))
        paper_ics

let test_semiexact_paper_example () =
  (* At k = 4 the minimum-level restriction still finds a full solution. *)
  match Iexact.semiexact_code ~num_states:7 ~k:4 paper_ics with
  | None -> Alcotest.fail "semiexact failed at k=4"
  | Some codes ->
      let enc = Encoding.make ~nbits:4 codes in
      List.iter
        (fun ic -> check "satisfied" true (Constraints.satisfied enc ic))
        paper_ics

let test_semiexact_infeasible_dim () =
  (* k = 2 cannot even hold 7 distinct codes. *)
  check "k=2 infeasible" true (Iexact.semiexact_code ~num_states:7 ~k:2 paper_ics = None)

let suite =
  [
    Alcotest.test_case "face basics" `Quick test_face_basics;
    Alcotest.test_case "face intersection/supercube" `Quick test_face_inter;
    Alcotest.test_case "face enumeration counts" `Quick test_face_enumeration;
    Alcotest.test_case "face vertices" `Quick test_face_vertices;
    Alcotest.test_case "closure of paper example" `Quick test_closure_elements;
    Alcotest.test_case "categories of paper example" `Quick test_categories;
    Alcotest.test_case "fathers of 0000100" `Quick test_fathers_example_321;
    Alcotest.test_case "mincube_dim = 4" `Quick test_mincube_dim;
    Alcotest.test_case "closure matches the fixpoint reference" `Quick
      test_closure_matches_reference;
    Alcotest.test_case "iexact on paper example" `Quick test_iexact_paper_example;
    Alcotest.test_case "semiexact on paper example" `Quick test_semiexact_paper_example;
    Alcotest.test_case "semiexact at infeasible dimension" `Quick test_semiexact_infeasible_dim;
  ]
