(* Unit and property tests for the Bitvec substrate. *)

let check = Alcotest.(check bool)

let test_create_empty () =
  let t = Bitvec.create 100 in
  check "fresh vector is empty" true (Bitvec.is_empty t);
  Alcotest.(check int) "length" 100 (Bitvec.length t);
  Alcotest.(check int) "cardinal" 0 (Bitvec.cardinal t)

let test_set_get () =
  let t = Bitvec.create 130 in
  Bitvec.set t 0;
  Bitvec.set t 63;
  Bitvec.set t 64;
  Bitvec.set t 129;
  check "bit 0" true (Bitvec.get t 0);
  check "bit 63" true (Bitvec.get t 63);
  check "bit 64" true (Bitvec.get t 64);
  check "bit 129" true (Bitvec.get t 129);
  check "bit 1" false (Bitvec.get t 1);
  Alcotest.(check int) "cardinal" 4 (Bitvec.cardinal t);
  Bitvec.clear t 63;
  check "cleared" false (Bitvec.get t 63);
  Alcotest.(check int) "cardinal after clear" 3 (Bitvec.cardinal t)

let test_full () =
  let t = Bitvec.full 67 in
  check "is_full" true (Bitvec.is_full t);
  Alcotest.(check int) "cardinal" 67 (Bitvec.cardinal t);
  let c = Bitvec.complement t in
  check "complement of full is empty" true (Bitvec.is_empty c);
  check "complement of empty is full" true (Bitvec.is_full (Bitvec.complement c))

let test_zero_length () =
  let t = Bitvec.create 0 in
  check "empty" true (Bitvec.is_empty t);
  check "full" true (Bitvec.is_full t);
  check "equal itself" true (Bitvec.equal t (Bitvec.full 0))

let test_out_of_range () =
  let t = Bitvec.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Bitvec.get t (-1)));
  Alcotest.check_raises "get 10" (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Bitvec.get t 10));
  Alcotest.check_raises "negative create" (Invalid_argument "Bitvec.create") (fun () ->
      ignore (Bitvec.create (-1)))

let test_length_mismatch () =
  let a = Bitvec.create 4 and b = Bitvec.create 5 in
  Alcotest.check_raises "inter mismatch" (Invalid_argument "Bitvec: length mismatch") (fun () ->
      ignore (Bitvec.inter a b))

let test_set_ops () =
  let a = Bitvec.of_list 10 [ 1; 3; 5 ] in
  let b = Bitvec.of_list 10 [ 3; 5; 7 ] in
  Alcotest.(check (list int)) "inter" [ 3; 5 ] (Bitvec.to_list (Bitvec.inter a b));
  Alcotest.(check (list int)) "union" [ 1; 3; 5; 7 ] (Bitvec.to_list (Bitvec.union a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitvec.to_list (Bitvec.diff a b));
  check "subset no" false (Bitvec.subset a b);
  check "subset yes" true (Bitvec.subset (Bitvec.of_list 10 [ 3 ]) a);
  check "disjoint no" false (Bitvec.disjoint a b);
  check "disjoint yes" true (Bitvec.disjoint a (Bitvec.of_list 10 [ 0; 2 ]))

let test_ranges () =
  let t = Bitvec.create 100 in
  Bitvec.set_range t 10 20;
  check "range_full" true (Bitvec.range_full t 10 20);
  check "range_full beyond" false (Bitvec.range_full t 10 21);
  check "range_empty before" true (Bitvec.range_empty t 0 10);
  Alcotest.(check int) "range_cardinal" 20 (Bitvec.range_cardinal t 0 100);
  Bitvec.clear_range t 15 5;
  Alcotest.(check int) "after clear_range" 15 (Bitvec.range_cardinal t 0 100);
  check "empty range is full" true (Bitvec.range_full t 50 0);
  check "empty range is empty" true (Bitvec.range_empty t 50 0)

let test_string_roundtrip () =
  let s = "1010011101" in
  let t = Bitvec.of_string s in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string t);
  Alcotest.(check (option int)) "first_set" (Some 0) (Bitvec.first_set t);
  Alcotest.(check (option int)) "first_set empty" None (Bitvec.first_set (Bitvec.create 9))

let test_inplace () =
  let a = Bitvec.of_list 8 [ 0; 1; 2 ] in
  let b = Bitvec.of_list 8 [ 1; 2; 3 ] in
  let c = Bitvec.copy a in
  Bitvec.inter_into c b;
  Alcotest.(check (list int)) "inter_into" [ 1; 2 ] (Bitvec.to_list c);
  let d = Bitvec.copy a in
  Bitvec.union_into d b;
  Alcotest.(check (list int)) "union_into" [ 0; 1; 2; 3 ] (Bitvec.to_list d);
  Alcotest.(check (list int)) "copy isolated source" [ 0; 1; 2 ] (Bitvec.to_list a)

(* Property tests ------------------------------------------------------- *)

let gen_vec =
  QCheck.make
    ~print:(fun (n, l) -> Printf.sprintf "n=%d [%s]" n (String.concat ";" (List.map string_of_int l)))
    QCheck.Gen.(
      int_range 1 200 >>= fun n ->
      list_size (int_bound 40) (int_bound (n - 1)) >>= fun l -> return (n, l))

let vec_of (n, l) = Bitvec.of_list n l

let prop_demorgan =
  QCheck.Test.make ~name:"complement of union = inter of complements" ~count:200
    (QCheck.pair gen_vec gen_vec) (fun ((n1, l1), (_, l2)) ->
      let a = vec_of (n1, l1) and b = vec_of (n1, List.filter (fun i -> i < n1) l2) in
      Bitvec.equal
        (Bitvec.complement (Bitvec.union a b))
        (Bitvec.inter (Bitvec.complement a) (Bitvec.complement b)))

let prop_cardinal_inclusion_exclusion =
  QCheck.Test.make ~name:"|a| + |b| = |a∪b| + |a∩b|" ~count:200 (QCheck.pair gen_vec gen_vec)
    (fun ((n1, l1), (_, l2)) ->
      let a = vec_of (n1, l1) and b = vec_of (n1, List.filter (fun i -> i < n1) l2) in
      Bitvec.cardinal a + Bitvec.cardinal b
      = Bitvec.cardinal (Bitvec.union a b) + Bitvec.cardinal (Bitvec.inter a b))

let prop_subset_diff =
  QCheck.Test.make ~name:"a⊆b iff a\\b empty" ~count:200 (QCheck.pair gen_vec gen_vec)
    (fun ((n1, l1), (_, l2)) ->
      let a = vec_of (n1, l1) and b = vec_of (n1, List.filter (fun i -> i < n1) l2) in
      Bitvec.subset a b = Bitvec.is_empty (Bitvec.diff a b))

let prop_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:200 gen_vec (fun (n, l) ->
      let a = vec_of (n, l) in
      Bitvec.equal a (Bitvec.of_string (Bitvec.to_string a)))

let prop_iter_matches_get =
  QCheck.Test.make ~name:"to_list matches get" ~count:200 gen_vec (fun (n, l) ->
      let a = vec_of (n, l) in
      let from_get = List.filter (Bitvec.get a) (List.init n (fun i -> i)) in
      from_get = Bitvec.to_list a)

(* [to_string] builds its bytes directly; they must stay those of the
   formatter, since tables keyed by them fold in an order that reaches
   cube and constraint order downstream. 100 and 200 run past the
   formatter's default margin and span several words. *)
let test_to_string_matches_pp () =
  let same ctx v =
    Alcotest.(check string) ctx (Format.asprintf "%a" Bitvec.pp v) (Bitvec.to_string v)
  in
  List.iter
    (fun n ->
      same (Printf.sprintf "empty/%d" n) (Bitvec.create n);
      same (Printf.sprintf "full/%d" n) (Bitvec.full n);
      same (Printf.sprintf "alternating/%d" n)
        (Bitvec.of_list n (List.filter (fun i -> i mod 2 = 0) (List.init n Fun.id)));
      if n > 0 then same (Printf.sprintf "last bit/%d" n) (Bitvec.of_list n [ n - 1 ]))
    [ 0; 1; 62; 63; 64; 65; 100; 200 ];
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 300 do
    let n = Random.State.int rng 260 in
    let v = Bitvec.create n in
    for i = 0 to n - 1 do
      if Random.State.bool rng then Bitvec.set v i
    done;
    same (Printf.sprintf "random/%d" n) v
  done

let suite =
  [
    Alcotest.test_case "create/empty" `Quick test_create_empty;
    Alcotest.test_case "set/get across words" `Quick test_set_get;
    Alcotest.test_case "full/complement" `Quick test_full;
    Alcotest.test_case "zero length" `Quick test_zero_length;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "range operations" `Quick test_ranges;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "in-place ops" `Quick test_inplace;
    Alcotest.test_case "to_string is byte-identical to pp" `Quick test_to_string_matches_pp;
    QCheck_alcotest.to_alcotest prop_demorgan;
    QCheck_alcotest.to_alcotest prop_cardinal_inclusion_exclusion;
    QCheck_alcotest.to_alcotest prop_subset_diff;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_iter_matches_get;
  ]
