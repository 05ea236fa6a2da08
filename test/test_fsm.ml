(* Tests for the FSM substrate: model, KISS2 I/O, symbolic cover,
   encodings, encoded PLA. *)

open Logic

let check = Alcotest.(check bool)

let tiny =
  Fsm.create ~name:"tiny" ~num_inputs:1 ~num_outputs:1
    ~states:[| "a"; "b"; "c" |]
    ~transitions:
      [
        { Fsm.input = "0"; src = Some 0; dst = Some 0; output = "0" };
        { Fsm.input = "1"; src = Some 0; dst = Some 1; output = "0" };
        { Fsm.input = "0"; src = Some 1; dst = Some 2; output = "1" };
        { Fsm.input = "1"; src = Some 1; dst = Some 1; output = "-" };
        { Fsm.input = "-"; src = Some 2; dst = Some 0; output = "1" };
      ]
    ~reset:0 ()

let test_create_validation () =
  let tr input src dst output = { Fsm.input; src; dst; output } in
  Alcotest.check_raises "bad input width"
    (Invalid_argument "Fsm.create: input pattern \"00\" must have width 1") (fun () ->
      ignore
        (Fsm.create ~name:"x" ~num_inputs:1 ~num_outputs:1 ~states:[| "a" |]
           ~transitions:[ tr "00" (Some 0) (Some 0) "0" ]
           ()));
  Alcotest.check_raises "bad state index"
    (Invalid_argument "Fsm.create: next state index 3 out of range") (fun () ->
      ignore
        (Fsm.create ~name:"x" ~num_inputs:1 ~num_outputs:1 ~states:[| "a" |]
           ~transitions:[ tr "0" (Some 0) (Some 3) "0" ]
           ()));
  Alcotest.check_raises "duplicate state name"
    (Invalid_argument "Fsm.create: duplicate state name \"a\"") (fun () ->
      ignore
        (Fsm.create ~name:"x" ~num_inputs:1 ~num_outputs:1 ~states:[| "a"; "a" |]
           ~transitions:[] ()));
  Alcotest.check_raises "no states"
    (Invalid_argument "Fsm.create: a machine needs at least one state") (fun () ->
      ignore (Fsm.create ~name:"x" ~num_inputs:1 ~num_outputs:1 ~states:[||] ~transitions:[] ()))

let test_stats_and_lookup () =
  let s = Fsm.stats tiny in
  Alcotest.(check int) "inputs" 1 s.Fsm.stat_inputs;
  Alcotest.(check int) "outputs" 1 s.Fsm.stat_outputs;
  Alcotest.(check int) "states" 3 s.Fsm.stat_states;
  Alcotest.(check int) "products" 5 s.Fsm.stat_products;
  Alcotest.(check (option int)) "index of b" (Some 1) (Fsm.state_index tiny "b");
  Alcotest.(check (option int)) "index of zz" None (Fsm.state_index tiny "zz");
  Alcotest.(check int) "min code length" 2 (Fsm.min_code_length tiny)

let test_next_simulation () =
  (match Fsm.next tiny ~input:"1" ~src:0 with
  | Some (Some 1, "0") -> ()
  | _ -> Alcotest.fail "expected a -1-> b");
  (match Fsm.next tiny ~input:"0" ~src:2 with
  | Some (Some 0, "1") -> ()
  | _ -> Alcotest.fail "expected c -> a under '-'");
  check "unspecified is None" true (Fsm.next tiny ~input:"1" ~src:2 <> None)

let test_kiss_roundtrip () =
  let text = Kiss.to_string tiny in
  let m = Kiss.parse ~name:"tiny" text in
  Alcotest.(check int) "states" 3 (Fsm.num_states ~m);
  Alcotest.(check int) "rows" 5 (List.length m.Fsm.transitions);
  Alcotest.(check (option int)) "reset preserved" (Some 0) m.Fsm.reset;
  Alcotest.(check string) "second roundtrip is stable" text (Kiss.to_string m)

let test_kiss_errors () =
  let bad header = Printf.sprintf "%s\n0 a b 1\n.e\n" header in
  check "missing .i" true
    (try ignore (Kiss.parse ~name:"x" (bad ".o 1")); false with Kiss.Parse_error _ -> true);
  check "missing .o" true
    (try ignore (Kiss.parse ~name:"x" (bad ".i 1")); false with Kiss.Parse_error _ -> true);
  check "bad .p count" true
    (try
       ignore (Kiss.parse ~name:"x" ".i 1\n.o 1\n.p 2\n0 a b 1\n.e\n");
       false
     with Kiss.Parse_error _ -> true);
  check "unknown reset" true
    (try
       ignore (Kiss.parse ~name:"x" ".i 1\n.o 1\n.r zz\n0 a b 1\n.e\n");
       false
     with Kiss.Parse_error _ -> true);
  check "comments and blanks ok" true
    (let m = Kiss.parse ~name:"x" ".i 1\n.o 1\n# comment\n\n0 a b 1\n1 a a 0\n.e\n" in
     Fsm.num_states ~m = 2)

let test_kiss_star_and_dash () =
  let m = Kiss.parse ~name:"x" ".i 1\n.o 1\n0 * b 1\n1 b - 0\n.e\n" in
  (match m.Fsm.transitions with
  | [ t1; t2 ] ->
      check "star src" true (t1.Fsm.src = None);
      check "dash dst" true (t2.Fsm.dst = None)
  | _ -> Alcotest.fail "expected 2 rows")

(* --- symbolic cover ----------------------------------------------------- *)

let test_symbolic_structure () =
  let sym = Symbolic.of_fsm tiny in
  Alcotest.(check int) "3 states" 3 (Symbolic.num_states sym);
  (* Domain: 1 input var (2 parts), state var (3), output var (3 + 1). *)
  Alcotest.(check int) "vars" 3 (Domain.num_vars sym.Symbolic.dom);
  Alcotest.(check int) "state var size" 3 (Domain.size sym.Symbolic.dom sym.Symbolic.state_var);
  Alcotest.(check int) "output var size" 4 (Domain.size sym.Symbolic.dom sym.Symbolic.output_var);
  (* The on-set asserts something for every row with an asserted column. *)
  check "on-set nonempty" true (Cover.size sym.Symbolic.on > 0);
  (* Row (b,1): output '-' generates a dc cube. *)
  check "dc-set nonempty" true (Cover.size (Symbolic.dc sym) > 0)

let test_symbolic_on_dc_disjointness () =
  (* Specified behaviour must not be contradicted: the on-set and dc-set
     may share cubes only through output '-' columns; the on-set must
     never intersect the *off* region. We verify on ⊆ on∪dc trivially and
     that minimization covers the on-set. *)
  let sym = Symbolic.of_fsm tiny in
  let m = Symbolic.minimize sym in
  check "minimized covers on" true (Cover.covers (Cover.union m (Symbolic.dc sym)) sym.Symbolic.on);
  check "minimized within on+dc" true
    (Cover.covers (Cover.union sym.Symbolic.on (Symbolic.dc sym)) m)

(* --- encodings ---------------------------------------------------------- *)

let test_encoding_validation () =
  Alcotest.check_raises "duplicate code" (Invalid_argument "Encoding.make: duplicate code")
    (fun () -> ignore (Encoding.make ~nbits:2 [| 1; 1 |]));
  Alcotest.check_raises "code out of range"
    (Invalid_argument "Encoding.make: code out of range") (fun () ->
      ignore (Encoding.make ~nbits:2 [| 4 |]));
  let e = Encoding.make ~nbits:3 [| 5; 0; 7 |] in
  Alcotest.(check int) "code 0" 5 (Encoding.code e 0);
  Alcotest.(check int) "bit 0 of code 5" 1 (Encoding.bit e 0 0);
  Alcotest.(check int) "bit 1 of code 5" 0 (Encoding.bit e 0 1);
  Alcotest.(check string) "code string msb first" "101" (Encoding.code_string e 0);
  Alcotest.(check (list int)) "used codes sorted" [ 0; 5; 7 ] (Encoding.used_codes e)

let test_one_hot () =
  let e = Encoding.one_hot 4 in
  Alcotest.(check int) "nbits" 4 e.Encoding.nbits;
  Alcotest.(check (list int)) "codes" [ 1; 2; 4; 8 ] (Encoding.used_codes e)

let test_random_encoding () =
  let rng = Random.State.make [| 5 |] in
  let e = Encoding.random rng ~num_states:7 ~nbits:3 in
  Alcotest.(check int) "7 distinct codes" 7 (List.length (Encoding.used_codes e));
  Alcotest.check_raises "too many states"
    (Invalid_argument "Encoding.random: not enough codes") (fun () ->
      ignore (Encoding.random rng ~num_states:9 ~nbits:3))

(* --- encoded PLA -------------------------------------------------------- *)

let test_area_formula () =
  let e = Encoding.one_hot 3 in
  (* tiny: 1 input, 1 output, encoded with 3 bits:
     area = (2*(1+3) + 3 + 1) * #cubes = 12 * #cubes *)
  Alcotest.(check int) "area model" 36 (Encoded.area ~machine:tiny ~encoding:e ~num_cubes:3)

let all_inputs n =
  List.init (1 lsl n) (fun v -> String.init n (fun i -> if v land (1 lsl i) <> 0 then '1' else '0'))

(* The encoded, minimized PLA must agree with the symbolic machine on
   every specified transition. *)
let check_equivalence m e =
  let enc = Encoded.build m e in
  let cover = Encoded.minimize enc in
  let ok = ref true in
  for s = 0 to Fsm.num_states ~m - 1 do
    List.iter
      (fun input ->
        match Fsm.next m ~input ~src:s with
        | None -> ()
        | Some (dst, out) ->
            let next_code, outputs = Encoded.eval enc cover ~input ~code:(Encoding.code e s) in
            (match dst with
            | Some d -> if next_code <> Encoding.code e d then ok := false
            | None -> ());
            String.iteri
              (fun j ch ->
                match ch with
                | '1' -> if not outputs.(j) then ok := false
                | '0' -> if outputs.(j) then ok := false
                | _ -> ())
              out)
      (all_inputs m.Fsm.num_inputs)
  done;
  !ok

let test_encoded_equivalence_tiny () =
  check "one-hot equivalent" true (check_equivalence tiny (Encoding.one_hot 3));
  check "dense equivalent" true (check_equivalence tiny (Encoding.make ~nbits:2 [| 0; 1; 2 |]));
  check "other assignment equivalent" true
    (check_equivalence tiny (Encoding.make ~nbits:2 [| 3; 0; 1 |]))

let test_encoded_equivalence_shiftreg () =
  let m = Benchmarks.Suite.find "shiftreg" in
  check "natural binary equivalent" true
    (check_equivalence m (Encoding.make ~nbits:3 (Array.init 8 (fun i -> i))))

(* Property: on random small machines with random encodings, the
   minimized encoded PLA implements the machine. *)
let gen_machine_and_encoding =
  QCheck.make
    ~print:(fun (seed, ns, nbits) -> Printf.sprintf "seed=%d ns=%d nbits=%d" seed ns nbits)
    QCheck.Gen.(
      int_bound 10_000 >>= fun seed ->
      int_range 2 6 >>= fun ns ->
      int_range (let r = max 1 ns - 1 in ignore r; 0) 0 >>= fun _ ->
      let nbits = 3 in
      return (seed, ns, nbits))

let prop_encoded_equivalence =
  QCheck.Test.make ~name:"encoded PLA implements the machine" ~count:25
    gen_machine_and_encoding (fun (seed, ns, nbits) ->
      let m =
        Benchmarks.Generator.generate ~name:"prop" ~num_inputs:2 ~num_outputs:2 ~num_states:ns
          ~num_rows:(4 * ns) ~seed
      in
      let rng = Random.State.make [| seed; 1 |] in
      let e = Encoding.random rng ~num_states:ns ~nbits in
      check_equivalence m e)

let test_pla_printing () =
  let e = Encoding.make ~nbits:2 [| 0; 1; 2 |] in
  let enc = Encoded.build tiny e in
  let cover = Encoded.minimize enc in
  let text = Pla.to_string cover ~num_binary_vars:3 in
  check "has .i" true (String.length text > 0 && String.sub text 0 2 = ".i");
  check "mentions .e" true
    (let n = String.length text in
     String.sub text (n - 3) 3 = ".e\n")

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "stats and lookup" `Quick test_stats_and_lookup;
    Alcotest.test_case "next simulation" `Quick test_next_simulation;
    Alcotest.test_case "kiss roundtrip" `Quick test_kiss_roundtrip;
    Alcotest.test_case "kiss parse errors" `Quick test_kiss_errors;
    Alcotest.test_case "kiss star and dash" `Quick test_kiss_star_and_dash;
    Alcotest.test_case "symbolic cover structure" `Quick test_symbolic_structure;
    Alcotest.test_case "symbolic minimize soundness" `Quick test_symbolic_on_dc_disjointness;
    Alcotest.test_case "encoding validation" `Quick test_encoding_validation;
    Alcotest.test_case "one-hot" `Quick test_one_hot;
    Alcotest.test_case "random encoding" `Quick test_random_encoding;
    Alcotest.test_case "area formula" `Quick test_area_formula;
    Alcotest.test_case "encoded equivalence (tiny)" `Quick test_encoded_equivalence_tiny;
    Alcotest.test_case "encoded equivalence (shiftreg)" `Quick test_encoded_equivalence_shiftreg;
    Alcotest.test_case "pla printing" `Quick test_pla_printing;
    QCheck_alcotest.to_alcotest prop_encoded_equivalence;
  ]
