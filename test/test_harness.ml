(* Tests for the experiment harness: report rendering and the
   per-machine table results (kept to small machines so the suite stays
   fast). *)

let check = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_print_table () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Report.print_table ppf ~title:"T"
    ~header:[ "a"; "bb" ]
    [ [ "1"; "2" ]; [ "333"; "4" ] ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check "title present" true (String.length out > 0 && contains out "== T ==")

let test_print_table_ragged () =
  let ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  Alcotest.check_raises "ragged row" (Invalid_argument "Report.print_table: ragged row")
    (fun () ->
      Harness.Report.print_table ppf ~title:"T" ~header:[ "a"; "b" ] [ [ "1" ] ])

let test_opt_int () =
  Alcotest.(check string) "opt some" "7" (Harness.Report.opt_int (Some 7));
  Alcotest.(check string) "opt none" "-" (Harness.Report.opt_int None)

let test_spark () =
  let s = Harness.Report.spark [ Some 1.0; Some 2.0; None; Some 1.5 ] in
  check "spark nonempty" true (String.length s > 0);
  Alcotest.(check string) "spark empty input" "" (Harness.Report.spark [ None; None ]);
  check "constant series renders" true (String.length (Harness.Report.spark [ Some 1.; Some 1. ]) > 0)

let test_best_of_nova_consistency () =
  let { Harness.Tables.nova_best; ihybrid; igreedy; random_best; random_avg } =
    Harness.Tables.areas "lion"
  in
  check "nova best no worse than ihybrid" true (nova_best <= ihybrid);
  check "nova best no worse than igreedy" true (nova_best <= igreedy);
  check "best <= avg" true (random_best <= random_avg)

let test_names_quick () =
  let full = Harness.Tables.names ~quick:false in
  let quick = Harness.Tables.names ~quick:true in
  check "quick is a subset" true (List.for_all (fun n -> List.mem n full) quick);
  check "quick drops the heavy machines" true (not (List.mem "scf" quick));
  Alcotest.(check int) "full has all 30" 30 (List.length full)

let test_table1_smoke () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Tables.table1 ~quick:true ppf ();
  Format.pp_print_flush ppf ();
  check "mentions shiftreg" true (contains (Buffer.contents buf) "shiftreg")

let suite =
  [
    Alcotest.test_case "print_table" `Quick test_print_table;
    Alcotest.test_case "print_table ragged" `Quick test_print_table_ragged;
    Alcotest.test_case "opt_int" `Quick test_opt_int;
    Alcotest.test_case "spark" `Quick test_spark;
    Alcotest.test_case "best of NOVA consistency" `Quick test_best_of_nova_consistency;
    Alcotest.test_case "quick machine list" `Quick test_names_quick;
    Alcotest.test_case "table1 smoke" `Quick test_table1_smoke;
  ]
