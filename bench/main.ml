(* The paper's evaluation, reproduced.

   Running with no arguments regenerates every table and figure of the
   paper's evaluation section (Section VII) and the ablations, then runs
   one Bechamel micro-benchmark per table, timing that table's
   characteristic kernel.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table3          -- one table
     dune exec bench/main.exe --quick         -- skip the heavy machines
     dune exec bench/main.exe --no-bechamel

   The tables print measured numbers next to the paper's published totals
   (see EXPERIMENTS.md for the per-table discussion). This executable
   reproduces the paper and writes no file; `nova bench MODE` writes
   every benchmark artifact. *)

open Bechamel
open Toolkit

let lion () = Benchmarks.Suite.find "lion"
let dk15 () = Benchmarks.Suite.find "dk15"

let ics_of m = Constraints.of_symbolic (Symbolic.of_fsm m)

let paper_ics () =
  List.map Bitvec.of_string
    [ "1110000"; "0111000"; "0000111"; "1000110"; "0000011"; "0011000" ]

(* One characteristic kernel per table: the algorithmic step that table
   exercises, on a small machine, so Bechamel can sample it repeatedly. *)
let tests =
  [
    Test.make ~name:"table1:stats" (Staged.stage (fun () -> Fsm.stats (lion ())));
    Test.make ~name:"table2:ihybrid+igreedy(dk15)"
      (Staged.stage (fun () ->
           let m = dk15 () in
           let ics = ics_of m in
           let n = Fsm.num_states ~m in
           let ih = Ihybrid.ihybrid_code ~num_states:n ics in
           let ig = Igreedy.igreedy_code ~num_states:n ics in
           (ih, ig)));
    Test.make ~name:"table3:kiss+espresso(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let ics = ics_of m in
           let e = Baselines.kiss_encode ~num_states:(Fsm.num_states ~m) ics in
           Encoded.implement m e));
    Test.make ~name:"table4:symbmin+iohybrid(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let sm = Symbmin.run (Symbolic.of_fsm m) in
           Iohybrid.iohybrid_code sm.Symbmin.problem));
    Test.make ~name:"table5:iohybrid(bbtas)"
      (Staged.stage (fun () ->
           let m = Benchmarks.Suite.find "bbtas" in
           let sm = Symbmin.run (Symbolic.of_fsm m) in
           Iohybrid.iohybrid_code sm.Symbmin.problem));
    Test.make ~name:"table6:semiexact(paper-example)"
      (Staged.stage (fun () -> Iexact.semiexact_code ~num_states:7 ~k:4 (paper_ics ())));
    Test.make ~name:"table7:mustang+factoring(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let e =
             Baselines.mustang_encode m ~flavor:Baselines.Fanout ~include_outputs:true
               ~nbits:(Encoding.min_code_length (Fsm.num_states ~m))
           in
           let r = Encoded.implement m e in
           let net =
             Multilevel.of_cover r.Encoded.cover
               ~num_binary_vars:(m.Fsm.num_inputs + e.Encoding.nbits)
           in
           Multilevel.factored_literals (Multilevel.optimize net)));
    Test.make ~name:"fig8:random-pool(lion)"
      (Staged.stage (fun () ->
           let m = lion () in
           let n = Fsm.num_states ~m in
           List.init 4 (fun i ->
               let rng = Random.State.make [| 77; i; n |] in
               let e = Encoding.random rng ~num_states:n ~nbits:(Encoding.min_code_length n) in
               (Encoded.implement m e).Encoded.area)));
    Test.make ~name:"fig9:iexact(paper-example)"
      (Staged.stage (fun () -> Iexact.iexact_code ~num_states:7 (paper_ics ())));
    Test.make ~name:"fig10:espresso(lion-onehot)"
      (Staged.stage (fun () ->
           let m = lion () in
           Encoded.implement m (Encoding.one_hot (Fsm.num_states ~m))));
  ]

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw_results = Benchmark.all cfg instances (Test.make_grouped ~name:"nova" tests) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Format.printf "@.== Bechamel micro-benchmarks (one kernel per table) ==@.";
  Hashtbl.iter
    (fun label tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ time ] -> Format.printf "%-42s %14.1f ns/run (%s)@." name time label
          | Some _ | None -> Format.printf "%-42s (no estimate)@." name)
        tbl)
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let ppf = Format.std_formatter in
  let modes =
    [
      ("table1", Harness.Tables.table1 ~quick ppf); ("table2", Harness.Tables.table2 ~quick ppf);
      ("table3", Harness.Tables.table3 ~quick ppf); ("table4", Harness.Tables.table4 ~quick ppf);
      ("table5", Harness.Tables.table5 ~quick ppf); ("table6", Harness.Tables.table6 ~quick ppf);
      ("table7", Harness.Tables.table7 ~quick ppf); ("fig8", Harness.Tables.fig8 ~quick ppf);
      ("fig9", Harness.Tables.fig9 ~quick ppf); ("fig10", Harness.Tables.fig10 ~quick ppf);
      ("ablations", Harness.Ablations.all ~quick ppf); ("bechamel", run_bechamel);
    ]
  in
  let known = "--quick" :: "--no-bechamel" :: List.map fst modes in
  (match List.filter (fun a -> not (List.mem a known)) args with
  | [] -> ()
  | unknown ->
      List.iter (Format.eprintf "unknown argument %S@.") unknown;
      Format.eprintf "usage: main.exe [--quick] [--no-bechamel] [MODE...]; modes: %s@."
        (String.concat " " (List.map fst modes));
      exit 2);
  (match List.filter (fun a -> List.mem_assoc a modes) args with
  | [] ->
      Harness.Tables.all ~quick ppf ();
      Harness.Ablations.all ~quick ppf ();
      if not (List.mem "--no-bechamel" args) then run_bechamel ()
  | picks -> List.iter (fun p -> (List.assoc p modes) ()) picks);
  Format.pp_print_flush ppf ()
