(* The paper's evaluation, reproduced.

   Running with no arguments regenerates every table and figure of the
   paper's evaluation section (Section VII) and the ablations.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table3          -- one table
     dune exec bench/main.exe --quick         -- skip the heavy machines

   The tables print measured numbers next to the paper's published totals
   (see EXPERIMENTS.md for the per-table discussion). This executable
   reproduces the paper and writes no file; `nova bench MODE` writes
   every benchmark artifact. *)

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
      ("ablations", Harness.Ablations.all ~quick ppf);
    ]
  in
  let known = "--quick" :: List.map fst modes in
  (match List.filter (fun a -> not (List.mem a known)) args with
  | [] -> ()
  | unknown ->
      List.iter (Format.eprintf "unknown argument %S@.") unknown;
      Format.eprintf "usage: main.exe [--quick] [MODE...]; modes: %s@."
        (String.concat " " (List.map fst modes));
      exit 2);
  (match List.filter (fun a -> List.mem_assoc a modes) args with
  | [] ->
      Harness.Tables.all ~quick ppf ();
      Harness.Ablations.all ~quick ppf ()
  | picks -> List.iter (fun p -> (List.assoc p modes) ()) picks);
  Format.pp_print_flush ppf ()
