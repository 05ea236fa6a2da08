(* A representative subset: small machines where every variant finishes
   quickly, mid-size ones where the choices matter. *)
let machines ~quick =
  if quick then [ "lion"; "bbtas"; "dk15"; "modulo12"; "dk17" ]
  else
    [
      "lion"; "bbtas"; "dk15"; "modulo12"; "dk17"; "beecount"; "ex5"; "ex3"; "train11";
      "dk512"; "bbara"; "donfile";
    ]

let soi = string_of_int

let symbmin_order ?(quick = false) ppf () =
  let orders =
    [ ("largest", Symbmin.Largest_first); ("smallest", Symbmin.Smallest_first); ("index", Symbmin.Index_order) ]
  in
  let rows =
    List.map
      (fun name ->
        let m = Benchmarks.Suite.find name in
        let sym = Symbolic.of_fsm m in
        name
        :: List.concat_map
             (fun (_, order) ->
               let sm = Symbmin.run ~order sym in
               let io = Iohybrid.iohybrid_code sm.Symbmin.problem in
               let r = Encoded.implement m io.Iohybrid.encoding in
               [ soi (Symbmin.upper_bound sm); soi (List.length sm.Symbmin.graph); soi r.Encoded.area ])
             orders)
      (machines ~quick)
  in
  Report.print_table ppf
    ~title:"Ablation: symbolic minimization symbol-selection order (upper bound / edges / iohybrid area)"
    ~header:
      ("example"
      :: List.concat_map (fun (label, _) -> [ label ^ ":ub"; label ^ ":edges"; label ^ ":area" ]) orders)
    rows

let max_work ?(quick = false) ppf () =
  let budgets = [ 3_000; 30_000; 300_000 ] in
  let rows =
    List.map
      (fun name ->
        let m = Benchmarks.Suite.find name in
        let n = Fsm.num_states ~m in
        let ics = Constraints.of_symbolic (Symbolic.of_fsm m) in
        name
        :: List.concat_map
             (fun budget ->
               let t0 = Unix.gettimeofday () in
               let r = Ihybrid.ihybrid_code ~num_states:n ~max_work:budget ics in
               let dt = Unix.gettimeofday () -. t0 in
               let area = (Encoded.implement m r.Ihybrid.encoding).Encoded.area in
               [ soi (List.length r.Ihybrid.satisfied); soi area; Printf.sprintf "%.2f" dt ])
             budgets)
      (machines ~quick)
  in
  Report.print_table ppf
    ~title:"Ablation: semiexact work budget (satisfied / area / seconds) at 3k, 30k, 300k"
    ~header:
      ("example"
      :: List.concat_map
           (fun b -> let l = soi (b / 1000) ^ "k" in [ l ^ ":sat"; l ^ ":area"; l ^ ":time" ])
           budgets)
    rows

let code_length ?(quick = false) ppf () =
  let rows =
    List.map
      (fun name ->
        let m = Benchmarks.Suite.find name in
        let min_len = Fsm.min_code_length m in
        name
        :: List.concat_map
             (fun extra ->
               match Driver.report ~bits:(min_len + extra) m Driver.Ihybrid with
               | Ok (o, impl) -> [ soi o.Driver.encoding.Encoding.nbits; soi impl.Encoded.area ]
               | Error err -> failwith (Nova_error.to_string err))
             [ 0; 1; 2; 3 ])
      (machines ~quick)
  in
  Report.print_table ppf
    ~title:"Ablation: ihybrid code length, minimum .. minimum+3 (#bits used / area)"
    ~header:
      ("example"
      :: List.concat_map (fun e -> [ Printf.sprintf "+%d:bits" e; Printf.sprintf "+%d:area" e ]) [ 0; 1; 2; 3 ])
    rows

let all ?(quick = false) ppf () =
  symbmin_order ~quick ppf ();
  max_work ~quick ppf ();
  code_length ~quick ppf ()
