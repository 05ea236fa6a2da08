let heavy name =
  match List.find_opt (fun e -> e.Benchmarks.Suite.name = name) Benchmarks.Suite.all with
  | Some e -> e.Benchmarks.Suite.heavy
  | None -> false

let names ~quick =
  List.filter (fun n -> (not quick) || not (heavy n)) Benchmarks.Suite.table1

let paper field name =
  match Benchmarks.Paper_data.find name with None -> None | Some row -> field row

let soi = string_of_int

(* Measured-vs-paper total summary line. *)
let totals ppf label pairs =
  let ours = List.fold_left (fun a (o, _) -> a + o) 0 pairs in
  let theirs = List.fold_left (fun a (_, p) -> a + Option.value ~default:0 p) 0 pairs in
  let have_paper = List.for_all (fun (_, p) -> p <> None) pairs in
  if have_paper && theirs > 0 then
    Format.fprintf ppf "%s: measured total %d, paper total %d (measured/paper %.2f)@." label
      ours theirs
      (float_of_int ours /. float_of_int theirs)
  else Format.fprintf ppf "%s: measured total %d@." label ours

(* --- Per-machine results ------------------------------------------------ *)

(* Everything the tables print about one machine. Every encoding the
   driver can express comes from [Driver.report] with its default
   unlimited budget and fallback, the same call [nova encode] makes, on
   the machine's driver context: the symbolic minimization, the input
   constraints and the ESPRESSO run of each code array are computed
   once per machine, by whichever table asks first. Three computations
   need parameters the driver does not take and stay direct calls on
   the context's constraints: iexact (Tables II and VI print its
   [proven] flag), the seeded random pool, and the multi-start ihybrid
   runs behind "best of NOVA". Factored-literal counts are memoized by
   code array. *)
type machine = {
  fsm : Fsm.t;
  ctx : Driver.context;
  iexact : Iexact.outcome Lazy.t;
  randoms : Encoding.t list Lazy.t;  (** the paper's random-assignment pool *)
  restarts : Encoding.t list Lazy.t;  (** ihybrid with [order_seed] 1-3 *)
  reports : (Driver.algorithm, Driver.outcome) Hashtbl.t;
  lits : (int * int array, int) Hashtbl.t;
}

(* The paper used one random assignment per state; we cap the pool (see
   DESIGN.md). *)
let num_random_runs = 8

let make name =
  let fsm = Benchmarks.Suite.find name in
  let n = Fsm.num_states ~m:fsm in
  let ctx = Driver.context fsm in
  let ics () = Driver.input_constraints ctx in
  let groups () =
    List.map (fun (ic : Constraints.input_constraint) -> ic.Constraints.states) (ics ())
  in
  {
    fsm;
    ctx;
    iexact = lazy (Iexact.iexact_code ~num_states:n ~max_work:Driver.iexact_max_work (groups ()));
    randoms =
      lazy
        (let nbits = Encoding.min_code_length n in
         List.init num_random_runs (fun i ->
             let rng = Random.State.make [| 77; i; n |] in
             Encoding.random rng ~num_states:n ~nbits));
    restarts =
      lazy
        (List.map
           (fun os -> (Ihybrid.ihybrid_code ~num_states:n ~order_seed:os (ics ())).Ihybrid.encoding)
           [ 1; 2; 3 ]);
    reports = Hashtbl.create 11;
    lits = Hashtbl.create 7;
  }

(* Every machine's record sits in one table behind one mutex, held
   while a row is computed, so the tables stay safe to print from
   several domains. *)
let machines : (string, machine) Hashtbl.t = Hashtbl.create 41
let machines_lock = Mutex.create ()

let with_machine name f =
  Mutex.protect machines_lock @@ fun () ->
  let mc =
    match Hashtbl.find_opt machines name with
    | Some mc -> mc
    | None ->
        let mc = make name in
        Hashtbl.add machines name mc;
        mc
  in
  f mc

let memo tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.add tbl key v;
      v

let key (e : Encoding.t) = (e.Encoding.nbits, e.Encoding.codes)

let driver_report ctx (m : Fsm.t) algo =
  match Driver.report ~ctx m algo with
  | Error err ->
      failwith
        (Printf.sprintf "Tables: %s on %s: %s" (Driver.name algo) m.Fsm.name
           (Nova_error.to_string err))
  | Ok (o, _) -> o

let report mc algo = memo mc.reports algo (fun () -> driver_report mc.ctx mc.fsm algo)
let encoding mc algo = (report mc algo).Driver.encoding
let implement mc e = Driver.implement mc.ctx e
let area_of mc e = (implement mc e).Encoded.area

let random_best_avg mc =
  let areas = List.map (area_of mc) (Lazy.force mc.randoms) in
  let best = List.fold_left min max_int areas in
  let avg = List.fold_left ( + ) 0 areas / List.length areas in
  (best, avg)

let best_ih_ig mc =
  let eh = encoding mc Driver.Ihybrid and eg = encoding mc Driver.Igreedy in
  if area_of mc eh <= area_of mc eg then eh else eg

(* The first of [candidates] that minimizes [measure]. *)
let argmin measure candidates =
  match candidates with
  | [] -> invalid_arg "Tables.argmin"
  | e :: rest -> List.fold_left (fun best c -> if measure c < measure best then c else best) e rest

(* "Best of NOVA": the minimum area over the program's algorithms,
   including a few multi-start ihybrid runs with shuffled equal-weight
   accretion orders (the paper's tables likewise report the program's
   best solution). *)
let nova_best mc =
  argmin (area_of mc)
    (List.map (encoding mc) [ Driver.Ihybrid; Driver.Igreedy; Driver.Iohybrid ]
    @ Lazy.force mc.restarts)

(* The best MUSTANG encoding over the -n/-nt/-p/-pt flavors by cube
   count, at the driver's default minimum code length (Table VII
   protocol), with its flavor label. *)
let mustang_best_cubes mc =
  let candidates =
    List.map
      (fun (label, flavor, outputs) -> (encoding mc (Driver.Mustang (flavor, outputs)), label))
      [
        ("-n", Baselines.Fanout, false);
        ("-nt", Baselines.Fanout, true);
        ("-p", Baselines.Fanin, false);
        ("-pt", Baselines.Fanin, true);
      ]
  in
  argmin (fun (e, _) -> (implement mc e).Encoded.num_cubes) candidates

(* Factored literals of the multilevel network built from the minimized
   encoded cover. *)
let factored_literals mc (e : Encoding.t) =
  memo mc.lits (key e) @@ fun () ->
  let net =
    Multilevel.of_cover (implement mc e).Encoded.cover
      ~num_binary_vars:(mc.fsm.Fsm.num_inputs + e.Encoding.nbits)
  in
  Multilevel.factored_literals (Multilevel.optimize net)

type areas = {
  nova_best : int;
  ihybrid : int;
  igreedy : int;
  random_best : int;
  random_avg : int;
}

let areas name =
  with_machine name @@ fun mc ->
  let random_best, random_avg = random_best_avg mc in
  {
    nova_best = area_of mc (nova_best mc);
    ihybrid = area_of mc (encoding mc Driver.Ihybrid);
    igreedy = area_of mc (encoding mc Driver.Igreedy);
    random_best;
    random_avg;
  }

(* --- Tables ------------------------------------------------------------- *)

let table1 ?(quick = false) ppf () =
  let rows =
    List.map
      (fun name ->
        let m = Benchmarks.Suite.find name in
        let s = Fsm.stats m in
        [
          name;
          soi s.Fsm.stat_inputs;
          soi s.Fsm.stat_outputs;
          soi s.Fsm.stat_states;
          soi s.Fsm.stat_products;
        ])
      (names ~quick)
  in
  Report.print_table ppf ~title:"Table I: statistics of benchmark examples"
    ~header:[ "example"; "#inputs"; "#outputs"; "#states"; "#products" ]
    rows

let table2 ?(quick = false) ppf () =
  let rows = ref [] and area_pairs = ref [] in
  List.iter
    (fun name ->
      with_machine name @@ fun mc ->
      let iex = if heavy name then Iexact.Exhausted else Lazy.force mc.iexact in
      let iex_cells =
        match iex with
        | Iexact.Sat { k; codes; proven } ->
            let r = implement mc (Encoding.make ~nbits:k codes) in
            (* Unproven minimality is starred, like the paper's donfile
               entry. *)
            [ (soi k ^ if proven then "" else "*"); soi r.Encoded.num_cubes; soi r.Encoded.area ]
        | Iexact.Exhausted -> [ "-"; "-"; "-" ]
      in
      let eh = encoding mc Driver.Ihybrid in
      let rh = implement mc eh in
      let eg = encoding mc Driver.Igreedy in
      let rg = implement mc eg in
      (* 1-hot codes only fit the int-based encoding up to 60 states. *)
      let oh_cubes =
        if Fsm.num_states ~m:mc.fsm > 60 then "-"
        else soi (implement mc (encoding mc Driver.One_hot)).Encoded.num_cubes
      in
      area_pairs :=
        (min rh.Encoded.area rg.Encoded.area,
         paper (fun r -> r.Benchmarks.Paper_data.best_ig_ih_area) name)
        :: !area_pairs;
      rows :=
        ([ name ] @ iex_cells
        @ [
            soi eh.Encoding.nbits; soi rh.Encoded.num_cubes; soi rh.Encoded.area;
            soi eg.Encoding.nbits; soi rg.Encoded.num_cubes; soi rg.Encoded.area;
            oh_cubes;
          ])
        :: !rows)
    (names ~quick);
  Report.print_table ppf ~title:"Table II: comparisons of iexact, ihybrid, igreedy"
    ~header:
      [
        "example"; "ex:#bits"; "ex:#cubes"; "ex:area"; "ih:#bits"; "ih:#cubes"; "ih:area";
        "ig:#bits"; "ig:#cubes"; "ig:area"; "1hot:#cubes";
      ]
    (List.rev !rows);
  totals ppf "best of ihybrid/igreedy area" !area_pairs

let table3 ?(quick = false) ppf () =
  let rows = ref [] in
  let best_pairs = ref [] and rnd_pairs = ref [] in
  List.iter
    (fun name ->
      with_machine name @@ fun mc ->
      let eb = best_ih_ig mc in
      let rb = implement mc eb in
      let ek = encoding mc Driver.Kiss in
      let rk = implement mc ek in
      let rnd_best, rnd_avg = random_best_avg mc in
      best_pairs := (rb.Encoded.area, paper (fun r -> r.Benchmarks.Paper_data.best_ig_ih_area) name) :: !best_pairs;
      rnd_pairs := (rnd_best, paper (fun r -> r.Benchmarks.Paper_data.random_best_area) name) :: !rnd_pairs;
      rows :=
        [
          name;
          soi eb.Encoding.nbits; soi rb.Encoded.num_cubes; soi rb.Encoded.area;
          soi ek.Encoding.nbits; soi rk.Encoded.num_cubes; soi rk.Encoded.area;
          soi rnd_best; soi rnd_avg;
        ]
        :: !rows)
    (names ~quick);
  Report.print_table ppf ~title:"Table III: ihybrid/igreedy best vs KISS vs random"
    ~header:
      [
        "example"; "nova:#bits"; "nova:#cubes"; "nova:area"; "kiss:#bits"; "kiss:#cubes";
        "kiss:area"; "rnd:best"; "rnd:avg";
      ]
    (List.rev !rows);
  totals ppf "best of ihybrid/igreedy area" !best_pairs;
  totals ppf "random best area" !rnd_pairs;
  let ours_best = List.fold_left (fun a (o, _) -> a + o) 0 !best_pairs in
  let ours_rnd = List.fold_left (fun a (o, _) -> a + o) 0 !rnd_pairs in
  if ours_rnd > 0 then
    Format.fprintf ppf "nova/random-best ratio: %.2f (paper: 84/100 = 0.84)@."
      (float_of_int ours_best /. float_of_int ours_rnd)

let table4 ?(quick = false) ppf () =
  let rows = ref [] in
  let io_pairs = ref [] and nova_pairs = ref [] in
  List.iter
    (fun name ->
      with_machine name @@ fun mc ->
      let eio = encoding mc Driver.Iohybrid in
      let rio = implement mc eio in
      let eb = best_ih_ig mc in
      let rb = implement mc eb in
      let en = nova_best mc in
      let rn = implement mc en in
      let rnd_best, rnd_avg = random_best_avg mc in
      io_pairs := (rio.Encoded.area, paper (fun r -> r.Benchmarks.Paper_data.iohybrid_area) name) :: !io_pairs;
      nova_pairs := (rn.Encoded.area, paper (fun r -> r.Benchmarks.Paper_data.nova_best_area) name) :: !nova_pairs;
      rows :=
        [
          name;
          soi eio.Encoding.nbits; soi rio.Encoded.num_cubes; soi rio.Encoded.area;
          soi eb.Encoding.nbits; soi rb.Encoded.num_cubes; soi rb.Encoded.area;
          soi en.Encoding.nbits; soi rn.Encoded.num_cubes; soi rn.Encoded.area;
          soi rnd_best; soi rnd_avg;
        ]
        :: !rows)
    (names ~quick);
  Report.print_table ppf
    ~title:"Table IV: iohybrid, ihybrid/igreedy, best of NOVA, random"
    ~header:
      [
        "example"; "io:#bits"; "io:#cubes"; "io:area"; "ih/ig:#bits"; "ih/ig:#cubes";
        "ih/ig:area"; "nova:#bits"; "nova:#cubes"; "nova:area"; "rnd:best"; "rnd:avg";
      ]
    (List.rev !rows);
  totals ppf "iohybrid area" !io_pairs;
  totals ppf "best of NOVA area" !nova_pairs

let table5 ?(quick = false) ppf () =
  let rows = ref [] and pairs = ref [] in
  List.iter
    (fun name ->
      if (not quick) || not (heavy name) then begin
        with_machine name @@ fun mc ->
        let eio = encoding mc Driver.Iohybrid in
        let rio = implement mc eio in
        let capp = paper (fun r -> r.Benchmarks.Paper_data.cappuccino_area) name in
        pairs := (rio.Encoded.area, capp) :: !pairs;
        rows :=
          [
            name;
            soi eio.Encoding.nbits; soi rio.Encoded.num_cubes; soi rio.Encoded.area;
            Report.opt_int capp;
          ]
          :: !rows
      end)
    Benchmarks.Suite.table5;
  Report.print_table ppf
    ~title:"Table V: iohybrid vs Cappuccino/Cream (published areas)"
    ~header:[ "example"; "io:#bits"; "io:#cubes"; "io:area"; "cappuccino:area" ]
    (List.rev !rows);
  totals ppf "iohybrid area vs Cappuccino" !pairs;
  Format.fprintf ppf "(paper reports the iohybrid/Cappuccino total ratio as 71/100)@."

let table6 ?(quick = false) ppf () =
  let rows = ref [] in
  List.iter
    (fun name ->
      with_machine name @@ fun mc ->
      (* wsat is the weight of the constraints ihybrid claims satisfied;
         time is the wall clock of a cold driver call (constraints,
         embedding and ESPRESSO), on a fresh context. *)
      let t0 = Unix.gettimeofday () in
      let ih = driver_report (Driver.context mc.fsm) mc.fsm Driver.Ihybrid in
      let time = Unix.gettimeofday () -. t0 in
      let claimed = ih.Driver.claims.Check.claimed_ics in
      let wsat, wunsat =
        List.fold_left
          (fun (s, u) (ic : Constraints.input_constraint) ->
            if List.exists (Bitvec.equal ic.Constraints.states) claimed then
              (s + ic.Constraints.weight, u)
            else (s, u + ic.Constraints.weight))
          (0, 0) (Driver.input_constraints mc.ctx)
      in
      let clength = (encoding mc Driver.Kiss).Encoding.nbits in
      let ex_clength =
        if heavy name then "?"
        else
          match Lazy.force mc.iexact with
          | Iexact.Sat { k; proven; _ } -> if proven then soi k else "<=" ^ soi k
          | Iexact.Exhausted -> "?"
      in
      rows :=
        [ name; soi wsat; soi wunsat; soi clength; ex_clength; Printf.sprintf "%.2f" time ]
        :: !rows)
    (names ~quick);
  Report.print_table ppf ~title:"Table VI: statistics of ihybrid"
    ~header:[ "example"; "wsat"; "wunsat"; "clength"; "ex-clength"; "time(s)" ]
    (List.rev !rows)

let table7_names ~quick =
  List.filter (fun n -> (not quick) || not (heavy n)) Benchmarks.Suite.table7

(* NOVA's best minimum-code-length two-level result (Table VII protocol). *)
let nova_best_minlen mc =
  let min_len = Encoding.min_code_length (Fsm.num_states ~m:mc.fsm) in
  let candidates =
    List.filter
      (fun (e : Encoding.t) -> e.Encoding.nbits = min_len)
      (List.map (encoding mc) [ Driver.Ihybrid; Driver.Igreedy; Driver.Iohybrid ])
  in
  if candidates = [] then encoding mc Driver.Igreedy
  else argmin (fun e -> (implement mc e).Encoded.num_cubes) candidates

let table7 ?(quick = false) ppf () =
  let rows = ref [] in
  let mu_c = ref [] and nc = ref [] and ml = ref [] and nl = ref [] and rl = ref [] in
  List.iter
    (fun name ->
      with_machine name @@ fun mc ->
      let emu, flavor = mustang_best_cubes mc in
      let rmu = implement mc emu in
      let en = nova_best_minlen mc in
      let rn = implement mc en in
      let mu_lits = factored_literals mc emu in
      let nova_lits = factored_literals mc en in
      let rnd_lits = factored_literals mc (argmin (area_of mc) (Lazy.force mc.randoms)) in
      let p field = paper field name in
      mu_c := (rmu.Encoded.num_cubes, p (fun r -> r.Benchmarks.Paper_data.mustang_cubes)) :: !mu_c;
      nc := (rn.Encoded.num_cubes, p (fun r -> r.Benchmarks.Paper_data.nova_cubes)) :: !nc;
      ml := (mu_lits, p (fun r -> r.Benchmarks.Paper_data.mustang_lits)) :: !ml;
      nl := (nova_lits, p (fun r -> r.Benchmarks.Paper_data.nova_lits)) :: !nl;
      rl := (rnd_lits, p (fun r -> r.Benchmarks.Paper_data.random_lits)) :: !rl;
      rows :=
        [
          name; flavor;
          soi rmu.Encoded.num_cubes; soi rn.Encoded.num_cubes;
          soi mu_lits; soi nova_lits; soi rnd_lits;
        ]
        :: !rows)
    (table7_names ~quick);
  Report.print_table ppf
    ~title:"Table VII: two-level and multilevel, MUSTANG vs NOVA vs random"
    ~header:
      [ "example"; "mu:flavor"; "mu:#cubes"; "nova:#cubes"; "mu:#lit"; "nova:#lit"; "rnd:#lit" ]
    (List.rev !rows);
  totals ppf "MUSTANG cubes" !mu_c;
  totals ppf "NOVA cubes" !nc;
  totals ppf "MUSTANG literals" !ml;
  totals ppf "NOVA literals" !nl;
  totals ppf "random literals" !rl;
  let t l = List.fold_left (fun a (o, _) -> a + o) 0 l in
  if t !nc > 0 && t !nl > 0 then
    Format.fprintf ppf
      "cube ratio MUSTANG/NOVA: %.2f (paper 1.24); literal ratio MUSTANG/NOVA: %.2f (paper 1.08); random/NOVA literals: %.2f (paper 1.30)@."
      (float_of_int (t !mu_c) /. float_of_int (t !nc))
      (float_of_int (t !ml) /. float_of_int (t !nl))
      (float_of_int (t !rl) /. float_of_int (t !nl))

(* --- Figures: ratio series over machines ordered by #states ------------ *)

let figure ?(quick = false) ppf ~title ~series () =
  let ns = names ~quick in
  let columns = List.map fst series in
  let data =
    List.map
      (fun name ->
        with_machine name @@ fun mc -> (name, List.map (fun (_, fn) -> fn mc) series))
      ns
  in
  let rows =
    List.map
      (fun (name, values) ->
        name
        :: List.map
             (function Some v -> Printf.sprintf "%.2f" v | None -> "-")
             values)
      data
  in
  Report.print_table ppf ~title ~header:("example (by #states)" :: columns) rows;
  List.iteri
    (fun i (label, _) ->
      let vals = List.map (fun (_, values) -> List.nth values i) data in
      Format.fprintf ppf "%-18s %s@." label (Report.spark vals))
    series;
  Format.fprintf ppf "@."

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

(* The area of [algo]'s encoding over the best-of-NOVA area. *)
let over_nova area mc = ratio (area mc) (area_of mc (nova_best mc))
let algo_area algo mc = area_of mc (encoding mc algo)

let fig8 ?quick ppf () =
  figure ?quick ppf ~title:"Table VIII (figure): area ratios over best of NOVA"
    ~series:
      [
        ("KISS/NOVA", over_nova (algo_area Driver.Kiss));
        ("rnd-best/NOVA", over_nova (fun mc -> fst (random_best_avg mc)));
        ("rnd-avg/NOVA", over_nova (fun mc -> snd (random_best_avg mc)));
      ]
    ()

let fig9 ?quick ppf () =
  figure ?quick ppf ~title:"Table IX (figure): NOVA algorithm area ratios"
    ~series:
      [
        ("ihybrid/NOVA", over_nova (algo_area Driver.Ihybrid));
        ("iohybrid/NOVA", over_nova (algo_area Driver.Iohybrid));
      ]
    ()

let fig10 ?(quick = false) ppf () =
  let ns = List.filter (fun n -> List.mem n (table7_names ~quick)) (names ~quick) in
  let data =
    List.map
      (fun name ->
        with_machine name @@ fun mc ->
        let emu, _ = mustang_best_cubes mc in
        let en = nova_best_minlen mc in
        let cubes e = (implement mc e).Encoded.num_cubes in
        ( name,
          [
            ratio (cubes emu) (cubes en);
            ratio (factored_literals mc emu) (factored_literals mc en);
          ] ))
      ns
  in
  let rows =
    List.map
      (fun (name, values) ->
        name :: List.map (function Some v -> Printf.sprintf "%.2f" v | None -> "-") values)
      data
  in
  Report.print_table ppf ~title:"Table X (figure): MUSTANG/NOVA ratios"
    ~header:[ "example (by #states)"; "cubes MU/NOVA"; "lits MU/NOVA" ]
    rows;
  List.iteri
    (fun i label ->
      let vals = List.map (fun (_, values) -> List.nth values i) data in
      Format.fprintf ppf "%-18s %s@." label (Report.spark vals))
    [ "cubes MU/NOVA"; "lits MU/NOVA" ];
  Format.fprintf ppf "@."

let all ?(quick = false) ppf () =
  table1 ~quick ppf ();
  table2 ~quick ppf ();
  table3 ~quick ppf ();
  table4 ~quick ppf ();
  table5 ~quick ppf ();
  table6 ~quick ppf ();
  table7 ~quick ppf ();
  fig8 ~quick ppf ();
  fig9 ~quick ppf ();
  fig10 ~quick ppf ()
