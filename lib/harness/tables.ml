let heavy name =
  match List.find_opt (fun e -> e.Benchmarks.Suite.name = name) Benchmarks.Suite.all with
  | Some e -> e.Benchmarks.Suite.heavy
  | None -> false

(* The machines of [suite] run at the given effort: [quick] drops the
   heavy ones. *)
let select ~quick suite = List.filter (fun n -> not (quick && heavy n)) suite
let names ~quick = select ~quick Benchmarks.Suite.table1

let paper field name =
  match Benchmarks.Paper_data.find name with None -> None | Some row -> field row

let soi = string_of_int
let measured pairs = List.fold_left (fun a (o, _) -> a + o) 0 pairs
let over a b = float_of_int (measured a) /. float_of_int (measured b)

(* Measured-vs-paper total summary line. *)
let summary ppf label pairs =
  let ours = measured pairs in
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

(* One table over the machines [names]: [row name mc] gives the row's
   cells and one (measured, paper) pair per label of [totals]. The table
   is printed with one summary line per label, and each label's pairs
   are returned in row order. *)
let table ppf ~title ~header ?(totals = []) names row =
  let rows = List.map (fun name -> with_machine name (row name)) names in
  Report.print_table ppf ~title ~header (List.map fst rows);
  List.mapi
    (fun i label ->
      let pairs = List.map (fun (_, ps) -> List.nth ps i) rows in
      summary ppf label pairs;
      pairs)
    totals

(* The #bits, #cubes and area columns of one encoding. *)
let encoding_cells mc (e : Encoding.t) =
  let r = implement mc e in
  [ soi e.Encoding.nbits; soi r.Encoded.num_cubes; soi r.Encoded.area ]

let table1 ?(quick = false) ppf () =
  ignore
  @@ table ppf ~title:"Table I: statistics of benchmark examples"
       ~header:[ "example"; "#inputs"; "#outputs"; "#states"; "#products" ]
       (names ~quick)
  @@ fun name mc ->
  let s = Fsm.stats mc.fsm in
  ( name
    :: List.map soi
         [ s.Fsm.stat_inputs; s.Fsm.stat_outputs; s.Fsm.stat_states; s.Fsm.stat_products ],
    [] )

let table2 ?(quick = false) ppf () =
  ignore
  @@ table ppf ~title:"Table II: comparisons of iexact, ihybrid, igreedy"
       ~header:
         [
           "example"; "ex:#bits"; "ex:#cubes"; "ex:area"; "ih:#bits"; "ih:#cubes"; "ih:area";
           "ig:#bits"; "ig:#cubes"; "ig:area"; "1hot:#cubes";
         ]
       ~totals:[ "best of ihybrid/igreedy area" ]
       (names ~quick)
  @@ fun name mc ->
  let iex_cells =
    match if heavy name then Iexact.Exhausted else Lazy.force mc.iexact with
    | Iexact.Sat { k; codes; proven } ->
        let r = implement mc (Encoding.make ~nbits:k codes) in
        (* Unproven minimality is starred, like the paper's donfile
           entry. *)
        [ (soi k ^ if proven then "" else "*"); soi r.Encoded.num_cubes; soi r.Encoded.area ]
    | Iexact.Exhausted -> [ "-"; "-"; "-" ]
  in
  let eh = encoding mc Driver.Ihybrid and eg = encoding mc Driver.Igreedy in
  let ih = encoding_cells mc eh and ig = encoding_cells mc eg in
  (* 1-hot codes only fit the int-based encoding up to 60 states. *)
  let oh_cubes =
    if Fsm.num_states ~m:mc.fsm > 60 then "-"
    else soi (implement mc (encoding mc Driver.One_hot)).Encoded.num_cubes
  in
  ( (name :: iex_cells) @ ih @ ig @ [ oh_cubes ],
    [
      ( min (area_of mc eh) (area_of mc eg),
        paper (fun r -> r.Benchmarks.Paper_data.best_ig_ih_area) name );
    ] )

let table3 ?(quick = false) ppf () =
  match
    table ppf ~title:"Table III: ihybrid/igreedy best vs KISS vs random"
      ~header:
        [
          "example"; "nova:#bits"; "nova:#cubes"; "nova:area"; "kiss:#bits"; "kiss:#cubes";
          "kiss:area"; "rnd:best"; "rnd:avg";
        ]
      ~totals:[ "best of ihybrid/igreedy area"; "random best area" ]
      (names ~quick)
    @@ fun name mc ->
    let eb = best_ih_ig mc in
    let best = encoding_cells mc eb and kiss = encoding_cells mc (encoding mc Driver.Kiss) in
    let rnd_best, rnd_avg = random_best_avg mc in
    ( (name :: best) @ kiss @ [ soi rnd_best; soi rnd_avg ],
      [
        (area_of mc eb, paper (fun r -> r.Benchmarks.Paper_data.best_ig_ih_area) name);
        (rnd_best, paper (fun r -> r.Benchmarks.Paper_data.random_best_area) name);
      ] )
  with
  | [ best; rnd ] when measured rnd > 0 ->
      Format.fprintf ppf "nova/random-best ratio: %.2f (paper: 84/100 = 0.84)@." (over best rnd)
  | _ -> ()

let table4 ?(quick = false) ppf () =
  ignore
  @@ table ppf ~title:"Table IV: iohybrid, ihybrid/igreedy, best of NOVA, random"
       ~header:
         [
           "example"; "io:#bits"; "io:#cubes"; "io:area"; "ih/ig:#bits"; "ih/ig:#cubes";
           "ih/ig:area"; "nova:#bits"; "nova:#cubes"; "nova:area"; "rnd:best"; "rnd:avg";
         ]
       ~totals:[ "iohybrid area"; "best of NOVA area" ]
       (names ~quick)
  @@ fun name mc ->
  let eio = encoding mc Driver.Iohybrid in
  let io = encoding_cells mc eio and best = encoding_cells mc (best_ih_ig mc) in
  let en = nova_best mc in
  let nova = encoding_cells mc en in
  let rnd_best, rnd_avg = random_best_avg mc in
  ( (name :: io) @ best @ nova @ [ soi rnd_best; soi rnd_avg ],
    [
      (area_of mc eio, paper (fun r -> r.Benchmarks.Paper_data.iohybrid_area) name);
      (area_of mc en, paper (fun r -> r.Benchmarks.Paper_data.nova_best_area) name);
    ] )

let table5 ?(quick = false) ppf () =
  ignore
  @@ table ppf ~title:"Table V: iohybrid vs Cappuccino/Cream (published areas)"
       ~header:[ "example"; "io:#bits"; "io:#cubes"; "io:area"; "cappuccino:area" ]
       ~totals:[ "iohybrid area vs Cappuccino" ]
       (select ~quick Benchmarks.Suite.table5)
       (fun name mc ->
         let eio = encoding mc Driver.Iohybrid in
         let capp = paper (fun r -> r.Benchmarks.Paper_data.cappuccino_area) name in
         ((name :: encoding_cells mc eio) @ [ Report.opt_int capp ], [ (area_of mc eio, capp) ]));
  Format.fprintf ppf "(paper reports the iohybrid/Cappuccino total ratio as 71/100)@."

let table6 ?(quick = false) ppf () =
  ignore
  @@ table ppf ~title:"Table VI: statistics of ihybrid"
       ~header:[ "example"; "wsat"; "wunsat"; "clength"; "ex-clength"; "time(s)" ]
       (names ~quick)
  @@ fun name mc ->
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
  ([ name; soi wsat; soi wunsat; soi clength; ex_clength; Printf.sprintf "%.2f" time ], [])

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
  match
    table ppf ~title:"Table VII: two-level and multilevel, MUSTANG vs NOVA vs random"
      ~header:
        [ "example"; "mu:flavor"; "mu:#cubes"; "nova:#cubes"; "mu:#lit"; "nova:#lit"; "rnd:#lit" ]
      ~totals:
        [ "MUSTANG cubes"; "NOVA cubes"; "MUSTANG literals"; "NOVA literals"; "random literals" ]
      (select ~quick Benchmarks.Suite.table7)
    @@ fun name mc ->
    let emu, flavor = mustang_best_cubes mc in
    let mu_cubes = (implement mc emu).Encoded.num_cubes in
    let en = nova_best_minlen mc in
    let nova_cubes = (implement mc en).Encoded.num_cubes in
    let mu_lits = factored_literals mc emu in
    let nova_lits = factored_literals mc en in
    let rnd_lits = factored_literals mc (argmin (area_of mc) (Lazy.force mc.randoms)) in
    let p field = paper field name in
    ( [ name; flavor; soi mu_cubes; soi nova_cubes; soi mu_lits; soi nova_lits; soi rnd_lits ],
      [
        (mu_cubes, p (fun r -> r.Benchmarks.Paper_data.mustang_cubes));
        (nova_cubes, p (fun r -> r.Benchmarks.Paper_data.nova_cubes));
        (mu_lits, p (fun r -> r.Benchmarks.Paper_data.mustang_lits));
        (nova_lits, p (fun r -> r.Benchmarks.Paper_data.nova_lits));
        (rnd_lits, p (fun r -> r.Benchmarks.Paper_data.random_lits));
      ] )
  with
  | [ mu_c; nc; ml; nl; rl ] when measured nc > 0 && measured nl > 0 ->
      Format.fprintf ppf
        "cube ratio MUSTANG/NOVA: %.2f (paper 1.24); literal ratio MUSTANG/NOVA: %.2f (paper 1.08); random/NOVA literals: %.2f (paper 1.30)@."
        (over mu_c nc) (over ml nl) (over rl nl)
  | _ -> ()

(* --- Figures: ratio series over machines ordered by #states ------------ *)

(* One figure over the machines [names]: [values mc] gives one ratio per
   label of [columns]; each column is also drawn as a sparkline. *)
let figure ppf ~title ~columns names values =
  let data = List.map (fun name -> (name, with_machine name values)) names in
  let cell = function Some v -> Printf.sprintf "%.2f" v | None -> "-" in
  Report.print_table ppf ~title ~header:("example (by #states)" :: columns)
    (List.map (fun (name, vs) -> name :: List.map cell vs) data);
  List.iteri
    (fun i label ->
      Format.fprintf ppf "%-18s %s@." label
        (Report.spark (List.map (fun (_, vs) -> List.nth vs i) data)))
    columns;
  Format.fprintf ppf "@."

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

(* Each area over the best-of-NOVA area. *)
let over_nova mc areas =
  let nova = area_of mc (nova_best mc) in
  List.map (fun area -> ratio area nova) areas

let algo_area mc algo = area_of mc (encoding mc algo)

let fig8 ?(quick = false) ppf () =
  figure ppf ~title:"Table VIII (figure): area ratios over best of NOVA"
    ~columns:[ "KISS/NOVA"; "rnd-best/NOVA"; "rnd-avg/NOVA" ]
    (names ~quick)
  @@ fun mc ->
  let rnd_best, rnd_avg = random_best_avg mc in
  over_nova mc [ algo_area mc Driver.Kiss; rnd_best; rnd_avg ]

let fig9 ?(quick = false) ppf () =
  figure ppf ~title:"Table IX (figure): NOVA algorithm area ratios"
    ~columns:[ "ihybrid/NOVA"; "iohybrid/NOVA" ]
    (names ~quick)
  @@ fun mc -> over_nova mc [ algo_area mc Driver.Ihybrid; algo_area mc Driver.Iohybrid ]

let fig10 ?(quick = false) ppf () =
  figure ppf ~title:"Table X (figure): MUSTANG/NOVA ratios"
    ~columns:[ "cubes MU/NOVA"; "lits MU/NOVA" ]
    (List.filter (fun n -> List.mem n Benchmarks.Suite.table7) (names ~quick))
  @@ fun mc ->
  let emu, _ = mustang_best_cubes mc in
  let en = nova_best_minlen mc in
  let cubes e = (implement mc e).Encoded.num_cubes in
  [
    ratio (cubes emu) (cubes en); ratio (factored_literals mc emu) (factored_literals mc en);
  ]

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
