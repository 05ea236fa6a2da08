(* Every input the benchmark sends, derived from the workload seed.

   Each workload draws from a fixed population of op slots and the seed
   sets the order (and, on serve-miss, the names that make every machine
   a fresh content address). Runs on different seeds therefore measure
   the same population, so their figures can be compared; a timed phase
   always covers whole passes or cycles of it, and a slot is the same
   work on every pass. *)

open Harness.Driver

let rng ~seed tag = Random.State.make [| seed; tag |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A seeded order of the slots [0 .. n-1]. *)
let order ~seed ~tag n = shuffle (rng ~seed tag) (Array.init n Fun.id)

(* A machine of [Benchmarks.Generator], named by its parameters:
   (inputs, outputs, states, rows, generator seed). *)
let base_machine (i, o, s, r, g) =
  Benchmarks.Generator.generate
    ~name:(Printf.sprintf "g%d_%d_%d_%d_%d" i o s r g)
    ~num_inputs:i ~num_outputs:o ~num_states:s ~num_rows:r ~seed:g

(* --- encode-oneshot ------------------------------------------------------ *)

let oneshot_algorithms = [ Ihybrid; Iohybrid; Igreedy; Iexact ]

(* Pairs whose single in-process encode took over ~0.55 s on a 2-core
   x86-64 container; the rest make a pass of about 7 s. *)
let oneshot_slow =
  [
    ("ex1", [ Ihybrid; Iohybrid; Iexact ]); ("s1", [ Ihybrid; Iohybrid; Iexact ]);
    ("styr", oneshot_algorithms); ("sand", oneshot_algorithms); ("dk14", [ Iexact ]);
    ("ex6", [ Iexact ]); ("scud", [ Iexact ]); ("iofsm", [ Iexact ]); ("cse", [ Iexact ]);
    ("ex2", [ Iexact ]); ("donfile", [ Iexact ]); ("dk16", [ Iexact ]);
  ]

type pair = { machine : string; algorithm : algorithm; text : string }

let kiss_of name = Kiss.to_string (Benchmarks.Suite.find name)

let oneshot_pairs () =
  List.concat_map
    (fun (e : Benchmarks.Suite.entry) ->
      if e.heavy then []
      else
        let slow = Option.value (List.assoc_opt e.name oneshot_slow) ~default:[] in
        let text = kiss_of e.name in
        List.filter_map
          (fun a ->
            if List.mem a slow then None else Some { machine = e.name; algorithm = a; text })
          oneshot_algorithms)
    Benchmarks.Suite.all
  |> Array.of_list

(* The budget [nova encode] gives each algorithm: unlimited, except that
   iexact runs under the portfolio's deterministic work cap. *)
let budget_for = function
  | Iexact -> Budget.create ~max_work:Exec.Portfolio.iexact_max_work ()
  | _ -> Budget.create ()

let oneshot_pass ~seed ~pass n = order ~seed ~tag:(1000 + pass) n

(* --- report-pool --------------------------------------------------------- *)

(* Generated machines whose full 7-task portfolio took 2 to 25 ms with
   two domains on a 2-core container, every row certified: 115 of 200
   drawn from four small families. The suite has too few machines that
   cheap for a tail with ten slots beyond it, and in the rest the capped
   iexact task runs for 0.4 s and more, so a run would repeat each of
   them only a few times. The pool's own domain spawns weigh most on
   these small portfolios. *)
let pool_bases =
  List.map (fun g -> (3, 2, 5, 16, g))
    [ 0; 2; 3; 4; 5; 6; 8; 9; 10; 12; 13; 14; 16; 18; 19; 20; 21; 23; 25; 27; 28; 29; 31; 32; 33;
      34; 38; 40; 41; 42; 44; 46; 49 ]
  @ List.map (fun g -> (3, 3, 6, 20, g))
      [ 1; 2; 3; 4; 6; 8; 9; 10; 11; 14; 16; 18; 28; 29; 30; 31; 32; 33; 34; 35; 36; 39; 42; 44;
        46; 47 ]
  @ List.map (fun g -> (4, 3, 7, 24, g)) [ 5; 10; 11; 16; 19; 21; 22; 23; 28; 29; 30; 31; 38; 40; 44; 47; 48 ]
  @ List.map (fun g -> (4, 2, 6, 24, g))
      [ 1; 3; 4; 5; 6; 7; 10; 11; 13; 14; 15; 16; 17; 18; 19; 20; 23; 24; 25; 26; 27; 28; 29; 30;
        31; 33; 34; 35; 36; 38; 39; 40; 41; 42; 43; 44; 46; 47; 48 ]

let pool_pass ~seed ~pass = order ~seed ~tag:(2000 + pass) (List.length pool_bases)

(* --- serve-hit ----------------------------------------------------------- *)

(* Wide-input machines, where recertification walks states x 2^inputs
   (ex1, s1, keyb, cse, scud, bbsse), and many-state machines, where the
   one-hot reference ESPRESSO run dominates (planet, dk16, donfile, ex2),
   in two disjoint halves, one per connection. Position i of both halves
   is sent together; the pairs are matched by hit cost, and the costs
   climb in small steps from ~10 ms to ex1's and planet's ~300 ms, so no
   percentile falls in a gap between two machines. The entries are
   written by igreedy: a hit never runs the encoder, and the cheap cold
   compute keeps the repeated set-up short. *)
let hit_halves =
  [|
    [| "ex1"; "s1"; "cse"; "bbsse"; "donfile"; "bbara"; "physrec" |];
    [| "planet"; "keyb"; "scud"; "dk16"; "ex6"; "ex2"; "mark1" |];
  |]

let hit_algorithm = Igreedy

(* Both halves share one seeded order of positions, the same on every
   cycle. *)
let hit_cycle ~seed ~conn =
  Array.map (fun i -> hit_halves.(conn).(i)) (order ~seed ~tag:3000 (Array.length hit_halves.(conn)))

(* --- serve-miss ---------------------------------------------------------- *)

(* Generated machines whose cold ihybrid compute took 3 to 27 ms on a
   2-core container, each surviving the KISS2 round trip the request
   makes (some generated machines declare a state no row names, which
   the parser refuses). Twenty-five of them make 100 op slots, so the p90
   has ten beyond it. Half the ops are misses and half hits, and the
   costs are spread so that neither percentile falls in a gap between
   two clusters, where one slot more or less would move it: eleven small
   machines (3 to 9 ms) and seven middling ones (8 to 14 ms) make the
   hits and the cheap misses overlap around the median, and seven of 18
   to 27 ms fill the region around the p90. *)
let miss_bases =
  List.map (fun s -> (5, 4, 12, 48, s)) [ 2; 19; 8; 20; 4; 5; 9; 24; 11; 18; 7 ]
  @ List.map (fun s -> (5, 4, 10, 40, s)) [ 1; 10; 28; 33; 36; 42; 47 ]
  @ List.map (fun s -> (5, 4, 12, 48, s)) [ 26; 6; 16; 54; 404 ]
  @ [ (5, 4, 10, 40, 79); (4, 3, 10, 40, 96) ]

let miss_algorithm = Ihybrid

(* The block length of each connection: a machine's second request
   comes one block after its first. Blocks of 3 against blocks of 2 make
   the lockstep pairs cycle through every mix: two computes at once, a
   store beside a read, two reads. *)
let miss_block = [| 3; 2 |]

(* A fresh content address with the base's exact structure: the states
   are renamed with a prefix unique to (seed, connection, cycle, slot). *)
let renamed (m : Fsm.t) ~prefix =
  Fsm.create ~name:(prefix ^ m.Fsm.name) ~num_inputs:m.Fsm.num_inputs
    ~num_outputs:m.Fsm.num_outputs
    ~states:(Array.map (fun s -> prefix ^ s) m.Fsm.states)
    ~transitions:m.Fsm.transitions ?reset:m.Fsm.reset ()

type miss_input = { name : string; kiss2 : string; base : int }

(* Cycle [cycle] of connection [conn]: every base once, in one fixed
   order both connections share and every cycle repeats, so the two
   computes that meet are copies of one structure under different names,
   and a slot of the stream is the same work on every cycle and every
   seed. Which requests meet sets what a pair costs, so the seed sets
   only the names. *)
let miss_cycle ~seed ~conn ~cycle bases =
  Array.mapi
    (fun slot b ->
      let prefix = Printf.sprintf "r%d%c%dx%d_" seed (Char.chr (Char.code 'a' + conn)) cycle slot in
      let m = renamed bases.(b) ~prefix in
      { name = m.Fsm.name; kiss2 = Kiss.to_string m; base = b })
    (order ~seed:0 ~tag:4000 (Array.length bases))

(* The request stream of one cycle: blocks of [block] machines, each
   block sent twice in a row, so every machine is a miss and then a hit
   [block] requests later. *)
let miss_requests ~block cycle =
  let n = Array.length cycle in
  List.concat_map
    (fun b ->
      let block = Array.to_list (Array.sub cycle (b * block) (min block (n - (b * block)))) in
      block @ block)
    (List.init ((n + block - 1) / block) Fun.id)

(* --- digests -------------------------------------------------------------- *)

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
