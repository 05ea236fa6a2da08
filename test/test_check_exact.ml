(* [Check]'s row-model checks against the oracles they replaced.

   Trace equivalence works on first-match row cubes and never walks
   minterms; [Simulate.check_cover] walks every state under every input
   minterm. The two must agree on every verdict, and every failure the
   exact check reports must name a point where the walker sees the same
   mismatch.

   Cover containment reads the rows' 1-, '-'- and 0-cubes; the oracle
   asks the same two questions of [Encoded.build]'s on- and off-sets,
   the minimizer's own input. The two must give the same pass and the
   same detail. *)

open Logic

let check = Alcotest.(check bool)

let outcome id cert =
  List.find_opt (fun (o : Check.outcome) -> o.Check.id = id) cert.Check.checks

let trace_outcome = outcome Check.Trace_equivalence

(* Cover containment as certify asked it of [Encoded]'s sets: the cover
   is over the encoded machine's domain, covers the on-set, and meets no
   off-set cube (the off-set is exactly the complement of on-set +
   DC-set). *)
let old_containment (m : Fsm.t) (a : Check.artifacts) =
  let enc = Encoded.build m (Encoding.make ~nbits:a.Check.nbits a.Check.codes) in
  let dom = enc.Encoded.dom and cover = a.Check.cover in
  if not (Domain.equal cover.Cover.dom dom) then
    (false, "cover domain does not match the encoded machine's domain")
  else if not (Cover.covers cover enc.Encoded.on) then
    (false, "a specified on-set point is not covered")
  else if
    List.exists
      (fun k -> List.exists (Cube.intersects dom k) enc.Encoded.off.Cover.cubes)
      cover.Cover.cubes
  then (false, "the cover asserts a point outside on-set + DC-set")
  else (true, "")

(* The certificate's containment outcome is the oracle's. [None] when
   the structural checks stopped the certificate first. *)
let containment_agrees (m : Fsm.t) (a : Check.artifacts) cert =
  Option.map
    (fun (o : Check.outcome) -> (o.Check.pass, o.Check.detail) = old_containment m a)
    (outcome Check.Cover_containment cert)

(* "state S under input I: ..." names the witness point. *)
let witness (m : Fsm.t) detail =
  let prefix = "state " and sep = " under input " in
  let rec find i = if String.sub detail i (String.length sep) = sep then i else find (i + 1) in
  let at = find (String.length prefix) in
  let name = String.sub detail (String.length prefix) (at - String.length prefix) in
  let input = String.sub detail (at + String.length sep) m.Fsm.num_inputs in
  match Fsm.state_index m name with
  | Some state -> (state, input)
  | None -> Alcotest.failf "witness names no state: %s" detail

(* The walker's verdict on [a], and the exact check's outcome, agree: a
   pass is a pass, and a failure names a point where the walker prints
   exactly the same detail. [None] when the structural checks stopped
   the certificate before trace equivalence. *)
let trace_agrees (m : Fsm.t) (a : Check.artifacts) cert =
  match trace_outcome cert with
  | None -> None
  | Some o ->
      let enc = Encoded.build m (Encoding.make ~nbits:a.Check.nbits a.Check.codes) in
      let walker = Simulate.check_cover enc a.Check.cover in
      Some
        (if o.Check.pass then walker = Simulate.Equivalent
         else
           walker <> Simulate.Equivalent
           &&
           let state, input = witness m o.Check.detail in
           match Simulate.check_at enc a.Check.cover ~state ~input with
           | Simulate.Mismatch { detail; _ } ->
               o.Check.detail
               = Printf.sprintf "state %s under input %s: %s" m.Fsm.states.(state) input detail
           | Simulate.Equivalent -> false)

(* Both checks of one certificate against their oracles: [Some
   (containment, trace)], or [None] when neither ran. *)
let agrees (m : Fsm.t) (a : Check.artifacts) =
  let cert = Check.certify m a in
  match (containment_agrees m a cert, trace_agrees m a cert) with
  | Some containment, Some trace -> Some (containment, trace)
  | None, None -> None
  | _ -> Alcotest.fail "containment and trace equivalence ran apart"

(* --- oracle: the suite, clean and under every fault class ------------- *)

let oracle_algorithms =
  Harness.Driver.[ Ihybrid; Igreedy; One_hot; Random 3 ]

let test_oracle_suite () =
  let compared = ref 0 in
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let m = Lazy.force e.Benchmarks.Suite.machine in
      if (not e.Benchmarks.Suite.heavy) && m.Fsm.num_inputs <= 12 then
        List.iter
          (fun algo ->
            let a =
              match Harness.Driver.report m algo with
              | Ok (o, r) -> Harness.Certify.artifacts_of o r
              | Error err -> Alcotest.failf "report failed: %s" (Nova_error.to_string err)
            in
            let variants =
              ("clean", Some a)
              :: List.map
                   (fun f -> (Check.Inject.name f, Check.Inject.apply m a f))
                   Check.Inject.all
            in
            List.iter
              (fun (variant, a) ->
                match Option.bind a (agrees m) with
                | None -> ()
                | Some (containment, trace) ->
                    incr compared;
                    let where =
                      Printf.sprintf "%s/%s/%s" m.Fsm.name (Harness.Driver.name algo) variant
                    in
                    if not containment then
                      Alcotest.failf "%s: containment and its oracle disagree" where;
                    if not trace then Alcotest.failf "%s: exact check and walker disagree" where)
              variants)
          oracle_algorithms)
    Benchmarks.Suite.all;
  check "compared a suite's worth of certificates" true (!compared > 500)

(* --- property: overlapping rows, '*' sources, free entries ------------ *)

(* Small machines whose rows overlap, some with a '*' source, some with
   no next state and '-' outputs: the region subtraction the suite never
   exercises (its rows are disjoint within each state). *)
let gen_machine =
  let open QCheck.Gen in
  let pattern n = string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return n) in
  int_range 1 4 >>= fun ni ->
  int_range 0 3 >>= fun no ->
  int_range 1 5 >>= fun ns ->
  let row =
    pattern ni >>= fun input ->
    frequency [ (1, return None); (4, map Option.some (int_bound (ns - 1))) ] >>= fun src ->
    frequency [ (1, return None); (4, map Option.some (int_bound (ns - 1))) ] >>= fun dst ->
    pattern no >>= fun output -> return { Fsm.input; src; dst; output }
  in
  list_size (int_range 1 10) row >>= fun transitions ->
  let m =
    Fsm.create ~name:"prop" ~num_inputs:ni ~num_outputs:no
      ~states:(Array.init ns (Printf.sprintf "s%d"))
      ~transitions ()
  in
  int_bound 1 >>= fun extra_bit ->
  let nbits = Fsm.min_code_length m + extra_bit in
  shuffle_l (List.init (1 lsl nbits) Fun.id) >>= fun codes ->
  int_bound 1_000_000 >>= fun mutation ->
  return (m, nbits, Array.of_list (List.filteri (fun i _ -> i < ns) codes), mutation)

let print_case ((m : Fsm.t), nbits, codes, mutation) =
  Printf.sprintf "%s\nnbits=%d codes=[%s] mutation=%d" (Kiss.to_string m) nbits
    (String.concat ";" (Array.to_list (Array.map string_of_int codes)))
    mutation

(* Toggle one part bit of one cube; an empty cover gains the full cube
   with that bit toggled instead. *)
let mutate dom cubes k =
  let cubes = Array.of_list (if cubes = [] then [ Cube.full dom ] else cubes) in
  let i = k mod Array.length cubes and bit = k / Array.length cubes mod Domain.width dom in
  let c = Bitvec.copy cubes.(i) in
  if Bitvec.get c bit then Bitvec.clear c bit else Bitvec.set c bit;
  cubes.(i) <- c;
  Cover.make dom (Array.to_list cubes)

(* Both checks agree with their oracles on the minimized cover and on a
   mutated one. *)
let prop_exact_is_walker =
  QCheck.Test.make ~name:"exact trace check = minterm walker (overlaps, '*', free entries)"
    ~count:300 (QCheck.make ~print:print_case gen_machine)
    (fun (m, nbits, codes, mutation) ->
      let cover = Encoded.minimize (Encoded.build m (Encoding.make ~nbits codes)) in
      let a = { Check.nbits; codes; cover; claims = Check.no_claims } in
      let mutated = { a with Check.cover = mutate cover.Cover.dom cover.Cover.cubes mutation } in
      agrees m a = Some (true, true) && agrees m mutated = Some (true, true))

(* --- wide inputs: a one-minterm fault the old sampler misses --------- *)

(* The sampler certification used past 12 inputs: [traces] random input
   traces of [length] steps from the reset state, each step checked by
   the walker until the table leaves the next state unspecified. [true]
   when no step mismatched. *)
let sampler_passes rng (enc : Encoded.t) cover ~traces ~length =
  let m = enc.Encoded.machine in
  let draw () =
    List.init length (fun _ ->
        String.init m.Fsm.num_inputs (fun _ -> if Random.State.bool rng then '1' else '0'))
  in
  let rec follow s = function
    | [] -> true
    | input :: rest -> (
        Simulate.check_at enc cover ~state:s ~input = Simulate.Equivalent
        &&
        match Fsm.next m ~input ~src:s with
        | Some (Some d, _) -> follow d rest
        | Some (None, _) | None -> true)
  in
  let start = Option.value m.Fsm.reset ~default:0 in
  List.for_all (fun _ -> follow start (draw ())) (List.init traces Fun.id)

(* The 14-input machine CI certifies ([nova gen -s 12 -p 48 -i 14 -o 4
   -g 7]). Certification used to switch to 64 seeded traces of 32 steps
   past 12 inputs; one wrong output bit at one point escapes them, and
   the exact check names that very point. *)
let test_wide_input_fault () =
  let m =
    Benchmarks.Generator.generate ~name:"gen" ~num_inputs:14 ~num_outputs:4 ~num_states:12
      ~num_rows:48 ~seed:7
  in
  let a =
    match Harness.Driver.report m Harness.Driver.Ihybrid with
    | Ok (o, r) -> Harness.Certify.artifacts_of o r
    | Error err -> Alcotest.failf "report failed: %s" (Nova_error.to_string err)
  in
  check "clean certificate" true (Check.certify m a).Check.ok;
  let dom = a.Check.cover.Cover.dom and nb = a.Check.nbits in
  let ni = m.Fsm.num_inputs in
  (* The last state's first row with a 0 output; its don't-care inputs
     filled with 1s, a corner traces reach with probability 2^-k. *)
  let state = Array.length m.Fsm.states - 1 in
  let tr, j =
    match
      List.find_map
        (fun (tr : Fsm.transition) ->
          if tr.Fsm.src <> Some state then None
          else Option.map (fun j -> (tr, j)) (String.index_opt tr.Fsm.output '0'))
        m.Fsm.transitions
    with
    | Some found -> found
    | None -> Alcotest.fail "no row with a 0 output in the last state"
  in
  let input = String.map (fun ch -> if ch = '-' then '1' else ch) tr.Fsm.input in
  let values =
    Array.init (ni + nb + 1) (fun v ->
        if v < ni then Char.code input.[v] - Char.code '0'
        else if v < ni + nb then (a.Check.codes.(state) lsr (v - ni)) land 1
        else nb + j)
  in
  check "the row is the first match there" true
    (match Fsm.next m ~input ~src:state with Some (_, out) -> out = tr.Fsm.output | None -> false);
  let point = Cover.make dom [ Cube.of_minterm dom values ] in
  let faulty = { a with Check.cover = Cover.union a.Check.cover point } in
  let enc = Encoded.build m (Encoding.make ~nbits:nb a.Check.codes) in
  check "64 traces of 32 steps from certify's old seed miss it" true
    (sampler_passes
       (Random.State.make [| 0; 0x5eed |])
       enc faulty.Check.cover ~traces:64 ~length:32);
  match trace_outcome (Check.certify m faulty) with
  | Some { Check.pass = false; detail; _ } ->
      Alcotest.(check string) "witness is the faulty point"
        (Printf.sprintf "state %s under input %s: outputs disagree with %s" m.Fsm.states.(state)
           input tr.Fsm.output)
        detail
  | Some _ -> Alcotest.fail "the exact check passed a one-minterm fault"
  | None -> Alcotest.fail "trace equivalence did not run"

let suite =
  [
    Alcotest.test_case "oracle: suite x 4 encoders x (clean + 9 faults)" `Slow test_oracle_suite;
    QCheck_alcotest.to_alcotest prop_exact_is_walker;
    Alcotest.test_case "14 inputs: one-minterm fault caught, sampler misses" `Quick
      test_wide_input_fault;
  ]
