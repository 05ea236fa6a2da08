open Logic

type claims = {
  claimed_ics : Bitvec.t list;
  claimed_ocs : (int * int) list;
}

let no_claims = { claimed_ics = []; claimed_ocs = [] }

type artifacts = {
  nbits : int;
  codes : int array;
  cover : Cover.t;
  claims : claims;
}

type check_id =
  | Injectivity
  | Code_length
  | Face_constraints
  | Output_covering
  | Cover_containment
  | Trace_equivalence

let check_name = function
  | Injectivity -> "injectivity"
  | Code_length -> "code-length"
  | Face_constraints -> "face-constraints"
  | Output_covering -> "output-covering"
  | Cover_containment -> "cover-containment"
  | Trace_equivalence -> "trace-equivalence"

let all_checks =
  [
    Injectivity; Code_length; Face_constraints; Output_covering; Cover_containment;
    Trace_equivalence;
  ]

type outcome = {
  id : check_id;
  pass : bool;
  detail : string;
  span_s : float;
}

type t = { ok : bool; checks : outcome list }

(* Every check is a timed section of its own, and must not raise: an
   exception inside a check is itself a certification failure, never a
   crash of the checker. *)
let check_section =
  Metrics.sections ~prefix:"check." (List.map check_name all_checks)

let run_check id f =
  let t0 = Unix.gettimeofday () in
  let run () =
    match f () with
    | r -> r
    | exception e -> (false, Printf.sprintf "checker exception: %s" (Printexc.to_string e))
  in
  let pass, detail =
    Metrics.span (check_section (check_name id)) run
      ~end_attrs:(fun (pass, _) -> [ ("pass", Trace.Bool pass) ])
  in
  { id; pass; detail; span_s = Unix.gettimeofday () -. t0 }

(* --- (a) structural checks on the raw code array ---------------------- *)

let check_injectivity (m : Fsm.t) a () =
  let n = Array.length m.Fsm.states in
  if Array.length a.codes <> n then
    (false, Printf.sprintf "%d codes for %d states" (Array.length a.codes) n)
  else begin
    let seen = Hashtbl.create n in
    let clash = ref None in
    Array.iteri
      (fun s c ->
        if !clash = None then
          match Hashtbl.find_opt seen c with
          | Some s' -> clash := Some (s', s, c)
          | None -> Hashtbl.add seen c s)
      a.codes;
    match !clash with
    | Some (s', s, c) ->
        (false, Printf.sprintf "states %s and %s share code %d" m.Fsm.states.(s') m.Fsm.states.(s) c)
    | None -> (true, "")
  end

let check_code_length (m : Fsm.t) a () =
  if a.nbits < 1 then (false, Printf.sprintf "declared length %d < 1" a.nbits)
  else begin
    let bad = ref None in
    Array.iteri
      (fun s c ->
        if !bad = None && (c < 0 || (a.nbits < Sys.int_size && c lsr a.nbits <> 0)) then
          bad := Some (s, c))
      a.codes;
    match !bad with
    | Some (s, c) ->
        let name = if s < Array.length m.Fsm.states then m.Fsm.states.(s) else string_of_int s in
        (false, Printf.sprintf "code %d of state %s does not fit in %d bits" c name a.nbits)
    | None -> (true, "")
  end

(* --- (b) claimed input constraints span faces -------------------------- *)

let check_faces (m : Fsm.t) (e : Encoding.t) a () =
  let n = Array.length m.Fsm.states in
  let bad = ref [] in
  List.iter
    (fun group ->
      if Bitvec.length group <> n then
        bad := Printf.sprintf "group %s is not over %d states" (Bitvec.to_string group) n :: !bad
      else if Bitvec.cardinal group < 2 then
        () (* singleton groups are trivially faces *)
      else if not (Constraints.satisfied e group) then
        bad :=
          Printf.sprintf "{%s} does not span a private face"
            (String.concat ","
               (List.map (fun s -> m.Fsm.states.(s)) (Bitvec.to_list group)))
          :: !bad)
    a.claims.claimed_ics;
  match List.rev !bad with
  | [] -> (true, "")
  | faults -> (false, String.concat "; " faults)

(* --- (c) claimed output covering relations ----------------------------- *)

let check_covering (m : Fsm.t) a () =
  let n = Array.length m.Fsm.states in
  let bad = ref [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        bad := Printf.sprintf "claim (%d > %d) is out of range" u v :: !bad
      else
        let cu = a.codes.(u) and cv = a.codes.(v) in
        if not (cu lor cv = cu && cu <> cv) then
          bad :=
            Printf.sprintf "code of %s (%d) does not strictly cover %s (%d)" m.Fsm.states.(u) cu
              m.Fsm.states.(v) cv
            :: !bad)
    a.claims.claimed_ocs;
  match List.rev !bad with
  | [] -> (true, "")
  | faults -> (false, String.concat "; " faults)

(* --- (d) minimized cover vs the re-encoded on/DC sets ------------------ *)

let check_containment (enc : Encoded.t) a () =
  if not (Domain.equal a.cover.Cover.dom enc.Encoded.dom) then
    (false, "cover domain does not match the encoded machine's domain")
  else if not (Cover.covers a.cover enc.Encoded.on) then
    (false, "a specified on-set point is not covered")
  else begin
    let space = Cover.union enc.Encoded.on enc.Encoded.dc in
    if not (Cover.covers space a.cover) then
      (false, "the cover asserts a point outside on-set + DC-set")
    else (true, "")
  end

(* --- (e) trace equivalence --------------------------------------------- *)

let check_traces ~seed ~exhaustive_inputs ~sample_traces ~sample_length (m : Fsm.t)
    (enc : Encoded.t) a () =
  let verdict =
    if m.Fsm.num_inputs <= exhaustive_inputs then Simulate.check_cover enc a.cover
    else
      Simulate.check_cover_sampled
        (Random.State.make [| seed; 0x5eed |])
        enc a.cover ~traces:sample_traces ~length:sample_length
  in
  match verdict with
  | Simulate.Equivalent -> (true, "")
  | Simulate.Mismatch { state; input; detail } ->
      (false, Printf.sprintf "state %s under input %s: %s" m.Fsm.states.(state) input detail)

let certify ?(seed = 0) ?(exhaustive_inputs = 12) ?(sample_traces = 64) ?(sample_length = 32)
    (m : Fsm.t) a =
  let structural =
    [ run_check Injectivity (check_injectivity m a); run_check Code_length (check_code_length m a) ]
  in
  let checks =
    if List.exists (fun c -> not c.pass) structural then structural
    else begin
      (* The code array is now known injective and in range, so the
         validating constructor cannot refuse it. *)
      let e = Encoding.make ~nbits:a.nbits a.codes in
      let encoded = Encoded.build m e in
      structural
      @ [
          run_check Face_constraints (check_faces m e a);
          run_check Output_covering (check_covering m a);
          run_check Cover_containment (check_containment encoded a);
          run_check Trace_equivalence
            (check_traces ~seed ~exhaustive_inputs ~sample_traces ~sample_length m encoded a);
        ]
    end
  in
  { ok = List.for_all (fun c -> c.pass) checks; checks }

let failures c = List.filter (fun o -> not o.pass) c.checks

let summary c =
  if c.ok then Printf.sprintf "certificate OK (%d checks)" (List.length c.checks)
  else
    Printf.sprintf "certificate FAILED: %s"
      (String.concat "; "
         (List.map (fun o -> Printf.sprintf "%s (%s)" (check_name o.id) o.detail) (failures c)))

let to_json c =
  let open Json_min in
  let check o =
    let span_s = Num (Float.round (o.span_s *. 1e6) /. 1e6) in
    Obj [ ("name", Str (check_name o.id)); ("pass", Bool o.pass); ("span_s", span_s);
          ("detail", Str o.detail) ]
  in
  Obj [ ("ok", Bool c.ok); ("checks", Arr (List.map check c.checks)) ]

(* ---------------------------------------------------------------------- *)
(* Fault injection *)

module Inject = struct
  type fault =
    | Flip_code_bit
    | Duplicate_code
    | Oversize_code
    | Drop_cube
    | Raise_cube
    | Corrupt_next_state
    | Corrupt_output
    | Bogus_ic_claim
    | Bogus_oc_claim

  let all =
    [
      Flip_code_bit; Duplicate_code; Oversize_code; Drop_cube; Raise_cube; Corrupt_next_state;
      Corrupt_output; Bogus_ic_claim; Bogus_oc_claim;
    ]

  let name = function
    | Flip_code_bit -> "flip-code-bit"
    | Duplicate_code -> "duplicate-code"
    | Oversize_code -> "oversize-code"
    | Drop_cube -> "drop-cube"
    | Raise_cube -> "raise-cube"
    | Corrupt_next_state -> "corrupt-next-state"
    | Corrupt_output -> "corrupt-output"
    | Bogus_ic_claim -> "bogus-ic-claim"
    | Bogus_oc_claim -> "bogus-oc-claim"

  let of_name s = List.find_opt (fun f -> name f = s) all

  (* Ground truth for vetting cover mutations: a candidate cover is a
     genuine fault iff it misses an on-set point or escapes the on+DC
     space of the (unmutated) encoded machine. Decided with the same
     Logic primitives the certificate uses — but against the transition
     table directly, so the injector never "asks the checker". *)
  let breaks_function (m : Fsm.t) a cover' =
    let e = Encoding.make ~nbits:a.nbits a.codes in
    let enc = Encoded.build m e in
    (not (Cover.covers cover' enc.Encoded.on))
    || not (Cover.covers (Cover.union enc.Encoded.on enc.Encoded.dc) cover')

  let with_cover a cubes = { a with cover = Cover.make a.cover.Cover.dom cubes }

  (* First transition row with a specified next state whose source is
     never shadowed: the first row of the table is the first match for
     any input inside its own cube, so flipping its destination's code is
     guaranteed to surface as a trace mismatch. *)
  let first_specified_dst (m : Fsm.t) =
    List.find_map (fun (tr : Fsm.transition) -> tr.Fsm.dst) m.Fsm.transitions

  let flip_code_bit (m : Fsm.t) a =
    match first_specified_dst m with
    | None -> None (* no specified next state anywhere: nothing to mis-encode *)
    | Some s ->
        let codes = Array.copy a.codes in
        codes.(s) <- codes.(s) lxor 1;
        Some { a with codes }

  let duplicate_code a =
    if Array.length a.codes < 2 then None
    else begin
      let codes = Array.copy a.codes in
      codes.(1) <- codes.(0);
      Some { a with codes }
    end

  let oversize_code a =
    if a.nbits >= Sys.int_size - 2 then None
    else begin
      let codes = Array.copy a.codes in
      codes.(0) <- codes.(0) lor (1 lsl a.nbits);
      Some { a with codes }
    end

  let rec drop_nth n = function
    | [] -> []
    | _ :: rest when n = 0 -> rest
    | c :: rest -> c :: drop_nth (n - 1) rest

  let drop_cube (m : Fsm.t) a =
    let cubes = a.cover.Cover.cubes in
    let rec try_at i =
      if i >= List.length cubes then None
      else
        let candidate = with_cover a (drop_nth i cubes) in
        if breaks_function m a candidate.cover then Some candidate else try_at (i + 1)
    in
    try_at 0

  (* Mutate cube [i] of the cover with [f] (a fresh copy) and vet. *)
  let mutate_cube (m : Fsm.t) a ~candidates ~f =
    let cubes = Array.of_list a.cover.Cover.cubes in
    let rec scan = function
      | [] -> None
      | (i, x) :: rest ->
          let cube = Bitvec.copy cubes.(i) in
          if f cube x then begin
            let cubes' = Array.copy cubes in
            cubes'.(i) <- cube;
            let candidate = with_cover a (Array.to_list cubes') in
            if breaks_function m a candidate.cover then Some candidate else scan rest
          end
          else scan rest
    in
    scan (candidates (Array.length cubes))

  let raise_cube (m : Fsm.t) a =
    let dom = a.cover.Cover.dom in
    let nvars = Domain.num_vars dom in
    let candidates ncubes =
      List.concat_map
        (fun i -> List.init nvars (fun v -> (i, v)))
        (List.init ncubes (fun i -> i))
    in
    mutate_cube m a ~candidates ~f:(fun cube v ->
        if Cube.var_full dom cube v then false
        else begin
          Bitvec.set_range cube (Domain.offset dom v) (Domain.size dom v);
          true
        end)

  (* Toggle one part bit of the final (output) variable: parts
     [0 .. nbits-1] are the next-state columns, the rest the binary
     outputs. *)
  let corrupt_column (m : Fsm.t) a ~parts =
    let dom = a.cover.Cover.dom in
    let ov = Domain.num_vars dom - 1 in
    let off = Domain.offset dom ov in
    let candidates ncubes =
      List.concat_map (fun i -> List.map (fun p -> (i, p)) parts) (List.init ncubes (fun i -> i))
    in
    mutate_cube m a ~candidates ~f:(fun cube p ->
        let bit = off + p in
        if Bitvec.get cube bit then Bitvec.clear cube bit else Bitvec.set cube bit;
        true)

  let corrupt_next_state (m : Fsm.t) a =
    corrupt_column m a ~parts:(List.init a.nbits (fun b -> b))

  let corrupt_output (m : Fsm.t) a =
    if m.Fsm.num_outputs = 0 then None
    else corrupt_column m a ~parts:(List.init m.Fsm.num_outputs (fun j -> a.nbits + j))

  (* A bogus face claim: the first small state group whose codes do NOT
     span a private face under the actual encoding. *)
  let bogus_ic_claim (m : Fsm.t) a =
    let n = Array.length m.Fsm.states in
    let e = Encoding.make ~nbits:a.nbits a.codes in
    let groups = ref [] in
    for s1 = 0 to n - 1 do
      for s2 = s1 + 1 to n - 1 do
        groups := Bitvec.of_list n [ s1; s2 ] :: !groups
      done
    done;
    for s1 = 0 to min (n - 1) 4 do
      for s2 = s1 + 1 to min (n - 1) 5 do
        for s3 = s2 + 1 to min (n - 1) 6 do
          groups := Bitvec.of_list n [ s1; s2; s3 ] :: !groups
        done
      done
    done;
    List.find_opt (fun g -> not (Constraints.satisfied e g)) (List.rev !groups)
    |> Option.map (fun g ->
           { a with claims = { a.claims with claimed_ics = g :: a.claims.claimed_ics } })

  let bogus_oc_claim (m : Fsm.t) a =
    let n = Array.length m.Fsm.states in
    let pairs = ref [] in
    for u = n - 1 downto 0 do
      for v = n - 1 downto 0 do
        if u <> v then pairs := (u, v) :: !pairs
      done
    done;
    List.find_opt
      (fun (u, v) ->
        let cu = a.codes.(u) and cv = a.codes.(v) in
        not (cu lor cv = cu && cu <> cv))
      !pairs
    |> Option.map (fun oc ->
           { a with claims = { a.claims with claimed_ocs = oc :: a.claims.claimed_ocs } })

  let apply (m : Fsm.t) a fault =
    match fault with
    | Flip_code_bit -> flip_code_bit m a
    | Duplicate_code -> duplicate_code a
    | Oversize_code -> oversize_code a
    | Drop_cube -> drop_cube m a
    | Raise_cube -> raise_cube m a
    | Corrupt_next_state -> corrupt_next_state m a
    | Corrupt_output -> corrupt_output m a
    | Bogus_ic_claim -> bogus_ic_claim m a
    | Bogus_oc_claim -> bogus_oc_claim m a
end
