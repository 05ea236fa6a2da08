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

(* --- (d) minimized cover vs the re-encoded on/off sets ----------------- *)

(* The off-set is exactly the complement of on-set + DC-set, so staying
   inside on-set + DC-set is meeting no off cube: pairwise, no
   tautology. *)
let check_containment (dom, (on : Cover.t), (off : Cover.t)) a () =
  if not (Domain.equal a.cover.Cover.dom dom) then
    (false, "cover domain does not match the encoded machine's domain")
  else if not (Cover.covers a.cover on) then
    (false, "a specified on-set point is not covered")
  else if
    List.exists (fun c -> List.exists (Cube.intersects dom c) off.Cover.cubes) a.cover.Cover.cubes
  then (false, "the cover asserts a point outside on-set + DC-set")
  else (true, "")

(* --- (e) trace equivalence --------------------------------------------- *)

(* Exact at any input width, from the transition table, the raw codes
   and [Logic] alone: nothing here goes through [Encoded], which builds
   the minimizer's input. In state [s] a row's cube is its input pattern
   at code(s), and its region is that cube minus the cubes of the
   earlier rows that also match [s] — [Fsm.next]'s first-match rule. On
   its region a row's 1 columns (destination code bits, '1' outputs)
   must be covered and its 0 columns must meet no cover cube.
   [dst = None], '-' outputs, unused codes and the region no row matches
   are free: the don't-care policy of [Simulate], whose minterm walker
   is this check's test oracle. *)
let check_traces (m : Fsm.t) a () =
  let ni = m.Fsm.num_inputs and no = m.Fsm.num_outputs and nb = a.nbits in
  let cover = a.cover in
  let dom = cover.Cover.dom and ov = ni + nb in
  if not (Domain.equal dom (Domain.create (Array.append (Array.make ov 2) [| nb + no |]))) then
    (false, "cover domain does not match the machine's inputs, code bits and outputs")
  else begin
    let out_off = Domain.offset dom ov in
    (* The row's input pattern; every state and output part. *)
    let pattern input =
      let c = Cube.full dom in
      String.iteri
        (fun v ch ->
          if ch <> '-' then Bitvec.clear c (Domain.offset dom v + if ch = '0' then 1 else 0))
        input;
      c
    in
    let at_code code c =
      let c = Bitvec.copy c in
      for b = 0 to nb - 1 do
        Bitvec.clear c (Domain.offset dom (ni + b) + 1 - ((code lsr b) land 1))
      done;
      c
    in
    let with_parts parts c =
      let c = Bitvec.copy c in
      Bitvec.clear_range c out_off (nb + no);
      List.iter (fun p -> Bitvec.set c (out_off + p)) parts;
      c
    in
    (* The output parts a row specifies as 1 and as 0: next-state bits,
       then the binary outputs. *)
    let columns (tr : Fsm.transition) =
      let next b =
        match tr.Fsm.dst with
        | None -> '-'
        | Some d -> if (a.codes.(d) lsr b) land 1 = 1 then '1' else '0'
      in
      let plane = String.init nb next ^ tr.Fsm.output in
      let parts ch = List.filter (fun p -> plane.[p] = ch) (List.init (nb + no) Fun.id) in
      (parts '1', parts '0')
    in
    (* The rows that can match each state, in table order. *)
    let rows = Array.make (Array.length m.Fsm.states) [] in
    List.iter
      (fun (tr : Fsm.transition) ->
        let ones, zeros = columns tr in
        let row = (tr, pattern tr.Fsm.input, ones, zeros) in
        match tr.Fsm.src with
        | Some s -> rows.(s) <- row :: rows.(s)
        | None -> Array.iteri (fun s matching -> rows.(s) <- row :: matching) rows)
      (List.rev m.Fsm.transitions);
    (* What the walker reports at a minterm of cube [w], where row [tr]
       is the first match in state [s] and some column disagrees. *)
    let mismatch s (tr : Fsm.transition) w =
      let values =
        Array.init (ov + 1) (fun v ->
            if v < ov && not (Bitvec.get w (Domain.offset dom v)) then 1 else 0)
      in
      let column p =
        values.(ov) <- p;
        Cover.contains_minterm cover values
      in
      let next = ref 0 in
      for b = 0 to nb - 1 do
        if column b then next := !next lor (1 lsl b)
      done;
      let input = String.init ni (fun v -> if values.(v) = 1 then '1' else '0') in
      let detail =
        match tr.Fsm.dst with
        | Some d when !next <> a.codes.(d) ->
            Printf.sprintf "next code %d, expected %d (state %s)" !next a.codes.(d)
              m.Fsm.states.(d)
        | Some _ | None -> Printf.sprintf "outputs disagree with %s" tr.Fsm.output
      in
      Printf.sprintf "state %s under input %s: %s" m.Fsm.states.(s) input detail
    in
    (* Row [tr] on region cube [r] in state [s], against the cover cubes
       [here] that meet code(s). *)
    let violation s here (tr, _, ones, zeros) r =
      let uncovered () =
        if ones = [] then None
        else
          let c = with_parts ones r in
          if Cover.covers_cube here c then None
          else
            match (Cover.diff (Cover.make dom [ c ]) here).Cover.cubes with
            | w :: _ -> Some (mismatch s tr w)
            | [] -> None
      in
      let asserted () =
        if zeros = [] then None
        else
          let c = with_parts zeros r in
          List.find_map (fun k -> Option.map (mismatch s tr) (Cube.inter dom k c)) here.Cover.cubes
      in
      match uncovered () with Some _ as found -> found | None -> asserted ()
    in
    let check_state s =
      let code = a.codes.(s) in
      let here =
        let space = at_code code (Cube.full dom) in
        Cover.make dom (List.filter (Cube.intersects dom space) cover.Cover.cubes)
      in
      let rec go earlier = function
        | [] -> None
        | ((_, p, _, _) as row) :: rest -> (
            let cube = at_code code p in
            let region =
              match List.filter (Cube.intersects dom p) earlier with
              | [] -> [ cube ]
              | hits ->
                  let shadow = Cover.make dom (List.map (at_code code) hits) in
                  (Cover.diff (Cover.make dom [ cube ]) shadow).Cover.cubes
            in
            match List.find_map (violation s here row) region with
            | Some _ as found -> found
            | None -> go (p :: earlier) rest)
      in
      go [] rows.(s)
    in
    let rec from s =
      if s = Array.length rows then (true, "")
      else match check_state s with Some detail -> (false, detail) | None -> from (s + 1)
    in
    from 0
  end

let certify (m : Fsm.t) a =
  let structural =
    [ run_check Injectivity (check_injectivity m a); run_check Code_length (check_code_length m a) ]
  in
  let checks =
    if List.exists (fun c -> not c.pass) structural then structural
    else begin
      (* The code array is now known injective and in range, so the
         validating constructor cannot refuse it. *)
      let e = Encoding.make ~nbits:a.nbits a.codes in
      let on_off = Encoded.on_off m e in
      structural
      @ [
          run_check Face_constraints (check_faces m e a);
          run_check Output_covering (check_covering m a);
          run_check Cover_containment (check_containment on_off a);
          run_check Trace_equivalence (check_traces m a);
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
     space of the (unmutated) encoded machine. Decided with Logic
     containment against the full DC cover rebuilt from the transition
     table ([Encoded.dc]), never against the off-set the certificate
     uses, so the injector never "asks the checker". *)
  let breaks_function (m : Fsm.t) a cover' =
    let e = Encoding.make ~nbits:a.nbits a.codes in
    let enc = Encoded.build m e in
    (not (Cover.covers cover' enc.Encoded.on))
    || not (Cover.covers (Cover.union enc.Encoded.on (Encoded.dc enc)) cover')

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
