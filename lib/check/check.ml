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

(* --- the row model -------------------------------------------------------- *)

(* Containment and trace equivalence read the transition table through
   this one model, built from the rows, the raw codes and [Logic] alone,
   apart from the PLA personality that builds the minimizer's input.
   The domain is the PLA's: one binary variable per input and per code
   bit, then the output variable, whose parts are the next-state bits
   followed by the binary outputs. *)
type row = {
  tr : Fsm.transition;
  cube : Cube.t;
      (* the input pattern, the state part at the source's code (full for
         a '*' source), every output part *)
  ones : int list;  (* the output parts the row asserts *)
  dashes : int list;  (* ... leaves free: '-' outputs, the next state of [dst = None] *)
  zeros : int list;  (* ... specifies as 0 *)
}

type model = { dom : Domain.t; ni : int; nb : int; rows : row list }

(* [c] with its state part at [code]. *)
let at_code md code c =
  let c = Bitvec.copy c in
  for b = 0 to md.nb - 1 do
    Bitvec.clear c (Domain.offset md.dom (md.ni + b) + 1 - ((code lsr b) land 1))
  done;
  c

(* [c] with exactly the output parts [parts]. *)
let with_parts md parts c =
  let c = Bitvec.copy c in
  let ov = md.ni + md.nb in
  let off = Domain.offset md.dom ov in
  Bitvec.clear_range c off (Domain.size md.dom ov);
  List.iter (fun p -> Bitvec.set c (off + p)) parts;
  c

let model (m : Fsm.t) a =
  let ni = m.Fsm.num_inputs and nb = a.nbits in
  let dom = Domain.create (Array.append (Array.make (ni + nb) 2) [| nb + m.Fsm.num_outputs |]) in
  let md = { dom; ni; nb; rows = [] } in
  let pattern input =
    let c = Cube.full dom in
    String.iteri
      (fun v ch ->
        if ch <> '-' then Bitvec.clear c (Domain.offset dom v + if ch = '0' then 1 else 0))
      input;
    c
  in
  (* The columns as the PLA personality defines them: '1' asserted, '-'
     free, anything else 0. *)
  let row (tr : Fsm.transition) =
    let cube = pattern tr.Fsm.input in
    let cube = match tr.Fsm.src with Some s -> at_code md a.codes.(s) cube | None -> cube in
    let next b =
      match tr.Fsm.dst with
      | None -> '-'
      | Some d -> if (a.codes.(d) lsr b) land 1 = 1 then '1' else '0'
    in
    let plane = String.init nb next ^ tr.Fsm.output in
    let parts keep =
      List.filter (fun p -> keep plane.[p]) (List.init (String.length plane) Fun.id)
    in
    { tr; cube; ones = parts (( = ) '1'); dashes = parts (( = ) '-');
      zeros = parts (fun ch -> ch <> '1' && ch <> '-') }
  in
  { md with rows = List.map row m.Fsm.transitions }

(* The cover cubes whose state part holds [code]: the only ones that
   meet a cube at that code. *)
let at_state md (cover : Cover.t) code =
  let space = at_code md code (Cube.full md.dom) in
  { cover with Cover.cubes = List.filter (Cube.intersects md.dom space) cover.Cover.cubes }

(* --- (d) the cover stays between the rows' 1s and their 0s ------------- *)

(* (A) every row's 1-cube is covered, and (B) every cover cube [k] meets
   a row's 0-cube [z] only inside the rows' 1- and '-'-cubes. The off-set
   is the rows' 0-cubes minus their 1- and '-'-cubes (the region no row
   matches is free), so (B) holds exactly when [k] meets no off-set
   point. Both ask a row only of the cover cubes at its source's code. *)
let check_containment md a () =
  let cover = a.cover and dom = md.dom in
  if not (Domain.equal cover.Cover.dom dom) then
    (false, "cover domain does not match the encoded machine's domain")
  else
    let near = Array.map (at_state md cover) a.codes in
    let near r = match r.tr.Fsm.src with Some s -> near.(s) | None -> cover in
    let covered r = r.ones = [] || Cover.covers_cube (near r) (with_parts md r.ones r.cube) in
    if not (List.for_all covered md.rows) then (false, "a specified on-set point is not covered")
    else
      (* [Cover.make] drops the empty cube of a row with no such parts. *)
      let spec =
        lazy
          (Cover.make dom
             (List.concat_map
                (fun r -> [ with_parts md r.ones r.cube; with_parts md r.dashes r.cube ])
                md.rows))
      in
      let asserts_off r =
        r.zeros <> []
        &&
        let z = with_parts md r.zeros r.cube in
        List.exists
          (fun k ->
            match Cube.inter dom k z with
            | Some kz -> not (Cover.covers_cube (Lazy.force spec) kz)
            | None -> false)
          (near r).Cover.cubes
      in
      if List.exists asserts_off md.rows then
        (false, "the cover asserts a point outside on-set + DC-set")
      else (true, "")

(* --- (e) trace equivalence --------------------------------------------- *)

(* Exact at any input width, on the row model. In state [s] a row's cube
   is its cube at code(s), and its region is that cube minus the cubes of
   the earlier rows that also match [s] — [Fsm.next]'s first-match rule.
   On its region a row's 1 columns must be covered and its 0 columns
   must meet no cover cube. [dst = None], '-' outputs, unused codes and
   the region no row matches are free: the don't-care policy of the
   minterm walker that is this check's test oracle. *)
let check_traces (m : Fsm.t) md a () =
  let cover = a.cover and dom = md.dom in
  if not (Domain.equal cover.Cover.dom dom) then
    (false, "cover domain does not match the machine's inputs, code bits and outputs")
  else begin
    let ni = md.ni and nb = md.nb in
    let ov = ni + nb in
    (* The rows that can match each state, in table order. *)
    let rows = Array.make (Array.length m.Fsm.states) [] in
    List.iter
      (fun r ->
        match r.tr.Fsm.src with
        | Some s -> rows.(s) <- r :: rows.(s)
        | None -> Array.iteri (fun s matching -> rows.(s) <- r :: matching) rows)
      (List.rev md.rows);
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
    (* Row [r] on region cube [region] in state [s], against the cover
       cubes [here] that meet code(s). *)
    let violation s here r region =
      let uncovered () =
        if r.ones = [] then None
        else
          let c = with_parts md r.ones region in
          if Cover.covers_cube here c then None
          else
            match (Cover.diff (Cover.make dom [ c ]) here).Cover.cubes with
            | w :: _ -> Some (mismatch s r.tr w)
            | [] -> None
      in
      let asserted () =
        if r.zeros = [] then None
        else
          let c = with_parts md r.zeros region in
          List.find_map
            (fun k -> Option.map (mismatch s r.tr) (Cube.inter dom k c))
            here.Cover.cubes
      in
      match uncovered () with Some _ as found -> found | None -> asserted ()
    in
    let check_state s =
      let code = a.codes.(s) in
      let here = at_state md cover code in
      let rec go earlier = function
        | [] -> None
        | r :: rest -> (
            let cube = at_code md code r.cube in
            let region =
              match List.filter (Cube.intersects dom cube) earlier with
              | [] -> [ cube ]
              | hits -> (Cover.diff (Cover.make dom [ cube ]) (Cover.make dom hits)).Cover.cubes
            in
            match List.find_map (violation s here r) region with
            | Some _ as found -> found
            | None -> go (cube :: earlier) rest)
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
      let md = model m a in
      structural
      @ [
          run_check Face_constraints (check_faces m e a);
          run_check Output_covering (check_covering m a);
          run_check Cover_containment (check_containment md a);
          run_check Trace_equivalence (check_traces m md a);
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
     table ([Encoded.dc]), never with the row model the certificate
     reads, so the injector never "asks the checker". *)
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
