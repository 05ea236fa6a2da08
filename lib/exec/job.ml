type task = {
  machine : Fsm.t;
  algorithm : Harness.Driver.algorithm;
  bits : int option;
  max_work : int option;
  fallback : bool;
}

let task ?bits ?max_work ?(fallback = true) machine algorithm =
  { machine; algorithm; bits; max_work; fallback }

type success = {
  encoding : Encoding.t;
  produced_by : Harness.Driver.rung;
  degraded : Harness.Driver.rung list;
  claims : Check.claims;
  cover : Logic.Cover.t;
  num_cubes : int;
  area : int;
}

type origin = Computed | Cached | Cancelled_by_race

type row = {
  task : task;
  result : (success, Nova_error.t) result;
  origin : origin;
  wall_s : float;
}

(* Bump on any behavioral change to the encoders, the minimizer or the
   cache entry layout: every existing entry then misses (stale results
   can never resurface under a new code version). *)
let code_version = "nova-exec/2"

let fingerprint t =
  Printf.sprintf "bits=%s;max_work=%s;fallback=%b"
    (match t.bits with Some b -> string_of_int b | None -> "-")
    (match t.max_work with Some w -> string_of_int w | None -> "-")
    t.fallback

(* The machine participates as its canonical KISS2 text, so two roads to
   the same machine (file vs built-in suite entry) share cache entries,
   and any semantic change to the machine changes the address. *)
let key t =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ code_version; Harness.Driver.name t.algorithm; fingerprint t;
            Kiss.to_string t.machine ]))

let machine_digest m = Digest.string (Kiss.to_string m)

let run ?budget ?ctx t =
  let budget =
    match budget with Some b -> b | None -> Budget.create ?max_work:t.max_work ()
  in
  match
    Harness.Driver.report ?ctx ?bits:t.bits ~budget ~fallback:t.fallback t.machine t.algorithm
  with
  | Error e -> Error e
  | Ok (o, r) ->
      Ok
        {
          encoding = o.Harness.Driver.encoding;
          produced_by = o.Harness.Driver.produced_by;
          degraded = List.map fst o.Harness.Driver.degradations;
          claims = o.Harness.Driver.claims;
          cover = r.Encoded.cover;
          num_cubes = r.Encoded.num_cubes;
          area = r.Encoded.area;
        }

let success_equal (a : success) (b : success) =
  a.encoding.Encoding.nbits = b.encoding.Encoding.nbits
  && a.encoding.Encoding.codes = b.encoding.Encoding.codes
  && a.produced_by = b.produced_by && a.degraded = b.degraded
  && a.num_cubes = b.num_cubes && a.area = b.area
  && List.equal Bitvec.equal a.cover.Logic.Cover.cubes b.cover.Logic.Cover.cubes
  && List.equal Bitvec.equal a.claims.Check.claimed_ics b.claims.Check.claimed_ics
  && a.claims.Check.claimed_ocs = b.claims.Check.claimed_ocs

let artifacts_of s =
  {
    Check.nbits = s.encoding.Encoding.nbits;
    codes = Array.copy s.encoding.Encoding.codes;
    cover = s.cover;
    claims = s.claims;
  }
