open Logic

(* Timed under ESPRESSO's name for the off-set build it replaces. *)
let s_offset = Metrics.section "espresso.off_set"

type row = { base : Cube.t; ones : int list; dashes : int list; zeros : int list }

(* The output variable is the last one of the domain. *)
let output_field dom =
  let v = Domain.num_vars dom - 1 in
  (Domain.offset dom v, Domain.size dom v)

let base dom input =
  let c = Bitvec.full (Domain.width dom) in
  String.iteri
    (fun v ch ->
      match ch with
      | '0' -> Bitvec.clear c (Domain.offset dom v + 1)
      | '1' -> Bitvec.clear c (Domain.offset dom v + 0)
      | '-' -> ()
      | _ -> assert false)
    input;
  let off, sz = output_field dom in
  Bitvec.clear_range c off sz;
  c

let row base plane =
  let parts keep = List.filter (fun p -> keep plane.[p]) (List.init (String.length plane) Fun.id) in
  let zero ch = ch <> '1' && ch <> '-' in
  { base; ones = parts (( = ) '1'); dashes = parts (( = ) '-'); zeros = parts zero }

(* The cubes of the rows whose [field] is non-empty: the row's base with
   those output parts asserted. *)
let cubes dom rows field =
  let off, _ = output_field dom in
  Cover.make dom
    (List.filter_map
       (fun r ->
         match field r with
         | [] -> None
         | parts ->
             let c = Bitvec.copy r.base in
             List.iter (fun p -> Bitvec.set c (off + p)) parts;
             Some c)
       rows)

let zeros dom rows keep = cubes dom rows (fun r -> List.filter keep r.zeros)

type sets = { on : Cover.t; off : Cover.t; care : Cover.t }

(* The region no row matches is don't-care, and a row's base times all
   output parts is the union of its 1, '-' and 0 cubes. So [¬(on ∪ dc)]
   lies inside the rows' 0 cubes: it is those cubes minus what any row
   asserts or leaves free. *)
let sets dom rows =
  let on = cubes dom rows (fun r -> r.ones) and dc_rows = cubes dom rows (fun r -> r.dashes) in
  let zeros = cubes dom rows (fun r -> r.zeros) in
  let off = Metrics.span s_offset (fun () -> Cover.diff zeros (Cover.union on dc_rows)) in
  { on; off; care = Cover.diff on dc_rows }

let dc dom rows =
  let off, sz = output_field dom in
  let projections =
    List.map
      (fun r ->
        let c = Bitvec.copy r.base in
        Bitvec.set_range c off sz;
        c)
      rows
  in
  Cover.union (cubes dom rows (fun r -> r.dashes)) (Cover.complement (Cover.make dom projections))
