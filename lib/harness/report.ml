let print_table ppf ~title ~header rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Report.print_table: ragged row")
    rows;
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    rows;
  let pad i s = Printf.sprintf "%*s" widths.(i) s in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule =
    String.concat "--" (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  Format.fprintf ppf "@.== %s ==@." title;
  Format.fprintf ppf "%s@.%s@." (line header) rule;
  List.iter (fun row -> Format.fprintf ppf "%s@." (line row)) rows;
  Format.fprintf ppf "@."

let opt_int = function Some n -> string_of_int n | None -> "-"

let spark values =
  let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                  "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]
  in
  let present = List.filter_map (fun v -> v) values in
  match present with
  | [] -> ""
  | _ ->
      let lo = List.fold_left min infinity present in
      let hi = List.fold_left max neg_infinity present in
      let scale v =
        if hi -. lo < 1e-9 then 0
        else
          let i = int_of_float ((v -. lo) /. (hi -. lo) *. 7.99) in
          max 0 (min 7 i)
      in
      String.concat ""
        (List.map (function None -> " " | Some v -> glyphs.(scale v)) values)
