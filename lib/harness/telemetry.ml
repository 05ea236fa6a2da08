let num n = Json_min.Num (float_of_int n)

(* Microsecond resolution, like the artifacts' other wall figures. *)
let timing h =
  [
    ("seconds", Json_min.Num (Float.round (Metrics.Histogram.sum h *. 1e6) /. 1e6));
    ("calls", num (Metrics.Histogram.count h));
  ]

let kernel_event name =
  List.exists (fun prefix -> String.starts_with ~prefix name) [ "logic."; "espresso."; "embed." ]

let kernel_section name =
  kernel_event name
  || String.starts_with ~prefix:"driver." name
  || List.mem name [ "pipeline.constraints"; "pipeline.symbolic-min" ]

let instrument_block () =
  Json_min.Obj
    [
      ( "counters",
        Json_min.Obj
          (List.filter_map
             (fun (name, n) -> if kernel_event name then Some (name, num n) else None)
             (Metrics.events ())) );
      ( "timers",
        Json_min.Obj
          (List.filter_map
             (fun (name, h) ->
               if kernel_section name then Some (name, Json_min.Obj (timing h)) else None)
             (Metrics.spans ())) );
    ]

let pipeline_stages () =
  Json_min.Arr
    (List.filter_map
       (fun (name, h) ->
         if String.starts_with ~prefix:"pipeline." name || name = "espresso.minimize" then
           Some (Json_min.Obj (("name", Json_min.Str name) :: timing h))
         else None)
       (Metrics.spans ()))
