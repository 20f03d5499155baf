(* [run.exe compare A B]: each file holds the rows of one or more
   invocations (see [--json]).  Rows pair by (workload, metric).  An
   end-to-end metric is better, same or worse by its BENCHMARK.json
   bound, and unresolved when either side's quartile spread exceeds the
   bound.  A deterministic metric must read the same in every row when
   both sides ran one and the same seed. *)

module Json = Pcont_obs.Obs.Json

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads match the ones the
   benchmark's bounds were chosen from. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let spread xs =
  let m = Ladder.median xs in
  let q1, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

type row = { workload : string; seed : int; metric : string; value : float }

let read_rows path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let fail () = failwith (Printf.sprintf "%s: bad row %s" path line) in
         match Json.parse line with
         | Ok j -> (
             match
               (Json.member "workload" j, Json.member "seed" j, Json.member "metric" j,
                Json.member "value" j)
             with
             | Some (Json.Str w), Some (Json.Num s), Some (Json.Str m), Some (Json.Num v) ->
                 { workload = w; seed = int_of_float s; metric = m; value = v }
             | _ -> fail ())
         | Error _ -> fail ())

let values rows w m =
  List.filter_map (fun r -> if r.workload = w && r.metric = m then Some r.value else None) rows

let verdict (m : Catalogue.spec_metric) a b =
  let bound = Option.value m.bound ~default:0. in
  match (a, b) with
  | [], _ | _, [] -> "missing"
  | _ ->
      if spread a > bound || spread b > bound then "unresolved"
      else
        let ma = Ladder.median a and mb = Ladder.median b in
        let change = (mb -. ma) /. Float.abs ma in
        let worse = if m.higher then -.change else change in
        if worse > bound then "worse" else if worse < -.bound then "better" else "same"

(* Prints one row per workload; returns true when nothing is worse,
   unresolved, missing or (for deterministic metrics) different. *)
let run (spec : Catalogue.spec) path_a path_b =
  let a = read_rows path_a and b = read_rows path_b in
  let seeds rows = List.sort_uniq compare (List.map (fun r -> r.seed) rows) in
  let same_seed = match (seeds a, seeds b) with [ s ], [ s' ] -> s = s' | _ -> false in
  if not same_seed then
    print_endline "note: the sets ran different or several seeds; deterministic metrics not compared";
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let workloads = List.filter (fun w -> List.mem w workloads) Workloads.names in
  let ok = ref true in
  Printf.printf "%-14s %s\n" "workload"
    (String.concat " " (List.map (fun (m : Catalogue.spec_metric) -> Printf.sprintf "%-12s" m.name) spec.e2e));
  List.iter
    (fun w ->
      let verdicts =
        List.map (fun (m : Catalogue.spec_metric) -> verdict m (values a w m.name) (values b w m.name)) spec.e2e
      in
      let differs =
        if not same_seed then []
        else
          List.filter_map
            (fun (name, _, det) ->
              let vs = values a w name @ values b w name in
              if det && vs <> [] && List.exists (fun v -> v <> List.hd vs) vs then Some name else None)
            Catalogue.per_layer
      in
      if List.exists (fun v -> v <> "same" && v <> "better") verdicts || differs <> [] then ok := false;
      Printf.printf "%-14s %s%s\n" w
        (String.concat " " (List.map (Printf.sprintf "%-12s") verdicts))
        (if differs = [] then "" else "  differs: " ^ String.concat "," differs))
    workloads;
  !ok
