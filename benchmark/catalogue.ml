(* Every metric the benchmark emits: name, unit, and whether it repeats
   exactly for one seed (counts, virtual ticks, allocation), in which
   case [compare] requires equality instead of applying a bound.
   BENCHMARK.json must list the same names and units; [check] verifies
   it. *)

let end_to_end =
  [ ("ops_per_s", "op/s", false); ("setup_s", "s", false); ("peak_heap_mb", "MB", false) ]

let rung_metrics name = [ (name ^ "_ns", "ns", false); (name ^ "_words", "words", true) ]

let per_layer =
  [
    ("load.queue_ticks_mean", "ticks", true);
    ("load.service_ticks_mean", "ticks", true);
    ("load.wake_ticks_mean", "ticks", true);
    ("load.join_ticks_mean", "ticks", true);
    ("load.vlat_p50_ticks", "ticks", true);
    ("load.vlat_p999_ticks", "ticks", true);
  ]
  @ rung_metrics "load.arrival"
  @ [
      ("sched.slices_per_op", "count/op", true);
      ("sched.spawns_per_op", "count/op", true);
      ("sched.parks_per_op", "count/op", true);
      ("sched.wakes_per_op", "count/op", true);
      ("sched.timer_parks_per_op", "count/op", true);
      ("sched.wake_useful_ratio", "ratio", true);
      ("trace.dispatch_ns_per_op", "ns/op", false);
      ("trace.slice_ns_per_op", "ns/op", false);
      ("trace.coverage_pct", "%", false);
    ]
  @ List.concat_map rung_metrics
      [ "sched.yield"; "sched.pcall2"; "sched.future_touch"; "sched.park_wake"; "sched.sleep" ]
  @ [
      ("channel.sends_per_op", "count/op", true);
      ("channel.recvs_per_op", "count/op", true);
      ("channel.recv_parks_per_op", "count/op", true);
    ]
  @ List.concat_map rung_metrics [ "channel.buffered"; "channel.handoff" ]
  @ [ ("resil.cancels_per_op", "count/op", true); ("resil.swept_per_cancel", "count", true) ]
  @ rung_metrics "resil.deadline_scope"
  @ [ ("obs.events_per_op", "count/op", true) ]
  @ List.concat_map rung_metrics [ "obs.emit"; "obs.span" ]
  @ [
      ("obs.trace_overhead_pct", "%", false);
      ("pstack.steps_per_op", "count/op", true);
      ("pstack.captures_per_op", "count/op", true);
      ("pstack.reinstates_per_op", "count/op", true);
      ("pstack.moved_ratio", "ratio", true);
      ("pstack.pool_hit_ratio", "ratio", true);
    ]
  @ List.concat_map rung_metrics
      [ "pstack.step"; "pstack.capture_oneshot"; "pstack.capture_multishot" ]
  @ [ ("concur.forks_per_op", "count/op", true); ("concur.slices_per_op", "count/op", true) ]
  @ rung_metrics "concur.fork_join"
  @ [
      ("syntax.prelude_ms", "ms", false);
      (* the segment pool carries state from rep to rep *)
      ("gc.minor_words_per_op", "words", false);
      ("gc.promoted_words_per_op", "words", false);
      ("gc.major_collections_per_rep", "count", false);
      ("model.explained_pct", "%", false);
    ]

let find name =
  List.find_opt (fun (n, _, _) -> n = name) (end_to_end @ per_layer)

let unit_of name = match find name with Some (_, u, _) -> u | None -> "?"

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json.                                                     *)
(* ------------------------------------------------------------------ *)

module Json = Pcont_obs.Obs.Json

type spec_metric = { name : string; unit_ : string; higher : bool; bound : float option }

type spec = { e2e : spec_metric list; layer : spec_metric list; workloads : string list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let j = match Json.parse (read_file path) with Ok j -> j | Error e -> fail e in
  let list key =
    match Json.member key j with Some (Json.Arr l) -> l | _ -> fail ("no list " ^ key)
  in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> fail ("missing " ^ k) in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      higher = (match Json.member "better" o with Some (Json.Str "higher") -> true | _ -> false);
      bound = (match Json.member "bound" o with Some (Json.Num b) -> Some b | _ -> None);
    }
  in
  {
    e2e = List.map metric (list "end_to_end");
    layer = List.map metric (list "per_layer");
    workloads = List.map (str "name") (list "workloads");
  }

(* Problems between the spec and this catalogue, one line each. *)
let spec_mismatches spec =
  let against kind cat listed =
    List.filter_map
      (fun (n, u, _) ->
        match List.find_opt (fun m -> m.name = n) listed with
        | None -> Some (Printf.sprintf "%s metric %s is not in BENCHMARK.json" kind n)
        | Some m when m.unit_ <> u ->
            Some (Printf.sprintf "%s: unit %s in BENCHMARK.json, %s emitted" n m.unit_ u)
        | Some _ -> None)
      cat
    @ List.filter_map
        (fun m ->
          if List.exists (fun (n, _, _) -> n = m.name) cat then None
          else Some (Printf.sprintf "BENCHMARK.json %s metric %s is never emitted" kind m.name))
        listed
  in
  against "end_to_end" end_to_end spec.e2e
  @ against "per_layer" per_layer spec.layer
  @
  if spec.workloads = Workloads.names then []
  else [ "BENCHMARK.json workloads differ from the benchmark's" ]
