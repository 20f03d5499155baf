(* The repo benchmark.  See README.md for the workloads, the metrics and
   how to read and compare results.

     run.exe --workload W --seed N [--seconds S] [--trace 0|1]
             [--json FILE] [--spans DIR]
         measure one workload: set-up, one warm-up rep, timed reps for
         S seconds; with --trace 1 also the traced rep and the ladder.
         The last stdout line is the result object.
     run.exe --seed N [...]        every workload, each in its own child
     run.exe check [--spec FILE]   the tier-1 guard
     run.exe compare A B [--spec FILE]

   Exit codes: 0 ok, 1 a wrong output or a worse comparison, 2 bad
   arguments (before anything runs). *)

module Obs = Pcont_obs.Obs
module W = Workloads

exception Usage of string

let usage =
  "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] \
   [--spans DIR]\n\
  \       run.exe check [--spec FILE]\n\
  \       run.exe compare A.jsonl B.jsonl [--spec FILE]"

let median = Ladder.median

(* Throughput comes from the fastest timed rep.  On a shared host, slow
   spells of several seconds stretch every rep they overlap, often most
   of a run's; the fastest rep is the one that tracks the code. *)
let fastest = List.fold_left Float.min infinity

(* ------------------------------------------------------------------ *)
(* Measuring one workload.                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; samples : int }

let setups = 21
let min_reps = 3

type timed = {
  rep_s : float list;
  minor : float list;  (** minor words per rep *)
  promoted : float list;
  majors : float list;
  attempted : int;
  failed : int;
}

(* Checks [o] against the warm-up rep's outcome. *)
let problems (w : W.t) (first : W.outcome) (o : W.outcome) =
  o.errors
  @
  if o.fingerprint = first.fingerprint then []
  else [ w.name ^ ": result differs from the first rep (not deterministic)" ]

let timed_reps (w : W.t) (inst : W.instance) first ~seconds ~errors =
  let stop = Traced.now () + (seconds * 1_000_000_000) in
  let rec loop i acc =
    if i >= min_reps && Traced.now () >= stop then acc
    else
      let q0 = Gc.quick_stat () in
      let check, dt = Traced.timed "rep" (Printf.sprintf "timed-%d" i) w.ops inst.rep in
      let q1 = Gc.quick_stat () in
      let o = check () in
      errors := !errors @ problems w first o;
      loop (i + 1)
        {
          rep_s = (float_of_int dt /. 1e9) :: acc.rep_s;
          minor = (q1.minor_words -. q0.minor_words) :: acc.minor;
          promoted = (q1.promoted_words -. q0.promoted_words) :: acc.promoted;
          majors = float_of_int (q1.major_collections - q0.major_collections) :: acc.majors;
          attempted = acc.attempted + w.ops;
          failed = acc.failed + o.failed;
        }
  in
  loop 0 { rep_s = []; minor = []; promoted = []; majors = []; attempted = 0; failed = 0 }

(* The per-layer metrics of one workload, from its traced rep [tr]
   (with the rep's own [totals]), its untraced reps and the ladder. *)
let layer_metrics (w : W.t) (t : timed) tr totals ~traced_ns ladder =
  let ops = float_of_int w.ops in
  let per x = float_of_int x /. ops in
  let tot k = Option.value (List.assoc_opt k totals) ~default:0. in
  let server = w.kind = W.Server and concur = w.kind = W.Concur in
  let on b x = if b then x else 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let timer = Traced.parks tr "timer" in
  let parks = Traced.all_parks tr - timer in
  let slices = Traced.slices tr in
  (* native slices carry fuel 1; only pstack fuel is machine steps *)
  let steps = on (not server) (float_of_int tr.Traced.fuel) in
  let captures = tot "controller" and reinstates = tot "pk-invoke" in
  let moved = tot "machine.capture.moved" in
  let rep_ns = fastest t.rep_s *. 1e9 in
  let reps = List.length t.rep_s and traced_ops = w.ops in
  let units = Ladder.unit_costs ladder in
  let counts = function
    | Ladder.Slice -> on server (per slices)
    | Spawn -> on server (per tr.spawned)
    | Park -> on server (per parks)
    | Timer_park -> on server (per timer)
    | Send -> per (Traced.kind tr "send")
    | Cancel -> per (Traced.kind tr "cancel")
    | Event -> on server (per tr.events) (* [Load.run] always has a handle *)
    | Step -> steps /. ops
    | Oneshot -> moved /. ops
    | Multishot -> (Float.max captures reinstates -. moved) /. ops
    | Fork -> tot "concur.fork" /. ops
  in
  let m ?(samples = traced_ops) name value = { name; value; samples } in
  let rung (r : Ladder.result) =
    let reported = Ladder.reported units r in
    if r.rung = "syntax.prelude" then [ m ~samples:3 "syntax.prelude_ms" (reported /. 1e6) ]
    else
      [ m ~samples:3 (r.rung ^ "_ns") reported; m ~samples:1 (r.rung ^ "_words") r.words ]
  in
  [
    m "load.queue_ticks_mean" (tot "queue_mean");
    m "load.service_ticks_mean" (tot "service_mean");
    m "load.wake_ticks_mean" (tot "wake_mean");
    m "load.join_ticks_mean" (tot "join_mean");
    m ~samples:(int_of_float (tot "vlat_count")) "load.vlat_p50_ticks" (tot "vlat_p50");
    m ~samples:(int_of_float (tot "vlat_count")) "load.vlat_p999_ticks" (tot "vlat_p999");
    m "sched.slices_per_op" (on server (per slices));
    m "sched.spawns_per_op" (on server (per tr.spawned));
    m "sched.parks_per_op" (on server (per parks));
    m "sched.wakes_per_op" (on server (per (Traced.all_wakes tr)));
    m "sched.timer_parks_per_op" (on server (per timer));
    m ~samples:tr.woken_slices "sched.wake_useful_ratio"
      (ratio (float_of_int (tr.woken_slices - tr.wasted)) (float_of_int tr.woken_slices));
    m "trace.dispatch_ns_per_op" (float_of_int tr.dispatch_ns /. ops);
    m "trace.slice_ns_per_op" (float_of_int tr.slice_ns /. ops);
    m "trace.coverage_pct"
      (100. *. float_of_int (tr.dispatch_ns + tr.slice_ns) /. float_of_int traced_ns);
    m "channel.sends_per_op" (per (Traced.kind tr "send"));
    m "channel.recvs_per_op" (per (Traced.kind tr "recv"));
    m "channel.recv_parks_per_op" (per (Traced.parks tr "channel.recv"));
    m "resil.cancels_per_op" (per (Traced.kind tr "cancel"));
    m ~samples:(Traced.kind tr "cancel") "resil.swept_per_cancel"
      (ratio (float_of_int tr.swept) (float_of_int (Traced.kind tr "cancel")));
    m "obs.events_per_op" (per tr.events);
    m ~samples:reps "obs.trace_overhead_pct" (100. *. ((float_of_int traced_ns /. rep_ns) -. 1.));
    m "pstack.steps_per_op" (steps /. ops);
    m "pstack.captures_per_op" (captures /. ops);
    m "pstack.reinstates_per_op" (reinstates /. ops);
    m "pstack.moved_ratio" (ratio moved captures);
    m "pstack.pool_hit_ratio"
      (ratio (tot "machine.pool.hit") (tot "machine.pool.hit" +. tot "machine.pool.miss"));
    m "concur.forks_per_op" (tot "concur.fork" /. ops);
    m "concur.slices_per_op" (on concur (per slices));
    m ~samples:reps "gc.minor_words_per_op" (median t.minor /. ops);
    m ~samples:reps "gc.promoted_words_per_op" (median t.promoted /. ops);
    m ~samples:reps "gc.major_collections_per_rep" (median t.majors);
    m ~samples:reps "model.explained_pct" (100. *. Ladder.explained units counts /. (rep_ns /. ops));
  ]
  @ List.concat_map rung ladder

type result = {
  workload : string;
  rep_s : float list;
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;
  errors : string list;
}

let measure (w : W.t) ~seconds ~trace ~spans =
  (* the reps use the last construction; the others are garbage at once *)
  let inst = ref None in
  let setup_times =
    List.init setups (fun i ->
        let it, dt = Traced.timed "setup" (Printf.sprintf "setup-%d" i) 1 w.prepare in
        inst := Some it;
        float_of_int dt /. 1e9)
  in
  let inst = Option.get !inst and setup_s = median setup_times in
  let check, _ = Traced.timed "rep" "warm-up" w.ops inst.rep in
  let first = check () in
  let errors = ref first.errors in
  let t = timed_reps w inst first ~seconds ~errors in
  let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  let e2e =
    [
      { name = "ops_per_s"; value = float_of_int w.ops /. fastest t.rep_s; samples = List.length t.rep_s };
      { name = "setup_s"; value = setup_s; samples = setups };
      { name = "peak_heap_mb"; value = float_of_int heap /. 1e6; samples = 1 };
    ]
  in
  let layer =
    if not trace then []
    else begin
      let tr = Traced.create () in
      let (o, totals), traced_ns = Traced.timed "rep" "traced" w.ops (fun () -> inst.traced_rep tr) in
      errors := !errors @ problems w first o;
      let ladder = Ladder.run () in
      Option.iter
        (fun dir ->
          Traced.dump (Filename.concat dir (w.name ^ ".spans.jsonl")) ~workload:w.name tr)
        spans;
      layer_metrics w t tr totals ~traced_ns ladder
    end
  in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then errors := !errors @ [ m.name ^ " is not finite" ])
    (e2e @ layer);
  {
    workload = w.name;
    rep_s = t.rep_s;
    correct = !errors = [];
    attempted = t.attempted;
    failed = t.failed;
    e2e;
    layer;
    errors = !errors;
  }

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)
(* ------------------------------------------------------------------ *)

let print_table r =
  Printf.printf "# %s: %d ops attempted, %d failed, %s\n" r.workload r.attempted r.failed
    (if r.correct then "outputs correct" else "OUTPUTS WRONG");
  Printf.printf "# %d timed reps: fastest %.1f ms, median %.1f ms\n" (List.length r.rep_s)
    (fastest r.rep_s *. 1e3) (median r.rep_s *. 1e3);
  List.iter (fun e -> Printf.printf "#   %s\n" e) r.errors;
  Printf.printf "%-32s %16s %-9s %8s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-32s %16.6g %-9s %8d\n" m.name m.value (Catalogue.unit_of m.name) m.samples)
    (r.e2e @ r.layer)

(* JSON has no NaN or infinity; [measure] already marked the run wrong. *)
let finite v = if Float.is_finite v then v else 0.

(* The result object, the last line of stdout: the end-to-end metrics
   under --trace 0, the per-layer ones under --trace 1. *)
let result_json r ~trace =
  let metric m =
    ( m.name,
      Obs.Json.Obj
        [ ("value", Obs.Json.Num (finite m.value)); ("unit", Obs.Json.Str (Catalogue.unit_of m.name)) ]
    )
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool r.correct);
         ("attempted", Obs.Json.Num (float_of_int r.attempted));
         ("failed", Obs.Json.Num (float_of_int r.failed));
         ("metrics", Obs.Json.Obj (List.map metric (if trace then r.layer else r.e2e)));
       ])

let append_rows path ~seed r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun m ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("workload", Obs.Json.Str r.workload);
                ("seed", Obs.Json.Num (float_of_int seed));
                ("metric", Obs.Json.Str m.name);
                ("unit", Obs.Json.Str (Catalogue.unit_of m.name));
                ("value", Obs.Json.Num (finite m.value));
                ("samples", Obs.Json.Num (float_of_int m.samples));
              ]));
      output_char oc '\n')
    (r.e2e @ r.layer);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Arguments.                                                          *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  json : string option;
  spans : string option;
}

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> raise (Usage (flag ^ " expects an integer"))

let rec parse o = function
  | [] -> o
  | "--workload" :: v :: rest ->
      if not (List.mem v W.names) then
        raise
          (Usage
             (Printf.sprintf "unknown workload %S (known: %s)" v (String.concat ", " W.names)));
      parse { o with workload = Some v } rest
  | "--seed" :: v :: rest -> parse { o with seed = int_arg "--seed" v } rest
  | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then raise (Usage "--seconds must be at least 1");
      parse { o with seconds = s } rest
  | "--trace" :: v :: rest -> (
      match v with
      | "0" -> parse { o with trace = false } rest
      | "1" -> parse { o with trace = true } rest
      | _ -> raise (Usage "--trace expects 0 or 1"))
  | "--json" :: v :: rest ->
      (* opened now so an unwritable path fails before any run *)
      (try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 v)
       with Sys_error e -> raise (Usage ("--json: " ^ e)));
      parse { o with json = Some v } rest
  | "--spans" :: v :: rest ->
      if not (Sys.file_exists v && Sys.is_directory v) then
        raise (Usage ("--spans: " ^ v ^ " is not a directory"));
      (try Unix.access v [ Unix.W_OK ]
       with Unix.Unix_error _ -> raise (Usage ("--spans: " ^ v ^ " is not writable")));
      parse { o with spans = Some v } rest
  | a :: _ -> raise (Usage ("unexpected argument " ^ a))

let spec_path args =
  match args with
  | [ "--spec"; f ] -> f
  | [] -> "BENCHMARK.json"
  | a :: _ -> raise (Usage ("unexpected argument " ^ a))

(* ------------------------------------------------------------------ *)
(* Commands.                                                           *)
(* ------------------------------------------------------------------ *)

let measure_one o name =
  let w = Option.get (W.make name ~seed:o.seed) in
  let r = measure w ~seconds:o.seconds ~trace:o.trace ~spans:o.spans in
  Option.iter (fun f -> append_rows f ~seed:o.seed r) o.json;
  print_table r;
  print_endline (result_json r ~trace:o.trace);
  if r.correct then 0 else 1

(* Every workload, one child process each, one at a time. *)
let measure_all o =
  let exe = Sys.executable_name in
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  let statuses =
    List.map
      (fun name ->
        let args =
          [ exe; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
            string_of_int o.seconds; "--trace"; "1" ]
          @ opt "--json" o.json @ opt "--spans" o.spans
        in
        let ic = Unix.open_process_args_in exe (Array.of_list args) in
        (try
           while true do
             print_endline (input_line ic)
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        (name, ok))
      W.names
  in
  List.iter (fun (n, ok) -> Printf.printf "%-14s %s\n" n (if ok then "ok" else "FAILED")) statuses;
  if List.for_all snd statuses then 0 else 1

(* The tier-1 guard: one untimed and one traced rep per workload, a
   small ladder, every output check, and every BENCHMARK.json metric
   emitted under its unit. *)
let check spec_file =
  let spec = Catalogue.load_spec spec_file in
  let found = ref (Catalogue.spec_mismatches spec) in
  let ladder = Ladder.run ~scale:50 ~reps:1 () in
  List.iter
    (fun name ->
      let w = Option.get (W.make name ~seed:1) in
      let inst = w.prepare () in
      let (check, dt) = Traced.timed "rep" "untimed" w.ops inst.rep in
      let first = check () in
      let tr = Traced.create () in
      let (o, totals), traced_ns = Traced.timed "rep" "traced" w.ops (fun () -> inst.traced_rep tr) in
      let t =
        { rep_s = [ float_of_int dt /. 1e9 ]; minor = [ 0. ]; promoted = [ 0. ]; majors = [ 0. ];
          attempted = w.ops; failed = first.failed }
      in
      let emitted = List.map (fun m -> m.name) (layer_metrics w t tr totals ~traced_ns ladder) in
      let missing =
        List.filter_map
          (fun (m : Catalogue.spec_metric) ->
            if List.mem m.name emitted then None
            else Some (Printf.sprintf "%s: %s not emitted" name m.name))
          spec.layer
      in
      let failed = if first.failed > 0 then [ Printf.sprintf "%s: %d ops failed" name first.failed ] else [] in
      found := !found @ first.errors @ problems w first o @ missing @ failed;
      Printf.printf "%-14s %s\n%!" name
        (if first.errors = [] && o.errors = [] then "ok" else "WRONG");
      Gc.compact ())
    W.names;
  List.iter (Printf.printf "problem: %s\n") !found;
  if !found = [] then 0 else 1

let main argv =
  match argv with
  | "check" :: rest -> check (spec_path rest)
  | "compare" :: a :: b :: rest ->
      let spec = Catalogue.load_spec (spec_path rest) in
      if Compare.run spec a b then 0 else 1
  | "compare" :: _ -> raise (Usage "compare expects two row files")
  | args -> (
      let o =
        parse { workload = None; seed = 1; seconds = 15; trace = false; json = None; spans = None } args
      in
      match o.workload with Some name -> measure_one o name | None -> measure_all o)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let code =
    try main argv with
    | Usage msg ->
        prerr_endline ("run.exe: " ^ msg);
        prerr_endline usage;
        2
    | Failure msg | Sys_error msg ->
        prerr_endline ("run.exe: " ^ msg);
        1
  in
  exit code
