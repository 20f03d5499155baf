(* Tests for the open-loop load generator: arrival schedules are pure
   and independent of handler execution, traces are byte-identical per
   seed and pass every invariant rule, latency attribution telescopes
   exactly to end-to-end, deadlines mark requests timed-out all the way
   to the summary fate column, a mid-load deadlock auto-dumps a flight
   window the checker accepts, and the scheduler's live-node census
   agrees with the trace whether or not a handle is attached. *)

module Obs = Pcont_obs.Obs
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Sched = Pcont_sched.Sched
module Resil = Pcont_resil.Resil
module Load = Pcont_load.Load

(* A deliberately small profile: every property under test is
   size-independent, and the suite should stay fast. *)
let tiny =
  {
    Load.quick with
    Load.requests = 400;
    workers = 8;
    burst_on = 32;
    burst_off = 64.0;
  }

let jsonl_run ?(profile = tiny) ?(seed = 42L) scen =
  let o = Obs.create () in
  let buf = Buffer.create (1 lsl 16) in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let st = Load.run ~obs:o profile ~seed scen in
  Obs.close o;
  (st, Buffer.contents buf)

let parse_ok what s =
  match Trace.parse_string s with
  | Ok evs -> evs
  | Error m -> Alcotest.failf "%s does not parse: %s" what m

let check_clean what s =
  let evs = parse_ok what s in
  (match Analysis.Check.run evs with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s violates %s: %s" what v.Analysis.Check.v_rule
        v.Analysis.Check.v_msg);
  evs

(* ---------------- arrival schedule ---------------- *)

let test_arrivals_pure () =
  let a = Load.arrivals tiny ~seed:5L in
  let b = Load.arrivals tiny ~seed:5L in
  Alcotest.(check (array int)) "same seed, same schedule" a b;
  Alcotest.(check int) "one arrival per request" tiny.Load.requests
    (Array.length a);
  Array.iteri
    (fun i t ->
      if i > 0 && t < a.(i - 1) then
        Alcotest.failf "arrivals not sorted at %d: %d < %d" i t a.(i - 1))
    a;
  let c = Load.arrivals tiny ~seed:6L in
  if a = c then Alcotest.fail "different seeds gave the same schedule"

(* The open-loop property: the arrival schedule is fixed before the run
   and cannot depend on which scenario executes or how its handlers
   interleave.  Running wildly different scenarios between [arrivals]
   calls must not perturb the schedule. *)
let test_arrivals_independent_of_execution () =
  let before = Load.arrivals tiny ~seed:9L in
  List.iter
    (fun scen -> ignore (Load.run tiny ~seed:9L scen))
    Load.scenarios;
  let after = Load.arrivals tiny ~seed:9L in
  Alcotest.(check (array int)) "schedule unchanged by execution" before after

(* ---------------- determinism ---------------- *)

let test_traces_byte_identical () =
  List.iter
    (fun scen ->
      let _, t1 = jsonl_run scen in
      let _, t2 = jsonl_run scen in
      Alcotest.(check string)
        (Load.scenario_name scen ^ " trace byte-identical")
        t1 t2;
      ignore (check_clean (Load.scenario_name scen ^ " trace") t1))
    Load.scenarios

let test_stats_deterministic () =
  let st1, _ = jsonl_run Load.Pipeline in
  let st2, _ = jsonl_run Load.Pipeline in
  Alcotest.(check string) "stats JSON identical"
    (Obs.Json.to_string (Load.stats_to_json st1))
    (Obs.Json.to_string (Load.stats_to_json st2))

(* ---------------- latency attribution ---------------- *)

let test_attribution_sums () =
  List.iter
    (fun scen ->
      let st = Load.run tiny ~seed:3L scen in
      let name = Load.scenario_name scen in
      Alcotest.(check int) (name ^ " residual is zero") 0
        st.Load.st_attr_residual;
      Alcotest.(check int)
        (name ^ " fates partition requests")
        st.Load.st_requests
        (st.Load.st_completed + st.Load.st_timedout + st.Load.st_cancelled
       + st.Load.st_crashed);
      Alcotest.(check int)
        (name ^ " one latency sample per completion")
        st.Load.st_completed
        (Obs.Metrics.Sketch.count st.Load.st_latency))
    Load.scenarios

(* ---------------- deadlines and the summary fate column ------------ *)

let test_timeouts_reach_summary () =
  let squeezed = { tiny with Load.deadline = 400 } in
  let st, trace = jsonl_run ~profile:squeezed Load.Pipeline in
  if st.Load.st_timedout = 0 then
    Alcotest.fail "a 400-tick deadline should time some requests out";
  Alcotest.(check int) "timed-out latencies are sampled" st.Load.st_timedout
    (Obs.Metrics.Sketch.count st.Load.st_tlat);
  let timed_out =
    Array.fold_left
      (fun acc run ->
        Array.fold_left
          (fun acc n -> if n.Trace.n_fate = "timed-out" then acc + 1 else acc)
          acc run.Trace.r_nodes)
      0
      (Trace.reconstruct (parse_ok "pipeline trace" trace))
  in
  if timed_out < st.Load.st_timedout then
    Alcotest.failf "summary shows %d timed-out fibers for %d timeouts" timed_out
      st.Load.st_timedout

let test_slo_rollup_matches_stats () =
  let squeezed = { tiny with Load.deadline = 400 } in
  let o = Obs.create () in
  let buf = Buffer.create (1 lsl 16) in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let st = Load.run ~obs:o squeezed ~seed:42L Load.Stream in
  Obs.close o;
  let evs = check_clean "stream trace under deadline" (Buffer.contents buf) in
  let slo = Analysis.Slo.of_trace evs in
  match slo.Analysis.Slo.slo_scens with
  | [ sc ] ->
      Alcotest.(check string) "scenario name" "stream" sc.Analysis.Slo.sc_name;
      Alcotest.(check int) "requests" st.Load.st_requests
        sc.Analysis.Slo.sc_requests;
      Alcotest.(check int) "completed" st.Load.st_completed
        sc.Analysis.Slo.sc_completed;
      Alcotest.(check int) "timed out" st.Load.st_timedout
        sc.Analysis.Slo.sc_timedout
  | scens ->
      Alcotest.failf "expected one scenario in the rollup, got %d"
        (List.length scens)

let test_assert_grammar () =
  (match Analysis.Slo.parse_assert "p99<=250" with
  | Ok a ->
      Alcotest.(check (option string)) "no scenario" None a.Analysis.Slo.a_scen;
      Alcotest.(check (float 0.)) "quantile" 0.99 a.Analysis.Slo.a_q;
      Alcotest.(check (float 0.)) "limit" 250. a.Analysis.Slo.a_limit
  | Error m -> Alcotest.failf "p99<=250 rejected: %s" m);
  (match Analysis.Slo.parse_assert "pool:p999<=4000" with
  | Ok a ->
      Alcotest.(check (option string))
        "scenario prefix" (Some "pool") a.Analysis.Slo.a_scen
  | Error m -> Alcotest.failf "pool:p999<=4000 rejected: %s" m);
  List.iter
    (fun bad ->
      match Analysis.Slo.parse_assert bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "p98<=10"; "p99<10"; "p99<="; "p99<=x"; ":p99<=10" ]

(* One check serves pload (in-process sketches) and ptrace slo (trace
   spans): every failing scenario gets a line, and an assertion that
   names no scenario is itself a failure. *)
let test_assert_check () =
  let sketch vs =
    let sk = Obs.Metrics.Sketch.create () in
    List.iter (Obs.Metrics.Sketch.observe sk) vs;
    sk
  in
  let latencies =
    [ ("pipeline", sketch [ 10; 20 ]); ("pool", sketch [ 500 ]); ("ring", sketch [ 900 ]) ]
  in
  let check a =
    match Analysis.Slo.parse_assert a with
    | Ok a -> Analysis.Slo.check latencies a
    | Error m -> Alcotest.failf "%s rejected: %s" a m
  in
  Alcotest.(check (list string)) "holds" [] (check "p99<=1000");
  Alcotest.(check (list string))
    "a line per failing scenario"
    [ "assert failed: pool p99 = 498 > 100"; "assert failed: ring p99 = 900 > 100" ]
    (check "p99<=100");
  Alcotest.(check (list string)) "scenario prefix" [] (check "pipeline:p99<=100");
  Alcotest.(check (list string))
    "names no scenario" [ "assert: no scenario \"stream\" in trace" ]
    (check "stream:p50<=1")

(* ---------------- deadlock flight dump ---------------- *)

(* No workers and no deadlines: every pool client parks on its reply
   channel forever, no timer can save it, and the scheduler must
   diagnose a deadlock — at which point the flight ring auto-dumps a
   window that the checker accepts in window mode. *)
let test_deadlock_flight_dump () =
  let stuck =
    { tiny with Load.requests = 50; workers = 0; deadline = 0 }
  in
  let o = Obs.create () in
  let buf = Buffer.create (1 lsl 16) in
  Obs.attach o
    (Obs.Sink.ring_sink (Obs.Sink.ring ~flight:(Buffer.add_string buf) ()));
  (match Load.run ~obs:o stuck ~seed:1L Load.Pool with
  | _ -> Alcotest.fail "a worker-less pool should deadlock"
  | exception Sched.Deadlock _ -> ());
  Obs.close o;
  let dump = Buffer.contents buf in
  if dump = "" then Alcotest.fail "deadlock did not trigger a flight dump";
  let evs = check_clean "flight dump" dump in
  let has_deadlock =
    Array.exists
      (fun s ->
        match s.Trace.ev with Obs.Event.Deadlock _ -> true | _ -> false)
      evs
  in
  if not has_deadlock then Alcotest.fail "flight dump lacks the deadlock event"

(* ---------------- the live census ---------------- *)

(* The peak live-node count folded from a JSONL trace: +1 per spawn,
   +|nodes| per spawn batch, -1 per exit, -|pids| per cancel. *)
let trace_peak trace =
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun s ->
      (match s.Trace.ev with
      | Obs.Event.Spawn _ -> incr live
      | Spawn_batch { nodes; _ } -> live := !live + Array.length nodes
      | Exit _ -> decr live
      | Cancel { pids; _ } -> live := !live - Array.length pids
      | _ -> ());
      peak := max !peak !live)
    (parse_ok "census trace" trace);
  !peak

(* A deadline that times out some requests but not all, in every
   scenario. *)
let partial_deadline = { tiny with Load.deadline = 5000 }

(* No deadline; one that times every request out; the partial one. *)
let census_profiles =
  [
    ("tiny", tiny);
    ("deadline 400", { tiny with Load.deadline = 400 });
    ("deadline 5000", partial_deadline);
  ]

let census_runs =
  lazy
    (List.concat_map
       (fun (what, profile) ->
         List.map
           (fun scen ->
             let st, trace = jsonl_run ~profile scen in
             (what ^ " " ^ Load.scenario_name scen, profile, scen, st, trace))
           Load.scenarios)
       census_profiles)

let stats_json st = Obs.Json.to_string (Load.stats_to_json st)

let test_stats_independent_of_handle () =
  List.iter
    (fun (name, profile, scen, traced, _) ->
      Alcotest.(check string) (name ^ ": stats") (stats_json traced)
        (stats_json (Load.run profile ~seed:42L scen));
      if profile == partial_deadline
         && (traced.Load.st_timedout = 0 || traced.Load.st_completed = 0)
      then Alcotest.failf "%s: %d timed out, %d completed" name traced.Load.st_timedout
             traced.Load.st_completed)
    (Lazy.force census_runs)

let test_peak_is_trace_census () =
  List.iter
    (fun (name, _, _, st, trace) ->
      Alcotest.(check int) (name ^ ": peak") (trace_peak trace) st.Load.st_peak_live)
    (Lazy.force census_runs)

let test_handle_left_as_given () =
  let o = Obs.create () in
  ignore (Load.run ~obs:o tiny ~seed:42L Load.Pool);
  Alcotest.(check bool) "no sink attached" false (Obs.has_sink o)

(* A capture with a live sibling reinstated by resume (one graft batch),
   a future, and a deadline firing over three sleepers (one cancel
   sweep): [Sched.peak] at the end of main, traced or not, is the trace
   census. *)
let test_native_peak_is_trace_census () =
  let program () =
    let r =
      Sched.spawn (fun c ->
          let a, b =
            Sched.pcall2
              (fun () -> Sched.control c (fun pk -> Sched.resume pk 1))
              (fun () ->
                Sched.yield ();
                Sched.yield ();
                2)
          in
          a + b)
    in
    let f = Sched.future (fun () -> r * 10) in
    let cancelled =
      match
        Resil.with_deadline ~at:(Sched.now () + 5) (fun () ->
            ignore (Sched.pcall (List.init 3 (fun _ () -> Sched.sleep 100))))
      with
      | Error (Resil.Cancelled _) -> true
      | Ok () | Error (Resil.Crashed _) -> false
    in
    (Sched.touch f, cancelled, Sched.peak ())
  in
  let o = Obs.create () in
  let buf = Buffer.create 4096 in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let v, cancelled, traced_peak = Sched.run ~obs:o program in
  Obs.close o;
  let trace = Buffer.contents buf in
  Alcotest.(check int) "value" 30 v;
  Alcotest.(check bool) "deadline fired" true cancelled;
  let has p = Array.exists (fun s -> p s.Trace.ev) (parse_ok "native trace" trace) in
  Alcotest.(check bool) "a graft batch" true
    (has (function Obs.Event.Spawn_batch _ -> true | _ -> false));
  Alcotest.(check bool) "a cancel sweep" true
    (has (function Obs.Event.Cancel { pids; _ } -> Array.length pids >= 3 | _ -> false));
  Alcotest.(check int) "traced peak" (trace_peak trace) traced_peak;
  let _, _, untraced_peak = Sched.run program in
  Alcotest.(check int) "untraced peak" traced_peak untraced_peak

(* ---------------- with_deadline ---------------- *)

let test_with_deadline_already_past () =
  Sched.run (fun () ->
      ignore (Sched.pcall [ (fun () -> Sched.yield ()); (fun () -> ()) ]);
      match Resil.with_deadline ~at:(Sched.now ()) (fun () -> Sched.sleep 50) with
      | Error (Resil.Cancelled _) -> ()
      | Ok () -> Alcotest.fail "a dead-on-arrival deadline returned Ok"
      | Error (Resil.Crashed m) -> Alcotest.failf "crashed instead: %s" m)

let () =
  Alcotest.run "load"
    [
      ( "arrivals",
        [
          Alcotest.test_case "pure function of (profile, seed)" `Quick
            test_arrivals_pure;
          Alcotest.test_case "independent of execution" `Quick
            test_arrivals_independent_of_execution;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "traces byte-identical per seed" `Quick
            test_traces_byte_identical;
          Alcotest.test_case "stats deterministic" `Quick
            test_stats_deterministic;
        ] );
      ( "attribution",
        [ Alcotest.test_case "phases sum exactly" `Quick test_attribution_sums ] );
      ( "deadlines",
        [
          Alcotest.test_case "timeouts reach the summary fate" `Quick
            test_timeouts_reach_summary;
          Alcotest.test_case "slo rollup matches stats" `Quick
            test_slo_rollup_matches_stats;
          Alcotest.test_case "assert grammar" `Quick test_assert_grammar;
          Alcotest.test_case "assert check" `Quick test_assert_check;
          Alcotest.test_case "with_deadline already past" `Quick
            test_with_deadline_already_past;
        ] );
      ( "census",
        [
          Alcotest.test_case "stats independent of the handle" `Quick
            test_stats_independent_of_handle;
          Alcotest.test_case "peak is the trace census" `Quick test_peak_is_trace_census;
          Alcotest.test_case "caller's handle left as given" `Quick
            test_handle_left_as_given;
          Alcotest.test_case "native peak is the trace census" `Quick
            test_native_peak_is_trace_census;
        ] );
      ( "failure",
        [
          Alcotest.test_case "deadlock auto-dumps a checkable flight window"
            `Quick test_deadlock_flight_dump;
        ] );
    ]
