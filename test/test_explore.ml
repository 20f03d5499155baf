(* Tests for record/replay and DPOR-style exploration (lib/explore),
   plus the scheduler-determinism contracts they depend on: the Driven
   modulo-reduction rule, the Driven_pids decision/slice alignment,
   FIFO wake order (including Channel.close), and Randomized's
   independence from the global Random state. *)

module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Interp = Pcont_syntax.Interp
module Concur = Pcont_pstack.Concur
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Xorshift = Pcont_util.Xorshift
module Resil = Pcont_resil.Resil
module X = Pcont_explore.Explore

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Run a native program with a trace buffer attached. *)
let native_trace policy prog =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let v = Sched.run ~policy ~obs:o prog in
  Obs.close o;
  (v, Buffer.contents buf)

let pstack_trace sched src =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let t = Interp.create () in
  let rs = Interp.eval_string ~mode:(Interp.Concurrent sched) ~obs:o t src in
  Obs.close o;
  ignore (Interp.take_output ());
  (String.concat ";" (List.map Interp.result_to_string rs), Buffer.contents buf)

let native_prog () =
  let f = Sched.future (fun () -> 21 * 2) in
  let xs = Sched.pcall [ (fun () -> 1); (fun () -> 2); (fun () -> Sched.touch f) ] in
  List.fold_left ( + ) 0 xs

let pstack_src = "(pcall + 1 (touch (future 2)) 3)"

(* ---------------- Driven modulo contract (satellite: out-of-range) -- *)

(* A decision on the runnable count alone. *)
let by_count f = Sched.Driven_pids (fun pids -> f (Array.length pids))

let test_driven_modulo_native () =
  (* pick n = n is out of range and must behave exactly like pick 0;
     pick -1 must behave like pick (n - 1). *)
  let v0, t0 = native_trace (by_count (fun _ -> 0)) native_prog in
  let vn, tn = native_trace (by_count (fun n -> n)) native_prog in
  Alcotest.(check int) "value: pick n = pick 0" v0 vn;
  Alcotest.(check string) "trace: pick n = pick 0" t0 tn;
  let vl, tl = native_trace (by_count (fun n -> n - 1)) native_prog in
  let vm, tm = native_trace (by_count (fun _ -> -1)) native_prog in
  Alcotest.(check int) "value: pick -1 = pick (n-1)" vl vm;
  Alcotest.(check string) "trace: pick -1 = pick (n-1)" tl tm

let test_driven_modulo_pstack () =
  let r0, t0 = pstack_trace (by_count (fun _ -> 0)) pstack_src in
  let rn, tn = pstack_trace (by_count (fun n -> n)) pstack_src in
  Alcotest.(check string) "result: pick n = pick 0" r0 rn;
  Alcotest.(check string) "trace: pick n = pick 0" t0 tn;
  (* before the modulo contract, an out-of-range pick was an Error
     outcome here (and an exception on the native side) *)
  Alcotest.(check bool) "no error outcome" false (starts_with ~prefix:"error" rn);
  let rl, tl = pstack_trace (by_count (fun n -> n - 1)) pstack_src in
  let rm, tm = pstack_trace (by_count (fun _ -> -1)) pstack_src in
  Alcotest.(check string) "result: pick -1 = pick (n-1)" rl rm;
  Alcotest.(check string) "trace: pick -1 = pick (n-1)" tl tm

(* Driven_pids decisions and trace slices must be the same sequence:
   the chosen pid log equals the schedule extracted from the trace. *)
let test_driven_pids_alignment () =
  List.iter
    (fun target ->
      let chosen = ref [] in
      let pick pids =
        (* rotate through candidates so the log is not just queue heads *)
        let i = List.length !chosen mod Array.length pids in
        chosen := pids.(i) :: !chosen;
        i
      in
      let r = X.Replay.record ~policy:(Sched.Driven_pids pick) target in
      let log = Array.of_list (List.rev !chosen) in
      Alcotest.(check (array int))
        (target.X.tg_name ^ ": decision log = trace schedule")
        log r.X.Replay.rec_schedule.X.Schedule.decisions)
    [ X.Workloads.gen_native; X.Workloads.gen_pstack ]

(* ---------------- record / replay round-trips --------------------- *)

let pstack_multiform =
  (* two top-level forms = two runs in one trace; the flat schedule
     must replay across the run boundary *)
  "(define x (pcall + 1 2 3))\n(pcall * x (touch (future 5)))"

let pstack_capture =
  "(spawn (lambda (c) (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))"

let roundtrip_targets =
  [
    X.Workloads.gen_native;
    X.Workloads.racing 2;
    X.Workloads.lost_wakeup;
    X.Workloads.stolen_relay;
    X.Workloads.gen_pstack;
    X.pstack_target "multiform" pstack_multiform;
    X.pstack_target "capture" pstack_capture;
  ]

let reports trace =
  match Trace.parse_string trace with
  | Error m -> Alcotest.fail ("trace parse: " ^ m)
  | Ok evs ->
      Obs.Json.to_string
        (Obs.Json.Arr (List.map Analysis.Report.to_json (Analysis.Report.of_trace evs)))

let roundtrip_under name policy =
  List.iter
    (fun target ->
      match X.Replay.check_roundtrip ~policy target with
      | Error m -> Alcotest.fail (target.X.tg_name ^ " under " ^ name ^ ": " ^ m)
      | Ok r ->
          let r2, div = X.Replay.replay target r.X.Replay.rec_schedule in
          Alcotest.(check bool) "no divergence" true (div = None);
          Alcotest.(check string)
            (target.X.tg_name ^ " under " ^ name ^ ": identical reports")
            (reports r.X.Replay.rec_trace)
            (reports r2.X.Replay.rec_trace))
    roundtrip_targets

let test_roundtrip_default () = roundtrip_under "default" Sched.Round_robin
let test_roundtrip_seeded () = roundtrip_under "randomized" (Sched.Randomized 7L)

let test_roundtrip_driven () =
  (* a third, distinct schedule source: always step the last runnable *)
  roundtrip_under "driven" (Sched.Driven_pids (fun pids -> Array.length pids - 1))

(* ---------------- exploration finds injected bugs ------------------ *)

let test_explore_lost_wakeup () =
  let stats = X.Dpor.explore ~max_runs:50 X.Workloads.lost_wakeup in
  match stats.X.Dpor.s_witness with
  | None -> Alcotest.fail "exploration missed the lost wakeup"
  | Some w ->
      Alcotest.(check string) "kind" "deadlock" w.X.Dpor.w_kind;
      Alcotest.(check bool)
        "found within a handful of schedules" true
        (w.X.Dpor.w_runs_to_find <= 10);
      (* the witness is a replayable schedule that reproduces the bug *)
      let r, div = X.Replay.replay X.Workloads.lost_wakeup w.X.Dpor.w_schedule in
      Alcotest.(check bool) "witness replays without divergence" true (div = None);
      Alcotest.(check bool)
        "witness reproduces the deadlock" true
        (starts_with ~prefix:"deadlock" r.X.Replay.rec_outcome);
      (* the naive baseline cannot find it: round-based schedules
         interleave strictly, so the two-slice signal never lands
         entirely inside the waiter's check/park window *)
      let sweep = X.Dpor.seed_sweep ~seeds:100 X.Workloads.lost_wakeup in
      Alcotest.(check bool) "100-seed sweep misses it" true (sweep.X.Dpor.sw_found = None)

let test_explore_stolen_relay () =
  let stats = X.Dpor.explore ~max_runs:100 X.Workloads.stolen_relay in
  match stats.X.Dpor.s_witness with
  | None -> Alcotest.fail "exploration missed the stolen relay deadlock"
  | Some w ->
      Alcotest.(check string) "kind" "deadlock" w.X.Dpor.w_kind;
      let r, div = X.Replay.replay X.Workloads.stolen_relay w.X.Dpor.w_schedule in
      Alcotest.(check bool) "witness replays without divergence" true (div = None);
      Alcotest.(check bool)
        "witness reproduces the deadlock" true
        (starts_with ~prefix:"deadlock" r.X.Replay.rec_outcome);
      let sweep = X.Dpor.seed_sweep ~seeds:100 X.Workloads.stolen_relay in
      Alcotest.(check bool) "100-seed sweep misses it" true (sweep.X.Dpor.sw_found = None)

let test_explore_clean_workloads () =
  (* no false positives on a racy-but-correct workload, and the engine
     actually explores distinct schedules *)
  let stats = X.Dpor.explore ~max_runs:60 (X.Workloads.racing 2) in
  Alcotest.(check bool) "no witness on racing" true (stats.X.Dpor.s_witness = None);
  Alcotest.(check bool) "explored several schedules" true (stats.X.Dpor.s_schedules > 5);
  Alcotest.(check bool) "seeded backtrack points" true (stats.X.Dpor.s_races > 0);
  (* capture-vs-run races on a grafting program: explored, no violation *)
  let stats = X.Dpor.explore ~max_runs:30 (X.pstack_target "capture" pstack_capture) in
  Alcotest.(check bool) "no witness on capture workload" true
    (stats.X.Dpor.s_witness = None)

(* The class key is Analysis.Diff's projection plus the per-resource
   operation orders.  Pin the classes it splits explore's 200 runs and
   the sweep's 100 seeds into, per workload: a drift in either
   derivation changes a count. *)
let test_skeleton_classes () =
  let cases =
    [
      ("gen", X.Workloads.gen_native, [], 5, 1);
      ("gen-pstack", X.Workloads.gen_pstack, [], 5, 5);
      ("racing", X.Workloads.racing 3, [], 182, 93);
      ("racing 2", X.Workloads.racing 2, [], 72, 21);
      ("lost-wakeup", X.Workloads.lost_wakeup, [], 2, 2);
      ("stolen-relay", X.Workloads.stolen_relay, [], 3, 2);
      ("timeout-race", X.Workloads.timeout_race, [], 4, 8);
      ("timer-pstack", X.Workloads.timer_pstack, [], 2, 2);
      ("sup-relay", X.Workloads.sup_relay, [], 1, 2);
      ("sup-relay crash", X.Workloads.sup_relay, [ X.Fault.Crash ], 11, 19);
      ("sup-leak", X.Workloads.sup_leak, [], 1, 4);
      ("sup-leak crash", X.Workloads.sup_leak, [ X.Fault.Crash ], 25, 37);
    ]
  in
  List.iter
    (fun (name, target, fault_menu, explored, swept) ->
      let st = X.Dpor.explore ~fault_menu target in
      let sw = X.Dpor.seed_sweep ~fault_menu target in
      Alcotest.(check int) (name ^ ": explore classes") explored st.X.Dpor.s_skeletons;
      Alcotest.(check int) (name ^ ": sweep classes") swept sw.X.Dpor.sw_skeletons)
    cases

(* ---------------- decision pinning (satellite: hidden decisions) --- *)

let test_wake_fifo_order () =
  (* park order = wake order, pinned: three fibers park on one waitset,
     a fourth wakes them all *)
  let _, trace =
    native_trace Sched.Round_robin (fun () ->
        let ws = Sched.Waitset.create "event" in
        let waiter () = Sched.block ws in
        let waker () =
          Sched.yield ();
          Sched.yield ();
          Sched.wake ws
        in
        Sched.pcall [ waiter; waiter; waiter; waker ])
  in
  match Trace.parse_string trace with
  | Error m -> Alcotest.fail m
  | Ok evs ->
      let parked = ref [] and woken = ref [] in
      Array.iter
        (fun (st : Trace.stamped) ->
          match st.Trace.ev with
          | E.Park { pid; _ } -> parked := pid :: !parked
          | E.Wake { pid; _ } -> woken := pid :: !woken
          | _ -> ())
        evs;
      Alcotest.(check int) "three parks" 3 (List.length !parked);
      Alcotest.(check (list int)) "wake order = park order (FIFO)" (List.rev !parked)
        (List.rev !woken)

let test_channel_close_wake_order () =
  (* Channel.close wakes parked senders in park order; replay fidelity
     requires that order to be deterministic *)
  let v, trace =
    native_trace Sched.Round_robin (fun () ->
        let c = Channel.create ~capacity:1 () in
        let sender x () =
          try
            Channel.send c x;
            Channel.send c (10 * x);
            0
          with Channel.Closed -> x
        in
        let closer () =
          Sched.yield ();
          Sched.yield ();
          Channel.close c;
          0
        in
        Sched.pcall [ sender 1; sender 2; closer ])
  in
  Alcotest.(check (list int)) "both parked senders raised Closed" [ 1; 2; 0 ] v;
  match Trace.parse_string trace with
  | Error m -> Alcotest.fail m
  | Ok evs ->
      let parked = ref [] and woken = ref [] in
      Array.iter
        (fun (st : Trace.stamped) ->
          match st.Trace.ev with
          | E.Park { pid; _ } -> parked := pid :: !parked
          | E.Wake { pid; _ } -> woken := pid :: !woken
          | _ -> ())
        evs;
      Alcotest.(check (list int)) "close wakes in park order" (List.rev !parked)
        (List.rev !woken)

(* ---------------- Randomized vs global Random (satellite: PRNG) ---- *)

let test_randomized_ignores_global_random () =
  let t1 = X.Replay.record ~policy:(Sched.Randomized 5L) (X.Workloads.racing 2) in
  Random.init 123;
  ignore (Random.bits ());
  let t2 = X.Replay.record ~policy:(Sched.Randomized 5L) (X.Workloads.racing 2) in
  Random.init 98765;
  ignore (Random.float 1.0);
  let t3 = X.Replay.record ~policy:(Sched.Randomized 5L) (X.Workloads.racing 2) in
  Alcotest.(check string) "native trace unaffected by Random.init"
    t1.X.Replay.rec_trace t2.X.Replay.rec_trace;
  Alcotest.(check string) "…twice" t1.X.Replay.rec_trace t3.X.Replay.rec_trace;
  let p1 = X.Replay.record ~policy:(Sched.Randomized 5L) X.Workloads.gen_pstack in
  Random.init 4242;
  ignore (Random.bits ());
  let p2 = X.Replay.record ~policy:(Sched.Randomized 5L) X.Workloads.gen_pstack in
  Alcotest.(check string) "pstack trace unaffected by Random.init"
    p1.X.Replay.rec_trace p2.X.Replay.rec_trace

let test_xorshift_pinned_stream () =
  (* both schedulers share this splitmix64; pin its stream so a silent
     reimplementation (or a fallback to Stdlib.Random) cannot slip in *)
  let g = Xorshift.create 42L in
  Alcotest.(check int64) "v1" 0xbdd732262feb6e95L (Xorshift.next g);
  Alcotest.(check int64) "v2" 0x28efe333b266f103L (Xorshift.next g);
  Alcotest.(check int64) "v3" 0x47526757130f9f52L (Xorshift.next g);
  Alcotest.(check int64) "v4" 0x581ce1ff0e4ae394L (Xorshift.next g)

let test_cross_scheduler_same_seed_aligned () =
  (* the mirrored gen workloads under the same seed stay causally
     aligned across schedulers (same shared PRNG, same decision
     surface); Diff must find no divergence *)
  List.iter
    (fun seed ->
      let n = X.Replay.record ~policy:(Sched.Randomized seed) X.Workloads.gen_native in
      let p = X.Replay.record ~policy:(Sched.Randomized seed) X.Workloads.gen_pstack in
      match (Trace.parse_string n.X.Replay.rec_trace, Trace.parse_string p.X.Replay.rec_trace) with
      | Ok ne, Ok pe ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld causally aligned" seed)
            true
            (Analysis.Diff.diff ne pe = None)
      | Error m, _ | _, Error m -> Alcotest.fail m)
    [ 1L; 3L; 11L ]

(* ---------------- schedule files ----------------------------------- *)

let test_schedule_file_roundtrip () =
  let r = X.Replay.record X.Workloads.gen_native in
  let path = Filename.temp_file "sched" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      X.Schedule.save path r.X.Replay.rec_schedule;
      match X.Schedule.load path with
      | Error m -> Alcotest.fail m
      | Ok s ->
          Alcotest.(check (array int)) "schedule file round-trips"
            r.X.Replay.rec_schedule.X.Schedule.decisions s.X.Schedule.decisions);
  (* a raw trace file is also a valid schedule source *)
  let tpath = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tpath)
    (fun () ->
      Out_channel.with_open_bin tpath (fun oc ->
          Out_channel.output_string oc r.X.Replay.rec_trace);
      match X.Schedule.load tpath with
      | Error m -> Alcotest.fail m
      | Ok s ->
          Alcotest.(check (array int)) "trace file yields the same schedule"
            r.X.Replay.rec_schedule.X.Schedule.decisions s.X.Schedule.decisions)

(* A schedule cut short runs out before the program finishes: the
   replay falls back to index 0 and names the exhaustion, not a pid. *)
let test_truncated_schedule () =
  let r = X.Replay.record X.Workloads.gen_native in
  let sched = r.X.Replay.rec_schedule in
  let cut = Array.length sched.X.Schedule.decisions / 2 in
  let short =
    { sched with X.Schedule.decisions = Array.sub sched.X.Schedule.decisions 0 cut }
  in
  (match X.Replay.replay X.Workloads.gen_native short with
  | _, None -> Alcotest.fail "a truncated schedule must diverge"
  | _, Some d ->
      Alcotest.(check int) "first missing decision" cut d.X.Replay.d_decision;
      let msg = X.Replay.pp_divergence d in
      if not (starts_with ~prefix:(Printf.sprintf "decision %d: schedule exhausted" cut) msg)
      then Alcotest.failf "unexpected divergence report: %s" msg);
  Alcotest.(check string) "trace lines count from 1" "line 2: recorded b, replayed c"
    (X.Replay.first_diff "a\nb" "a\nc")

(* ---------------- cancellation races ------------------------------- *)

(* A waker and a canceller race for a parked fiber: depending on the
   schedule the waiter is woken or swept while parked.  Both fates are
   legal; exploration must visit several schedules without flagging
   either, and the race must be real (both outcomes reachable). *)
let cancel_wake_target =
  X.native_target "cancel-wake" (fun () ->
      let ws = Sched.Waitset.create "signal" in
      let sc = Resil.Scope.make () in
      let waiter () =
        match
          Resil.Scope.run sc (fun () ->
              Sched.block ws;
              "woken")
        with
        | Ok s -> s
        | Error f -> Resil.failure_to_string f
      in
      let waker () =
        (* wait for the park so the wake cannot be lost; the bound keeps
           driven schedules that starve the waiter from spinning forever
           (the cancel then decides the fate) *)
        let tries = ref 0 in
        while
          Sched.Waitset.parked ws = 0
          && (not (Resil.Scope.cancelled sc))
          && !tries < 20
        do
          incr tries;
          Sched.yield ()
        done;
        Sched.wake ws;
        "waker"
      in
      let canceller () =
        Sched.yield ();
        Sched.yield ();
        Resil.Scope.cancel sc ~reason:"race";
        "canceller"
      in
      String.concat "," (Sched.pcall [ waiter; waker; canceller ]))

(* A control capture racing the cancellation of its enclosing scope:
   the spawn controller aborts its own subtree and its replacement
   signals the canceller through a channel, so the cancel lands exactly
   in the window between the capture and the scope observing its value.
   The scope either delivers the captured value (10) or the watchdog
   wins and the whole subtree — replacement fiber included — is
   swept. *)
let cancel_capture_target =
  X.native_target "cancel-capture" (fun () ->
      let sc = Resil.Scope.make () in
      let ch = Channel.create ~capacity:1 () in
      let work () =
        match
          Resil.Scope.run sc (fun () ->
              Sched.spawn (fun c ->
                  fst
                    (Sched.pcall2
                       (fun () ->
                         Sched.yield ();
                         Sched.abort c ~reason:"shortcut" (fun () ->
                             Channel.send ch 0;
                             10))
                       (fun () ->
                         Sched.yield ();
                         Sched.yield ();
                         1))))
        with
        | Ok n -> "value " ^ string_of_int n
        | Error f -> Resil.failure_to_string f
      in
      let canceller () =
        let _ = Channel.recv ch in
        Resil.Scope.cancel sc ~reason:"race";
        "canceller"
      in
      String.concat "," (Sched.pcall [ work; canceller ]))

let reachable_outcomes target =
  List.sort_uniq compare
    (List.map
       (fun s ->
         (X.Replay.record ~policy:(Sched.Randomized (Int64.of_int s)) target)
           .X.Replay.rec_outcome)
       (List.init 24 (fun i -> i + 1)))

let test_explore_cancel_races () =
  List.iter
    (fun target ->
      let stats = X.Dpor.explore ~max_runs:80 target in
      (match stats.X.Dpor.s_witness with
      | None -> ()
      | Some w ->
          Alcotest.failf "%s: spurious witness %s (%s)" target.X.tg_name
            w.X.Dpor.w_kind w.X.Dpor.w_outcome);
      Alcotest.(check bool)
        (target.X.tg_name ^ ": explored distinct schedules")
        true
        (stats.X.Dpor.s_schedules >= 2 && stats.X.Dpor.s_races > 0);
      Alcotest.(check bool)
        (target.X.tg_name ^ ": the race is real")
        true
        (List.length (reachable_outcomes target) >= 2))
    [ cancel_wake_target; cancel_capture_target ]

(* A capture of a pcall subtree while a sibling may be parked on a
   waitset, grafted straight back: the capture kills the parked entry
   and the graft revives the waiter, which re-checks its gate and parks
   again until the opener (captured too, or already done) wakes it.
   Every schedule gives the same value. *)
let capture_parked_target =
  X.native_target "capture-parked" (fun () ->
      let gate = Sched.Waitset.create "gate" in
      let opened = ref false in
      let waiter () =
        while not !opened do
          Sched.block gate
        done;
        100
      in
      let opener () =
        Sched.yield ();
        Sched.yield ();
        opened := true;
        Sched.wake gate;
        10
      in
      let capturer c () =
        Sched.yield ();
        Sched.control c (fun pk -> Sched.resume pk 1)
      in
      string_of_int
        (Sched.spawn (fun c ->
             List.fold_left ( + ) 0 (Sched.pcall [ waiter; opener; capturer c ]))))

let test_explore_capture_parked () =
  let stats = X.Dpor.explore ~max_runs:80 capture_parked_target in
  Alcotest.(check bool) "no witness" true (stats.X.Dpor.s_witness = None);
  Alcotest.(check bool) "explored distinct schedules" true
    (stats.X.Dpor.s_schedules >= 2 && stats.X.Dpor.s_races > 0);
  Alcotest.(check (list string)) "one outcome" [ "value 111" ]
    (reachable_outcomes capture_parked_target)

let test_explore_timeout_races () =
  (* timeout vs completion, native: both arms are deterministic in
     virtual time, so every schedule is clean *)
  let stats = X.Dpor.explore ~max_runs:60 X.Workloads.timeout_race in
  Alcotest.(check bool) "timeout-race stays clean" true
    (stats.X.Dpor.s_witness = None);
  (* and the pstack timer-cancellation idiom from the paper *)
  let stats = X.Dpor.explore ~max_runs:40 X.Workloads.timer_pstack in
  Alcotest.(check bool) "timer-pstack stays clean" true
    (stats.X.Dpor.s_witness = None);
  let r = X.Replay.record X.Workloads.timer_pstack in
  Alcotest.(check bool) "the timer branch wins" true
    (let rec has i =
       i >= 0
       && (starts_with ~prefix:"timed-out"
             (String.sub r.X.Replay.rec_outcome i
                (String.length r.X.Replay.rec_outcome - i))
          || has (i - 1))
     in
     has (String.length r.X.Replay.rec_outcome - 1))

(* ---------------- fault injection ---------------------------------- *)

let test_fault_roundtrip () =
  (* a schedule that carries faults replays them byte for byte *)
  let faults = [ { X.Fault.at = 6; kind = X.Fault.Crash } ] in
  (match X.Replay.check_roundtrip ~faults X.Workloads.sup_relay with
  | Error m -> Alcotest.fail ("faulty roundtrip: " ^ m)
  | Ok r ->
      Alcotest.(check bool) "faults recorded in the schedule" true
        (r.X.Replay.rec_schedule.X.Schedule.faults = faults));
  (* and they survive the schedule JSON encoding *)
  let s =
    {
      X.Schedule.decisions = [| 0; 1; 2; 0 |];
      faults =
        [
          { X.Fault.at = 3; kind = X.Fault.Crash };
          { X.Fault.at = 5; kind = X.Fault.Wake "channel.send" };
          { X.Fault.at = 7; kind = X.Fault.Drop 2 };
        ];
    }
  in
  match X.Schedule.of_json (X.Schedule.to_json s) with
  | Error m -> Alcotest.fail ("schedule json: " ^ m)
  | Ok s' ->
      Alcotest.(check (array int)) "decisions" s.X.Schedule.decisions
        s'.X.Schedule.decisions;
      Alcotest.(check bool) "faults" true
        (s.X.Schedule.faults = s'.X.Schedule.faults)

let test_explore_finds_supervision_leak () =
  (* The headline acceptance case: systematic fault placement finds the
     orphaned-helper leak in sup-leak — a run that still delivers a
     value, so only trace analysis exposes it — and a 100-seed
     randomized sweep with the same fault menu does not. *)
  let stats =
    X.Dpor.explore ~max_runs:400 ~fault_menu:[ X.Fault.Crash ]
      ~max_fault_slices:300 X.Workloads.sup_leak
  in
  match stats.X.Dpor.s_witness with
  | None -> Alcotest.fail "fault exploration missed the supervision leak"
  | Some w ->
      Alcotest.(check string) "kind" "check:no-orphan-waiters" w.X.Dpor.w_kind;
      Alcotest.(check bool) "witness carries the fault" true
        (List.length w.X.Dpor.w_schedule.X.Schedule.faults = 1);
      (* byte-identical witness replay, twice *)
      let r1, d1 = X.Replay.replay X.Workloads.sup_leak w.X.Dpor.w_schedule in
      let r2, d2 = X.Replay.replay X.Workloads.sup_leak w.X.Dpor.w_schedule in
      Alcotest.(check bool) "no divergence" true (d1 = None && d2 = None);
      Alcotest.(check string) "byte-identical replays" r1.X.Replay.rec_trace
        r2.X.Replay.rec_trace;
      Alcotest.(check string) "same outcome as the witness" w.X.Dpor.w_outcome
        r1.X.Replay.rec_outcome;
      (* the randomized baseline with the same menu misses it *)
      let sweep =
        X.Dpor.seed_sweep ~seeds:100 ~fault_menu:[ X.Fault.Crash ]
          X.Workloads.sup_leak
      in
      Alcotest.(check bool) "100-seed fault sweep misses it" true
        (sweep.X.Dpor.sw_found = None)

(* ---------------- ingest robustness ------------------------------- *)

let schedule_of_string s =
  match Obs.Json.parse s with
  | Ok j -> X.Schedule.of_json j
  | Error m -> Alcotest.failf "%s is not JSON: %s" s m

(* A schedule number the writer would not print exactly is an error,
   never an int_of_float outside int's range. *)
let test_out_of_range_schedule () =
  List.iter
    (fun s ->
      match schedule_of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error _ -> ())
    [
      {|{"decisions":[1e30]}|};
      {|{"decisions":[0,-1e15]}|};
      {|{"decisions":[0],"faults":[{"at":1e30,"fault":"crash"}]}|};
    ];
  match
    schedule_of_string
      {|{"decisions":[999999999999999],"faults":[{"at":-999999999999999,"fault":"crash"}]}|}
  with
  | Ok { X.Schedule.decisions = [| 999_999_999_999_999 |]; faults = [ f ] }
    when f.X.Fault.at = -999_999_999_999_999 -> ()
  | Ok _ -> Alcotest.fail "boundary values misread"
  | Error m -> Alcotest.failf "boundary values rejected: %s" m

(* Recorded traces from both schedulers and a schedule file with every
   fault kind: the inputs the mutations below start from. *)
let fuzz_inputs =
  lazy
    (let _, native = native_trace (Sched.Randomized 5L) native_prog in
     let _, pstack = pstack_trace (Concur.Randomized 5L) pstack_src in
     let sched =
       {
         (X.Replay.record X.Workloads.gen_native).X.Replay.rec_schedule with
         X.Schedule.faults =
           [
             { X.Fault.at = 3; kind = X.Fault.Crash };
             { X.Fault.at = 5; kind = X.Fault.Wake "channel.send" };
             { X.Fault.at = 7; kind = X.Fault.Drop 2 };
           ];
       }
     in
     [| native; pstack; Obs.Json.to_string (X.Schedule.to_json sched) ^ "\n" |])

(* Substitute up to four characters, each by a structural character, a
   digit, [e], or a snippet of them that retypes a value ([""], [[]])
   or puts it out of range ([1e30]), and maybe truncate. *)
let gen_mutation =
  let open QCheck.Gen in
  let snippets =
    [ "{"; "}"; "["; "]"; ":"; ","; "\""; "0"; "1"; "7"; "e"; "\"\""; "[]"; "e99"; "1e30" ]
  in
  let* input = int_bound 2 in
  let s = (Lazy.force fuzz_inputs).(input) in
  let n = String.length s in
  let+ edits = list_size (int_bound 4) (pair (int_bound (n - 1)) (oneofl snippets))
  and+ cut = oneof [ return max_int; int_bound n ] in
  let s =
    List.fold_left
      (fun s (i, sub) -> String.sub s 0 i ^ sub ^ String.sub s (i + 1) (String.length s - i - 1))
      s edits
  in
  String.sub s 0 (min cut (String.length s))

let names_its_line m =
  match String.index_opt m ':' with
  | Some i when starts_with ~prefix:"line " m ->
      int_of_string_opt (String.sub m 5 (i - 5)) <> None
  | _ -> false

let prop_ingest_never_raises =
  let path = Filename.temp_file "fuzz" ".json" in
  at_exit (fun () -> Sys.remove path);
  QCheck.Test.make ~name:"mutated traces and schedules never raise" ~count:2000
    (QCheck.make ~print:String.escaped gen_mutation)
    (fun s ->
      (match Trace.parse_string s with
      | Ok _ -> ()
      | Error m ->
          if not (names_its_line m) then
            QCheck.Test.fail_reportf "trace error names no line: %s" m);
      (match Obs.Json.parse s with Ok j -> ignore (X.Schedule.of_json j) | Error _ -> ());
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
      ignore (X.Schedule.load path);
      true)

let () =
  Alcotest.run "explore"
    [
      ( "driven-contract",
        [
          Alcotest.test_case "modulo reduction (native)" `Quick test_driven_modulo_native;
          Alcotest.test_case "modulo reduction (pstack)" `Quick test_driven_modulo_pstack;
          Alcotest.test_case "decision/slice alignment" `Quick test_driven_pids_alignment;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "default policies" `Quick test_roundtrip_default;
          Alcotest.test_case "randomized" `Quick test_roundtrip_seeded;
          Alcotest.test_case "driven" `Quick test_roundtrip_driven;
          Alcotest.test_case "schedule files" `Quick test_schedule_file_roundtrip;
          Alcotest.test_case "truncated schedule" `Quick test_truncated_schedule;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "out-of-range schedules rejected" `Quick
            test_out_of_range_schedule;
          QCheck_alcotest.to_alcotest prop_ingest_never_raises;
        ] );
      ( "explore",
        [
          Alcotest.test_case "finds injected lost wakeup" `Quick test_explore_lost_wakeup;
          Alcotest.test_case "finds injected deadlock" `Quick test_explore_stolen_relay;
          Alcotest.test_case "clean workloads stay clean" `Quick test_explore_clean_workloads;
          Alcotest.test_case "cancellation races stay clean" `Quick
            test_explore_cancel_races;
          Alcotest.test_case "timeout races stay clean" `Quick
            test_explore_timeout_races;
          Alcotest.test_case "capture of a parked sibling" `Quick
            test_explore_capture_parked;
          Alcotest.test_case "skeleton classes pinned" `Quick test_skeleton_classes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "faulty schedules round-trip" `Quick
            test_fault_roundtrip;
          Alcotest.test_case "finds supervision leak, sweep misses" `Quick
            test_explore_finds_supervision_leak;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "wake order is FIFO" `Quick test_wake_fifo_order;
          Alcotest.test_case "close wake order pinned" `Quick test_channel_close_wake_order;
          Alcotest.test_case "Randomized ignores global Random" `Quick
            test_randomized_ignores_global_random;
          Alcotest.test_case "splitmix64 stream pinned" `Quick test_xorshift_pinned_stream;
          Alcotest.test_case "cross-scheduler seed alignment" `Quick
            test_cross_scheduler_same_seed_aligned;
        ] );
    ]
