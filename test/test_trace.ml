(* Tests for trace re-ingestion (lib/obs/trace) and the analysis engine
   (lib/obs/analysis): clean traces from both schedulers pass the
   invariant checker, deliberately corrupted traces are detected with
   the right rule id, the causal report reproduces the E16
   control-points-per-capture = roots+1 result and is byte-deterministic,
   and the diff aligns mirrored cross-scheduler workloads while catching
   injected causal changes. *)

module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Interp = Pcont_syntax.Interp
module Concur = Pcont_pstack.Concur
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel

(* ---------------- trace generation ---------------- *)

let jsonl_handle () =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  (o, buf)

let pstack_trace ~seed src =
  let o, buf = jsonl_handle () in
  let t = Interp.create () in
  let mode = Interp.Concurrent (Concur.Randomized (Int64.of_int seed)) in
  ignore (Interp.eval_value ~mode ~obs:o t src);
  Obs.close o;
  Buffer.contents buf

(* Fork, future, park, capture and reinstate all in one program: the
   controller is applied twice, so the trace carries captures AND
   reinstates (the capture prunes, each (k _) grafts back). *)
let pstack_src =
  "(let ([f (future (* 6 7))])\n\
  \  (pcall +\n\
  \    (spawn (lambda (c) (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))\n\
  \    (touch f)))"

let native_main () =
  let ch = Channel.create ~capacity:2 () in
  let f = Sched.future (fun () -> 21) in
  let captured =
    Sched.spawn (fun c ->
        let a, b =
          Sched.pcall2
            (fun () -> Sched.control c (fun pk -> Sched.resume pk 10))
            (fun () ->
              Sched.yield ();
              5)
        in
        a + b)
  in
  let xs =
    Sched.pcall
      [
        (fun () ->
          List.iter (Channel.send ch) [ 1; 2; 3; 4 ];
          Channel.close ch;
          0);
        (fun () ->
          let s = ref 0 in
          Channel.iter (fun v -> s := !s + v) ch;
          !s);
        (fun () -> Sched.touch f);
      ]
  in
  captured + List.fold_left ( + ) 0 xs

let native_trace ~seed () =
  let o, buf = jsonl_handle () in
  ignore (Sched.run ~policy:(Sched.Randomized (Int64.of_int seed)) ~obs:o native_main);
  Obs.close o;
  Buffer.contents buf

let parse_exn trace =
  match Trace.parse_string trace with
  | Ok evs -> evs
  | Error m -> Alcotest.failf "trace does not parse: %s" m

(* ---------------- corruption helpers ---------------- *)

(* Renumber seq after dropping/duplicating events so that only the
   corruption under test fires, not a spurious seq-dense violation. *)
let reindex evs = Array.mapi (fun i s -> { s with Trace.seq = i }) evs

let drop_first p evs =
  let dropped = ref false in
  Array.to_list evs
  |> List.filter (fun s ->
         if (not !dropped) && p s.Trace.ev then (
           dropped := true;
           false)
         else true)
  |> Array.of_list
  |> fun a ->
  if not !dropped then Alcotest.fail "corruption target event not found";
  reindex a

let duplicate_first p evs =
  let dup = ref false in
  Array.to_list evs
  |> List.concat_map (fun s ->
         if (not !dup) && p s.Trace.ev then (
           dup := true;
           [ s; s ])
         else [ s ])
  |> Array.of_list
  |> fun a ->
  if not !dup then Alcotest.fail "corruption target event not found";
  reindex a

let rules_of vs =
  List.sort_uniq compare (List.map (fun v -> v.Analysis.Check.v_rule) vs)

let has_rule r vs = List.exists (fun v -> v.Analysis.Check.v_rule = r) vs

(* The checker as a live sink: the events fed one at a time through the
   model's sink, the rules attached to the model. *)
let live_check evs =
  let m = Trace.model () in
  let finish = Analysis.Check.attach m in
  let sink = Trace.sink m in
  Array.iter (fun s -> sink.Obs.sink_event ~seq:s.Trace.seq ~ts:s.Trace.ts s.Trace.ev) evs;
  finish ()

let check_flags ~rule evs =
  let vs = Analysis.Check.run evs in
  if live_check evs <> vs then
    Alcotest.failf "the live checker disagrees with Check.run (%s)" rule;
  if vs = [] then Alcotest.failf "corrupted trace passed the checker (%s)" rule;
  if not (has_rule rule vs) then
    Alcotest.failf "expected rule %s, got: %s" rule
      (String.concat ", " (rules_of vs))

(* ---------------- checker: clean traces ---------------- *)

let test_check_clean_pstack () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  Alcotest.(check int) "no violations" 0 (List.length (Analysis.Check.run evs));
  (* The workload exercises the interesting rules, not just the easy ones. *)
  let saw tag = Array.exists (fun s -> E.name s.Trace.ev = tag) evs in
  List.iter
    (fun tag -> Alcotest.(check bool) tag true (saw tag))
    [ "capture"; "reinstate"; "park"; "wake" ]

let test_check_clean_native () =
  let evs = parse_exn (native_trace ~seed:42 ()) in
  Alcotest.(check int) "no violations" 0 (List.length (Analysis.Check.run evs));
  let saw tag = Array.exists (fun s -> E.name s.Trace.ev = tag) evs in
  List.iter
    (fun tag -> Alcotest.(check bool) tag true (saw tag))
    [ "capture"; "send"; "recv"; "park"; "wake" ]

(* ---------------- checker: corrupted traces ---------------- *)

let test_check_dropped_wake () =
  (* A lost wakeup: the pid parks, the wake vanishes, yet it runs on —
     exactly the race the checker exists to witness. *)
  let evs = parse_exn (native_trace ~seed:42 ()) in
  let corrupted = drop_first (function E.Wake _ -> true | _ -> false) evs in
  check_flags ~rule:"park-pairing" corrupted

let test_check_double_wake () =
  let evs = parse_exn (native_trace ~seed:42 ()) in
  let corrupted = duplicate_first (function E.Wake _ -> true | _ -> false) evs in
  check_flags ~rule:"park-pairing" corrupted

let test_check_unbalanced_slice () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  let corrupted =
    drop_first (function E.Slice_end _ -> true | _ -> false) evs
  in
  check_flags ~rule:"slice-balance" corrupted

let test_check_tampered_reinstate () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  let tampered = ref false in
  let corrupted =
    Array.map
      (fun s ->
        match s.Trace.ev with
        | E.Reinstate { pid; label; size } when not !tampered ->
            tampered := true;
            { s with Trace.ev = E.Reinstate { pid; label; size = size + 7 } }
        | _ -> s)
      evs
  in
  if not !tampered then Alcotest.fail "trace has no reinstate to tamper with";
  check_flags ~rule:"capture-consistency" corrupted

let test_check_seq_gap () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  let n = Array.length evs in
  let corrupted =
    Array.mapi
      (fun i s -> if i = n - 1 then { s with Trace.seq = s.Trace.seq + 1 } else s)
      evs
  in
  check_flags ~rule:"seq-dense" corrupted

(* ---------------- reconstruction ---------------- *)

let test_reconstruct_timelines () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  let runs = Trace.reconstruct evs in
  Alcotest.(check int) "single run" 1 (Array.length runs);
  let run = runs.(0) in
  (* Root node present, with children. *)
  (match Trace.node_of run 0 with
  | Some root ->
      Alcotest.(check int) "root has no parent" (-1) root.Trace.n_parent;
      Alcotest.(check string) "root kind" "root" root.Trace.n_kind;
      Alcotest.(check bool) "root has children" true (root.Trace.n_children <> [])
  | None -> Alcotest.fail "no node for pid 0");
  (* The virtual clock only advances at slice ends, so the slices tile
     the run: their extents sum to the span. *)
  let tiled =
    Array.fold_left
      (fun acc sl -> acc + (sl.Trace.sl_end_ts - sl.Trace.sl_begin_ts))
      0 run.Trace.r_slices
  in
  Alcotest.(check int) "slices tile the span" run.Trace.r_span tiled;
  Alcotest.(check bool) "no deadlock" true (run.Trace.r_deadlock = None)

let test_reconstruct_blocked () =
  let evs = parse_exn (native_trace ~seed:42 ()) in
  let run = (Trace.reconstruct evs).(0) in
  let blocked = Trace.blocked_total run in
  Alcotest.(check bool) "some blocked time attributed" true (blocked <> []);
  List.iter
    (fun (resource, t) ->
      if t < 0 then Alcotest.failf "negative blocked time on %s" resource)
    blocked

(* The fate rules behind psi --summary, on a hand-built run: a cancel
   whose reason mentions "timeout" gives timed-out and any other cancel
   cancelled; restarted > crashed > timed-out/cancelled in either event
   order; only nodes still parked when a cancel hits them count as
   cancelled while parked. *)
let test_reconstruct_fates () =
  let spawn pid =
    if pid = 0 then E.Spawn { pid; parent = -1; kind = "root" }
    else E.Spawn { pid; parent = 0; kind = "branch" }
  in
  let cancel reason pids = E.Cancel { pid = 0; scope = 0; reason; pids } in
  let crash pid = E.Crash { pid; fault = "boom" } in
  let restart child = E.Restart { pid = 0; child; attempt = 1; backoff = 0; limit = 3 } in
  let evs =
    List.init 11 spawn
    @ [
        E.Park { pid = 8; resource = "future" };
        E.Park { pid = 9; resource = "future" };
        E.Wake { pid = 9; resource = "future" };
        cancel "cancel: timeout" [| 1; 4 |];
        crash 3;
        cancel "drop-helper" [| 2; 3; 8; 9 |];
        crash 4;
        restart 5;
        crash 5;
        crash 6;
        restart 6;
        restart 7;
        cancel "timeout" [| 7 |];
        crash (-1);
        E.Exit { pid = 10 };
      ]
    |> List.mapi (fun i ev -> { Trace.seq = i; ts = i; ev })
    |> Array.of_list
  in
  let run = (Trace.reconstruct evs).(0) in
  List.iter
    (fun (pid, want) ->
      match Trace.node_of run pid with
      | Some n -> Alcotest.(check string) (Printf.sprintf "pid %d" pid) want n.Trace.n_fate
      | None -> Alcotest.failf "no node for pid %d" pid)
    [
      (0, "");
      (1, "timed-out");
      (2, "cancelled");
      (3, "crashed");
      (4, "crashed");
      (5, "restarted");
      (6, "restarted");
      (7, "restarted");
      (8, "cancelled");
      (9, "cancelled");
      (10, "");
    ];
  Alcotest.(check int) "only the still-parked node counts" 1 run.Trace.r_cancelled_parked

(* ---------------- causal report ---------------- *)

(* E16 from trace data alone: the E2-style family — [roots] nested
   spawn roots whose innermost body applies the *outermost* controller
   from inside a pcall branch (the fork makes the capture a tree-level
   one), [k] times.  Each capture costs roots+1 control points: the
   [roots] labels climbed plus the one fork. *)
let nested_roots_src roots k =
  let buf = Buffer.create 256 in
  for i = 1 to roots do
    Buffer.add_string buf (Printf.sprintf "(spawn (lambda (c%d) " i)
  done;
  Buffer.add_string buf
    (String.concat " "
       ("(+"
        :: List.init k (fun _ -> "(pcall + 1 (c1 (lambda (k) (k 0))))")
       @ [ ")" ]));
  for _ = 1 to roots do
    Buffer.add_string buf "))"
  done;
  Buffer.contents buf

let test_report_cp_per_capture () =
  List.iter
    (fun roots ->
      let evs = parse_exn (pstack_trace ~seed:1 (nested_roots_src roots 3)) in
      match Analysis.Report.of_trace evs with
      | [ r ] ->
          Alcotest.(check int) "three captures" 3 r.Analysis.Report.r_captures;
          Alcotest.(check (float 0.))
            (Printf.sprintf "cp/capture at %d roots" roots)
            (float_of_int (roots + 1))
            r.Analysis.Report.r_cp_per_capture
      | rs -> Alcotest.failf "expected one run, got %d" (List.length rs))
    [ 1; 2; 4 ]

let test_report_sanity () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  match Analysis.Report.of_trace evs with
  | [ r ] ->
      let open Analysis.Report in
      Alcotest.(check int) "events" (Array.length evs) r.r_events;
      Alcotest.(check bool) "fairness in (0,1]" true
        (r.r_fairness > 0. && r.r_fairness <= 1.);
      (* Utilization sums to <= 1 per process and the critical path is a
         real chain: positive time, bounded by the span, time-ordered. *)
      List.iter
        (fun p ->
          if p.p_util < 0. || p.p_util > 1. then
            Alcotest.failf "pid %d utilization %f out of range" p.p_pid p.p_util)
        r.r_procs;
      Alcotest.(check bool) "critical path non-trivial" true
        (List.length r.r_critical >= 2);
      Alcotest.(check bool) "critical time positive, <= span" true
        (r.r_critical_time > 0 && r.r_critical_time <= r.r_span);
      let rec ordered = function
        | a :: (b :: _ as rest) -> a.h_leave <= b.h_enter + 0 && ordered rest
        | _ -> true
      in
      Alcotest.(check bool) "hops in time order" true (ordered r.r_critical);
      (* The first hop is the run entry: enabled by nothing earlier than
         the root spawn itself. *)
      (match r.r_critical with
      | h :: _ ->
          Alcotest.(check bool) "starts at the root" true
            (h.h_via = "start" || h.h_via = "spawn:root")
      | [] -> ())
  | rs -> Alcotest.failf "expected one run, got %d" (List.length rs)

let test_report_json_deterministic () =
  let report_json seed =
    let evs = parse_exn (pstack_trace ~seed pstack_src) in
    Analysis.Report.of_trace evs
    |> List.map (fun r -> Obs.Json.to_string (Analysis.Report.to_json r))
    |> String.concat "\n"
  in
  let a = report_json 7 and b = report_json 7 in
  Alcotest.(check string) "same seed, byte-identical report" a b;
  match Obs.Json.parse (String.concat "" [ a ]) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "report json does not parse: %s" m

(* ---------------- diff ---------------- *)

(* The ptrace-gen mirrored workload, inlined: the same process tree
   written once in Scheme and once against the native API (the extra
   constant branch mirrors pstack forking the pcall operator). *)
let mirrored_pstack =
  "(let ([f (future (* 3 (+ 2 2)))])\n\
  \  (pcall + (+ 1 2) (touch f) (* 2 (touch f))))"

let mirrored_native () =
  let f = Sched.future (fun () -> 3 * (2 + 2)) in
  let xs =
    Sched.pcall
      [
        (fun () -> 0);
        (fun () -> 1 + 2);
        (fun () -> Sched.touch f);
        (fun () -> 2 * Sched.touch f);
      ]
  in
  List.fold_left ( + ) 0 xs

let test_diff_cross_scheduler () =
  let left = parse_exn (pstack_trace ~seed:1 mirrored_pstack) in
  let right =
    let o, buf = jsonl_handle () in
    ignore
      (Sched.run ~policy:(Sched.Randomized (Int64.of_int 2)) ~obs:o mirrored_native);
    Obs.close o;
    parse_exn (Buffer.contents buf)
  in
  match Analysis.Diff.diff left right with
  | None -> ()
  | Some d ->
      Alcotest.failf "mirrored workloads diverged at run %d cpid %d: %s / %s"
        d.Analysis.Diff.d_run d.Analysis.Diff.d_cpid
        (Option.value ~default:"<end>" d.Analysis.Diff.d_left)
        (Option.value ~default:"<end>" d.Analysis.Diff.d_right)

let test_diff_detects_change () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  (* Same trace: trivially aligned. *)
  (match Analysis.Diff.diff evs evs with
  | None -> ()
  | Some _ -> Alcotest.fail "a trace diverged from itself");
  (* Drop the last exit: one pid's causal stream ends early. *)
  let n = Array.length evs in
  let last_exit = ref (-1) in
  Array.iteri
    (fun i s -> match s.Trace.ev with E.Exit _ -> last_exit := i | _ -> ())
    evs;
  if !last_exit < 0 then Alcotest.fail "no exit in trace";
  let shorter =
    reindex
      (Array.of_list
         (List.filteri (fun i _ -> i <> !last_exit) (Array.to_list evs)))
  in
  ignore n;
  match Analysis.Diff.diff evs shorter with
  | Some d ->
      Alcotest.(check bool) "one side ended" true
        (d.Analysis.Diff.d_left = None || d.Analysis.Diff.d_right = None
        || d.Analysis.Diff.d_left <> d.Analysis.Diff.d_right)
  | None -> Alcotest.fail "dropped exit not detected"

(* ---------------- batched graft announcements ---------------- *)

(* The unbatched twin of a trace: every spawn-batch expanded into the
   equivalent individual spawns, in the batch's pre-order, with seq
   renumbered.  Batching is purely an encoding choice, so the twin must
   be indistinguishable to both the checker and the diff. *)
let expand_batches evs =
  Array.to_list evs
  |> List.concat_map (fun s ->
         match s.Trace.ev with
         | E.Spawn_batch { kind; nodes; _ } ->
             Array.to_list nodes
             |> List.map (fun (pid, parent) ->
                    { s with Trace.ev = E.Spawn { pid; parent; kind } })
         | _ -> [ s ])
  |> Array.of_list |> reindex

let batches_of evs =
  Array.to_list evs
  |> List.filter_map (fun s ->
         match s.Trace.ev with
         | E.Spawn_batch { pid; kind; nodes } -> Some (pid, kind, nodes)
         | _ -> None)

let test_batched_grafts_check () =
  (* Both schedulers announce grafts as one pre-order batch; the batched
     traces — and their expanded twins — still pass every rule. *)
  Alcotest.(check int) "thirteen rules" 13 (List.length Analysis.Check.rules);
  List.iter
    (fun (who, trace) ->
      let evs = parse_exn trace in
      let bs = batches_of evs in
      Alcotest.(check bool) (who ^ " grafts are batched") true (bs <> []);
      List.iter
        (fun (pid, kind, nodes) ->
          Alcotest.(check string) "batch kind" "graft" kind;
          Alcotest.(check bool) "batch non-empty" true (Array.length nodes > 0);
          (* pre-order: each node hangs off the grafting pid or an
             earlier node of the same batch *)
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun (child, parent) ->
              if parent <> pid && not (Hashtbl.mem seen parent) then
                Alcotest.failf "node %d grafted under unknown parent %d" child
                  parent;
              Hashtbl.replace seen child ())
            nodes)
        bs;
      Alcotest.(check int)
        (who ^ " batched trace clean")
        0
        (List.length (Analysis.Check.run evs));
      Alcotest.(check int)
        (who ^ " expanded twin clean")
        0
        (List.length (Analysis.Check.run (expand_batches evs))))
    [
      ("pstack", pstack_trace ~seed:42 pstack_src);
      ("native", native_trace ~seed:42 ());
    ]

let test_spawn_batch_round_trip () =
  let evs = parse_exn (pstack_trace ~seed:42 pstack_src) in
  let checked = ref 0 in
  Array.iter
    (fun s ->
      match s.Trace.ev with
      | E.Spawn_batch _ ->
          incr checked;
          let line = Obs.Json.to_string (Trace.to_json s) ^ "\n" in
          let reparsed = parse_exn line in
          Alcotest.(check int) "one event" 1 (Array.length reparsed);
          Alcotest.(check string) "spawn-batch line round-trips" line
            (Obs.Json.to_string (Trace.to_json reparsed.(0)) ^ "\n")
      | _ -> ())
    evs;
  Alcotest.(check bool) "trace carries spawn-batch lines" true (!checked > 0)

let test_diff_batch_vs_expanded () =
  (* The skeleton expands batches into the same per-node facts as the
     individual spawns would produce, so a batched trace and its
     unbatched twin never diverge — on either scheduler. *)
  List.iter
    (fun (who, trace) ->
      let evs = parse_exn trace in
      match Analysis.Diff.diff evs (expand_batches evs) with
      | None -> ()
      | Some d ->
          Alcotest.failf "%s: batching changed the skeleton at cpid %d: %s / %s"
            who d.Analysis.Diff.d_cpid
            (Option.value ~default:"<end>" d.Analysis.Diff.d_left)
            (Option.value ~default:"<end>" d.Analysis.Diff.d_right))
    [
      ("pstack", pstack_trace ~seed:42 pstack_src);
      ("native", native_trace ~seed:42 ());
    ]

(* Mirrored graft workloads: the same capture-then-reinstate tree, once
   in Scheme and once against the native API (the constant branch again
   mirrors pstack forking the pcall operator). *)
let mirrored_graft_pstack =
  "(spawn (lambda (c) (pcall + (c (lambda (k) (k 1))) 2)))"

let mirrored_graft_native () =
  Sched.spawn (fun c ->
      let xs =
        Sched.pcall
          [
            (fun () -> 0);
            (fun () -> Sched.control c (fun pk -> Sched.resume pk 1));
            (fun () -> 2);
          ]
      in
      List.fold_left ( + ) 0 xs)

let test_diff_cross_scheduler_batched () =
  let left = parse_exn (pstack_trace ~seed:1 mirrored_graft_pstack) in
  let right =
    let o, buf = jsonl_handle () in
    ignore
      (Sched.run
         ~policy:(Sched.Randomized (Int64.of_int 2))
         ~obs:o mirrored_graft_native);
    Obs.close o;
    parse_exn (Buffer.contents buf)
  in
  Alcotest.(check bool) "left grafts batched" true (batches_of left <> []);
  Alcotest.(check bool) "right grafts batched" true (batches_of right <> []);
  (* The two schedulers legitimately differ in tree granularity here —
     native materializes process/controller nodes where pstack captures
     and reinstates in-node — so the diff reports a real divergence.
     What batching must guarantee is that the outcome is the *same* no
     matter which side (if any) batches its grafts: the skeleton cannot
     tell a batched trace from its unbatched twin. *)
  let outcome l r =
    match Analysis.Diff.diff l r with
    | None -> None
    | Some d -> Some Analysis.Diff.(d.d_cpid, d.d_left, d.d_right)
  in
  let xl = expand_batches left and xr = expand_batches right in
  let base = outcome xl xr in
  Alcotest.(check bool) "batched left agrees" true (outcome left xr = base);
  Alcotest.(check bool) "batched right agrees" true (outcome xl right = base);
  Alcotest.(check bool) "batched both agrees" true (outcome left right = base)

(* ---------------- round-trip ---------------- *)

let test_to_json_round_trip () =
  let trace = pstack_trace ~seed:42 pstack_src in
  let evs = parse_exn trace in
  let rebuilt =
    Array.to_list evs
    |> List.map (fun s -> Obs.Json.to_string (Trace.to_json s) ^ "\n")
    |> String.concat ""
  in
  Alcotest.(check string) "parse then re-serialize is identity" trace rebuilt

(* ---------------- integer range ---------------- *)

(* The writer prints integers exactly only below 1e15 in magnitude, so
   that is all a reader accepts: a larger number is an error naming its
   field, never an int_of_float outside int's range. *)
let test_out_of_range_rejected () =
  let parse line = Trace.parse_string (line ^ "\n") in
  List.iter
    (fun (line, want) ->
      match parse line with
      | Ok _ -> Alcotest.failf "%s parsed" line
      | Error m -> Alcotest.(check string) line want m)
    [
      ( {|{"seq":0,"ts":0,"ev":"spawn","pid":1e30,"parent":-1,"kind":"root"}|},
        {|line 1: field "pid" is out of range|} );
      ( {|{"seq":0,"ts":1e19,"ev":"slice-end","pid":0,"fuel":1e19}|},
        {|line 1: field "ts" is out of range|} );
      ({|{"seq":0,"ts":0,"ev":"exit","pid":1000000000000000}|}, {|line 1: field "pid" is out of range|});
      ( {|{"seq":0,"ts":0,"ev":"cancel","pid":0,"scope":0,"reason":"r","pids":[1,-1e15]}|},
        {|line 1: field "pids" is out of range|} );
      ( {|{"seq":0,"ts":0,"ev":"spawn-batch","pid":0,"kind":"graft","nodes":[[1,0],[2,1e16]]}|},
        {|line 1: field "nodes" is out of range|} );
      ({|{"seq":0,"ts":0,"ev":"exit","pid":1.5}|}, {|line 1: field "pid" is not an integer|});
    ];
  match parse {|{"seq":0,"ts":999999999999999,"ev":"exit","pid":-999999999999999}|} with
  | Ok [| { Trace.ts = 999_999_999_999_999; ev = E.Exit { pid = -999_999_999_999_999 }; _ } |] ->
      ()
  | Ok _ -> Alcotest.fail "boundary values misread"
  | Error m -> Alcotest.failf "boundary values rejected: %s" m

let () =
  Alcotest.run "trace"
    [
      ( "check",
        [
          Alcotest.test_case "clean pstack trace" `Quick test_check_clean_pstack;
          Alcotest.test_case "clean native trace" `Quick test_check_clean_native;
          Alcotest.test_case "dropped wake" `Quick test_check_dropped_wake;
          Alcotest.test_case "double wake" `Quick test_check_double_wake;
          Alcotest.test_case "unbalanced slice" `Quick test_check_unbalanced_slice;
          Alcotest.test_case "tampered reinstate" `Quick test_check_tampered_reinstate;
          Alcotest.test_case "seq gap" `Quick test_check_seq_gap;
          Alcotest.test_case "batched grafts pass all rules" `Quick
            test_batched_grafts_check;
        ] );
      ( "reconstruct",
        [
          Alcotest.test_case "timelines" `Quick test_reconstruct_timelines;
          Alcotest.test_case "blocked time" `Quick test_reconstruct_blocked;
          Alcotest.test_case "fate rules" `Quick test_reconstruct_fates;
          Alcotest.test_case "jsonl round-trip" `Quick test_to_json_round_trip;
          Alcotest.test_case "spawn-batch round-trip" `Quick
            test_spawn_batch_round_trip;
          Alcotest.test_case "out-of-range integers rejected" `Quick
            test_out_of_range_rejected;
        ] );
      ( "report",
        [
          Alcotest.test_case "cp per capture = roots+1" `Quick
            test_report_cp_per_capture;
          Alcotest.test_case "profile sanity" `Quick test_report_sanity;
          Alcotest.test_case "json deterministic" `Quick
            test_report_json_deterministic;
        ] );
      ( "diff",
        [
          Alcotest.test_case "cross-scheduler aligned" `Quick
            test_diff_cross_scheduler;
          Alcotest.test_case "detects injected change" `Quick
            test_diff_detects_change;
          Alcotest.test_case "batch vs expanded twin" `Quick
            test_diff_batch_vs_expanded;
          Alcotest.test_case "cross-scheduler batched grafts" `Quick
            test_diff_cross_scheduler_batched;
        ] );
    ]
