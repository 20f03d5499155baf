(* Tests for the fault-tolerance layer (lib/resil): cancellation
   scopes, finalizer ordering, virtual-time timeouts, supervision with
   restart-intensity windows — plus the trace side: the three new
   Analysis.Check rules pass on clean traces from both schedulers and
   each fails on a corrupted or injected trace, and Trace.reconstruct
   assigns the cancelled/crashed/restarted fates. *)

module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Interp = Pcont_syntax.Interp
module Concur = Pcont_pstack.Concur
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Resil = Pcont_resil.Resil

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Run a native program with a trace buffer attached. *)
let native_trace prog =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let v = Sched.run ~obs:o prog in
  Obs.close o;
  (v, Buffer.contents buf)

let parse_exn txt =
  match Trace.parse_string txt with
  | Ok evs -> evs
  | Error m -> Alcotest.failf "trace parse: %s" m

let rules violations =
  List.sort_uniq compare
    (List.map (fun v -> v.Analysis.Check.v_rule) violations)

(* ---------------- scopes ------------------------------------------- *)

let test_scope_outcomes () =
  let ok, crashed =
    Sched.run (fun () ->
        let ok = Resil.Scope.run (Resil.Scope.make ()) (fun () -> 41 + 1) in
        let crashed =
          Resil.Scope.run (Resil.Scope.make ()) (fun () -> failwith "boom")
        in
        (ok, crashed))
  in
  Alcotest.(check bool) "ok" true (ok = Ok 42);
  (match crashed with
  | Error (Resil.Crashed m) ->
      Alcotest.(check bool) "crash message" true (contains ~needle:"boom" m)
  | _ -> Alcotest.fail "expected Error (Crashed _)")

let test_finalizer_ordering () =
  (* Finalizers run newest first, exactly once, on every exit path —
     completion, crash, and cancellation alike. *)
  let order path mk =
    let log = ref [] in
    let _ =
      Sched.run (fun () ->
          Resil.Scope.with_scope (fun sc ->
              Resil.Scope.on_exit sc (fun () -> log := "first" :: !log);
              Resil.Scope.on_exit sc (fun () -> log := "second" :: !log);
              (* a raising finalizer must not mask the others *)
              Resil.Scope.on_exit sc (fun () -> failwith "ignored");
              mk sc))
    in
    Alcotest.(check (list string)) path [ "first"; "second" ] !log
  in
  order "completion" (fun _ -> ());
  order "crash" (fun _ -> failwith "boom");
  order "cancellation" (fun sc ->
      Resil.Scope.cancel sc ~reason:"self";
      Sched.block (Sched.Waitset.create "never"))

let test_cancel_propagates_to_children () =
  let v =
    Sched.run (fun () ->
        let parent = Resil.Scope.make () in
        let child_out = ref None in
        let (), () =
          Sched.pcall2
            (fun () ->
              let sc = Resil.Scope.make ~parent () in
              child_out :=
                Some
                  (Resil.Scope.run sc (fun () ->
                       Sched.block (Sched.Waitset.create "forever"))))
            (fun () ->
              Sched.yield ();
              Resil.Scope.cancel parent ~reason:"shutdown")
        in
        !child_out)
  in
  (match v with
  | Some (Error (Resil.Cancelled r)) ->
      Alcotest.(check string) "reason" "shutdown" r
  | _ -> Alcotest.fail "expected child cancelled via parent");
  (* A parent prunes its finished children as it adopts more; the
     cancel still reaches a live child among hundreds of finished ones,
     and a grandchild made under a child that has already finished. *)
  let outcomes =
    Sched.run (fun () ->
        let parent = Resil.Scope.make () in
        let child = Resil.Scope.make ~parent () in
        ignore (Resil.Scope.run child ignore);
        let grandchild = Resil.Scope.make ~parent:child () in
        let live = Resil.Scope.make ~parent () in
        for _ = 1 to 500 do
          ignore (Resil.with_timeout ~parent 1_000 ignore)
        done;
        let park sc () = Resil.Scope.run sc (fun () -> Sched.block (Sched.Waitset.create "forever")) in
        let cancel () =
          Sched.yield ();
          Resil.Scope.cancel parent ~reason:"shutdown";
          Ok ()
        in
        Sched.pcall [ park grandchild; park live; cancel ])
  in
  Alcotest.(check (list string)) "grandchild and live child cancelled"
    [ "cancelled: shutdown"; "cancelled: shutdown"; "ok" ]
    (List.map (function Ok () -> "ok" | Error f -> Resil.failure_to_string f) outcomes)

let test_own_channel_closed_on_cancel () =
  (* A consumer outside the scope must observe end-of-stream, not
     deadlock, when the owning scope is cancelled. *)
  let drained =
    Sched.run (fun () ->
        let ch = Channel.create ~capacity:4 () in
        let consumer, _ =
          Sched.pcall2
            (fun () ->
              let n = ref 0 in
              Channel.iter (fun _ -> incr n) ch;
              !n)
            (fun () ->
              let sc = Resil.Scope.make () in
              let r =
                Resil.Scope.run sc (fun () ->
                    Resil.Scope.own_channel sc ch;
                    Channel.send ch 1;
                    Channel.send ch 2;
                    Resil.Scope.cancel sc ~reason:"stop";
                    Sched.sleep 1_000)
              in
              (match r with
              | Error (Resil.Cancelled _) -> ()
              | _ -> Alcotest.fail "expected the producer scope cancelled");
              0)
        in
        consumer)
  in
  Alcotest.(check int) "values before close" 2 drained

(* ---------------- timeouts ----------------------------------------- *)

let test_with_timeout () =
  let fast, slow =
    Sched.run (fun () ->
        let fast =
          Resil.with_timeout 50 (fun () ->
              Sched.sleep 5;
              "fast")
        in
        let slow =
          Resil.with_timeout 5 (fun () ->
              Sched.sleep 50;
              "slow")
        in
        (fast, slow))
  in
  Alcotest.(check bool) "fast wins" true (fast = Ok "fast");
  (match slow with
  | Error (Resil.Cancelled "timeout") -> ()
  | _ -> Alcotest.fail "expected Cancelled timeout");
  (* and the trace carries the Timeout/Cancel pair *)
  let _, trace =
    native_trace (fun () ->
        Resil.with_timeout 5 (fun () -> Sched.sleep 50))
  in
  let evs = parse_exn trace in
  let has p = Array.exists (fun (s : Trace.stamped) -> p s.Trace.ev) evs in
  Alcotest.(check bool) "Timeout event" true
    (has (function E.Timeout _ -> true | _ -> false));
  Alcotest.(check bool) "Cancel event" true
    (has (function E.Cancel _ -> true | _ -> false))

let test_native_virtual_timers () =
  (* quiescence jumps the clock to the earliest deadline; sleepers wake
     in deadline order *)
  let t = Sched.run (fun () -> Sched.sleep 100; Sched.now ()) in
  Alcotest.(check int) "clock jumped" 100 t;
  let log = ref [] in
  Sched.run (fun () ->
      ignore
        (Sched.pcall
           [
             (fun () -> Sched.sleep 50; log := "b" :: !log; 0);
             (fun () -> Sched.sleep 10; log := "a" :: !log; 0);
           ]));
  Alcotest.(check (list string)) "deadline order" [ "a"; "b" ] (List.rev !log)

let eval_pstack src =
  let t = Interp.create () in
  ignore (Interp.take_output ());
  let rs = Interp.eval_string ~mode:(Interp.Concurrent Concur.Round_robin) t src in
  ignore (Interp.take_output ());
  String.concat "; " (List.map Interp.result_to_string rs)

let test_pstack_virtual_timers () =
  (* the interpreter's scheduler has the same timer wheel: sleep parks,
     quiescence jumps the fuel-metered clock *)
  Alcotest.(check bool) "sleep then value" true
    (contains ~needle:"42" (eval_pstack "(begin (sleep 100) 42)"));
  (* the paper's timeout idiom: the timer branch captures the slow
     branch with the spawn controller and declines to reinstate it *)
  let r =
    eval_pstack
      "(spawn (lambda (c)\n\
      \  (pcall list\n\
      \    (begin (sleep 1000) 'slow)\n\
      \    (begin (sleep 5) (c (lambda (pk) 'timed-out))))))"
  in
  Alcotest.(check bool) "timer cancels slow branch" true
    (contains ~needle:"timed-out" r)

(* Sleepers that share one deadline wake in park (FIFO) order on both
   schedulers: the timer heap breaks deadline ties by park sequence.
   Each sleeper first does a different amount of work, so park order is
   not tree order. *)
let work = [| 0; 5; 2; 7; 4; 1; 6; 3 |]

let timer_events evs =
  let pick f = List.filter_map f (Array.to_list evs) in
  ( pick (fun (s : Trace.stamped) ->
        match s.ev with E.Park { pid; resource = "timer" } -> Some (pid, s.ts) | _ -> None),
    pick (fun (s : Trace.stamped) ->
        match s.ev with E.Wake { pid; resource = "timer" } -> Some (pid, s.ts) | _ -> None) )

let check_fifo_wakes ~deadline evs =
  let parks, wakes = timer_events evs in
  Alcotest.(check int) "every sleeper parked" (Array.length work) (List.length parks);
  let parked = List.map fst parks in
  Alcotest.(check bool) "park order is not tree order" true
    (parked <> List.sort compare parked);
  Alcotest.(check (list int)) "wakes in park order" parked (List.map fst wakes);
  Alcotest.(check (list int)) "one shared deadline"
    (List.map (fun _ -> deadline) wakes)
    (List.map snd wakes);
  parked

let test_native_equal_deadlines () =
  let log = ref [] in
  let pids = ref [] in
  let _, trace =
    native_trace (fun () ->
        ignore
          (Sched.pcall
             (List.init (Array.length work) (fun i () ->
                  pids := (Sched.self_pid (), i) :: !pids;
                  for _ = 1 to work.(i) do
                    Sched.yield ()
                  done;
                  Sched.sleep (1_000 - Sched.now ());
                  log := i :: !log))))
  in
  let parked = check_fifo_wakes ~deadline:1_000 (parse_exn trace) in
  Alcotest.(check (list int)) "run in park order"
    (List.map (fun pid -> List.assoc pid !pids) parked)
    (List.rev !log)

let test_pstack_equal_deadlines () =
  (* The Scheme side has no clock to read, so a first run with a far
     deadline finds when each sleeper parks; the second gives sleeper i
     [deadline - park time] so that all deadlines coincide. *)
  let run sleeps =
    let t = Interp.create () in
    ignore
      (Interp.eval_string t "(define (spin n) (if (= n 0) 0 (spin (- n 1))))");
    let src =
      "(pcall list "
      ^ String.concat " "
          (List.mapi
             (fun i d ->
               Printf.sprintf "(begin (spin %d) (sleep %d) (display %d))" (10 * work.(i)) d i)
             sleeps)
      ^ ")"
    in
    ignore (Interp.take_output ());
    let buf = Buffer.create 1024 in
    let o = Obs.create () in
    Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
    let mode = Interp.Concurrent Concur.Round_robin in
    ignore (Interp.eval_string ~mode ~quantum:4 ~obs:o t src);
    Obs.close o;
    (parse_exn (Buffer.contents buf), Interp.take_output ())
  in
  let evs, _ = run (List.map (fun _ -> 100_000) (Array.to_list work)) in
  let parks, _ = timer_events evs in
  (* pcall children are pids 1.., the operator first *)
  let index pid = pid - 2 in
  let deadline = 10_000 in
  let sleeps = Array.make (Array.length work) 0 in
  List.iter (fun (pid, ts) -> sleeps.(index pid) <- deadline - ts) parks;
  let evs, out = run (Array.to_list sleeps) in
  Alcotest.(check (list (pair int int))) "same park times" parks (fst (timer_events evs));
  let parked = check_fifo_wakes ~deadline evs in
  Alcotest.(check string) "run in park order"
    (String.concat "" (List.map (fun pid -> string_of_int (index pid)) parked))
    out

(* Sleepers wake in (deadline, park order) however many dead entries
   the timer heap drops around them.  150 scopes time out and leave
   their bodies' sleeps dead in the heap, due among the deadlines of 50
   sleepers that park at once; then 400 more sleepers, held on a gate
   until every scope is done, fill the heap, which drops the dead
   entries just before everything wakes. *)
let test_wake_order_across_dead_timers () =
  let deadline i = 10_000 + (i * 7919 mod 997) in
  let sleep_to i = Sched.sleep (deadline i - Sched.now ()) in
  let log = ref [] in
  Sched.run (fun () ->
      let gate = Sched.Waitset.create "gate" and opened = ref false in
      let fiber i () =
        if i < 150 then ignore (Resil.with_timeout 5 (fun () -> sleep_to i))
        else if i < 600 then begin
          while i >= 200 && not !opened do
            Sched.block gate
          done;
          sleep_to i;
          log := i :: !log
        end
        else begin
          Sched.sleep 5_000;
          opened := true;
          Sched.wake gate
        end
      in
      ignore (Sched.pcall (List.init 601 fiber)));
  let park_order i = (deadline i, i >= 200, i) in
  Alcotest.(check (list int)) "wakes in (deadline, park order)"
    (List.sort (fun a b -> compare (park_order a) (park_order b)) (List.init 450 (( + ) 150)))
    (List.rev !log)

(* ---------------- supervision -------------------------------------- *)

let test_restart_intensity () =
  (* a child that always crashes: the supervisor restarts it
     [max_restarts] times with exponential backoff, then gives up *)
  let max_restarts = 3 and backoff = 2 in
  let (r, t_end), trace =
    native_trace (fun () ->
        let r =
          Resil.Supervisor.supervise ~max_restarts ~window:10_000 ~backoff
            [ Resil.Supervisor.child ~name:"bad" (fun () -> failwith "boom") ]
        in
        (r, Sched.now ()))
  in
  (match r with
  | Error (Resil.Crashed m) ->
      Alcotest.(check bool) "failure is the child's" true
        (contains ~needle:"boom" m)
  | _ -> Alcotest.fail "expected the supervisor to give up with the crash");
  let evs = parse_exn trace in
  let restarts =
    Array.to_list evs
    |> List.filter_map (fun (s : Trace.stamped) ->
           match s.Trace.ev with
           | E.Restart { attempt; backoff = b; limit; _ } ->
               Some (attempt, b, limit)
           | _ -> None)
  in
  Alcotest.(check int) "restart count" max_restarts (List.length restarts);
  List.iteri
    (fun i (attempt, b, limit) ->
      Alcotest.(check int) "attempt number" (i + 1) attempt;
      Alcotest.(check int) "exponential backoff" (backoff * (1 lsl i)) b;
      Alcotest.(check int) "declared limit" max_restarts limit)
    restarts;
  (* the backoffs happened in virtual time *)
  Alcotest.(check bool) "clock advanced past the backoffs" true
    (t_end >= backoff * ((1 lsl max_restarts) - 1));
  Alcotest.(check (list string)) "trace passes every rule" []
    (rules (Analysis.Check.run evs))

let test_one_for_all () =
  let crashes = ref 0 in
  let log = ref [] in
  let r =
    Sched.run (fun () ->
        Resil.Supervisor.supervise ~strategy:Resil.Supervisor.One_for_all
          ~max_restarts:2 ~window:10_000 ~backoff:2
          [
            Resil.Supervisor.child ~name:"flaky" (fun () ->
                if !crashes = 0 then begin
                  incr crashes;
                  failwith "first attempt"
                end
                else log := "flaky-ok" :: !log);
            Resil.Supervisor.child ~name:"steady" (fun () ->
                Sched.sleep 50;
                log := "steady-ok" :: !log);
          ])
  in
  Alcotest.(check bool) "recovered" true (r = Ok ());
  Alcotest.(check int) "one crash" 1 !crashes;
  (* the steady sibling was cancelled mid-sleep and restarted, so it
     completes exactly once *)
  Alcotest.(check int) "steady completed once" 1
    (List.length (List.filter (String.equal "steady-ok") !log));
  Alcotest.(check int) "flaky retry completed" 1
    (List.length (List.filter (String.equal "flaky-ok") !log))

(* ---------------- the three new Check rules ------------------------ *)

(* A clean supervised run with a crash, a restart and a timeout: every
   rule passes on it, and it is the donor trace the corruption tests
   mutate. *)
let donor_trace () =
  let crashes = ref 0 in
  let _, trace =
    native_trace (fun () ->
        let sup =
          Resil.Supervisor.supervise ~max_restarts:2 ~window:10_000 ~backoff:2
            [
              Resil.Supervisor.child ~name:"flaky" (fun () ->
                  if !crashes = 0 then begin
                    incr crashes;
                    failwith "boom"
                  end);
            ]
        in
        let timed =
          Resil.with_timeout 5 (fun () ->
              ignore
                (Sched.pcall
                   [
                     (fun () -> Sched.sleep 1_000; 0);
                     (fun () -> Sched.sleep 2_000; 0);
                   ]))
        in
        (sup, timed))
  in
  parse_exn trace

let test_clean_traces_pass () =
  Alcotest.(check (list string)) "native resil trace" []
    (rules (Analysis.Check.run (donor_trace ())));
  (* and the pstack scheduler's timer traces satisfy the same rule set *)
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let t = Interp.create () in
  ignore
    (Interp.eval_string ~mode:(Interp.Concurrent Concur.Round_robin) ~obs:o t
       "(pcall + (begin (sleep 30) 1) (begin (sleep 10) 2))");
  Obs.close o;
  ignore (Interp.take_output ());
  Alcotest.(check (list string)) "pstack timer trace" []
    (rules (Analysis.Check.run (parse_exn (Buffer.contents buf))))

let test_cancel_propagation_rule () =
  (* drop one swept pid from a Cancel event: the checker must notice the
     survivor — a live descendant of a cancelled scope *)
  let evs = donor_trace () in
  let corrupted = ref false in
  let evs' =
    Array.map
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with
        | E.Cancel { pid; scope; reason; pids }
          when (not !corrupted) && Array.length pids > 1 ->
            corrupted := true;
            {
              st with
              Trace.ev =
                E.Cancel
                  {
                    pid;
                    scope;
                    reason;
                    pids = Array.sub pids 0 (Array.length pids - 1);
                  };
            }
        | _ -> st)
      evs
  in
  Alcotest.(check bool) "found a Cancel to corrupt" true !corrupted;
  Alcotest.(check bool) "rule fires" true
    (List.mem "cancel-propagation-complete" (rules (Analysis.Check.run evs')))

let test_restart_intensity_rule () =
  (* claim an attempt beyond the declared limit *)
  let evs = donor_trace () in
  let corrupted = ref false in
  let evs' =
    Array.map
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with
        | E.Restart { pid; child; backoff; limit; _ } when not !corrupted ->
            corrupted := true;
            {
              st with
              Trace.ev =
                E.Restart { pid; child; attempt = limit + 1; backoff; limit };
            }
        | _ -> st)
      evs
  in
  Alcotest.(check bool) "found a Restart to corrupt" true !corrupted;
  Alcotest.(check bool) "rule fires" true
    (List.mem "restart-intensity-bounded" (rules (Analysis.Check.run evs')))

let test_no_orphan_waiters_rule () =
  (* the injected leak: a helper parked in its own future tree is out of
     reach of the abort that cancels its planting fiber, so it ends the
     trace parked under a dead ancestor *)
  let v, trace =
    native_trace (fun () ->
        Sched.spawn (fun c ->
            let ws = Sched.Waitset.create "orphan" in
            let _h : int Sched.future =
              Sched.future (fun () ->
                  Sched.block ws;
                  0)
            in
            Sched.yield ();
            Sched.abort c ~reason:"drop-helper" (fun () -> 7)))
  in
  Alcotest.(check int) "run still delivers a value" 7 v;
  Alcotest.(check (list string)) "only the orphan rule fires"
    [ "no-orphan-waiters" ]
    (rules (Analysis.Check.run (parse_exn trace)))

(* ---------------- residency ---------------------------------------- *)

(* Live heap words after two full collections. *)
let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Live words per fiber parked by [park]: one pcall of 2,000 parking
   branches and a last branch that lets them settle and counts, less
   the same run with no parkers.  Fiber stacks live outside the heap
   and are not counted. *)
let residency park =
  let n = 2_000 in
  let count n =
    let w = ref 0 in
    Sched.run (fun () ->
        let measure () =
          for _ = 1 to 8 do
            Sched.yield ()
          done;
          w := live_words ()
        in
        ignore (Sched.pcall (List.init n (fun _ () -> park ()) @ [ measure ])));
    !w
  in
  float_of_int (count n - count 0) /. float_of_int n

let far = 1_000_000

(* Live words left by [n] finished scopes, each run by [scope parent]
   in turn under one live parent scope. *)
let left_by n scope =
  let w = ref 0 in
  Sched.run (fun () ->
      let parent = Resil.Scope.make () in
      for _ = 1 to n do
        scope parent
      done;
      w := live_words ();
      ignore (Sys.opaque_identity parent));
  !w

(* Finished scopes leave nothing that grows with their number: not
   their timers' dead heap entries, whose deadlines are still far off,
   nor their records in a live parent's list of children. *)
let test_finished_scopes_released () =
  let flat name scope =
    let grown = left_by 20_000 scope - left_by 2_000 scope in
    if grown > 1_000 then
      Alcotest.failf "%s: %d more live words after 18,000 more scopes" name grown
  in
  flat "far deadlines" (fun _ ->
      ignore (Resil.with_deadline ~at:(Sched.now () + far) Sched.yield));
  flat "children of a live parent" (fun parent ->
      ignore (Resil.with_timeout ~parent far Sched.yield))

(* What a parked request keeps alive, bare and inside a scope.  The
   bounds are the counts on OCaml 5.1 plus a few words of slack for
   other compilers; a change may only lower them. *)
let test_parked_residency () =
  let pin name bound park =
    let w = residency park in
    if w > bound then Alcotest.failf "%s: %.1f live words per parked fiber, bound %.0f" name w bound
  in
  pin "bare sleep" 38. (fun () -> Sched.sleep far);
  pin "Scope.run" 131. (fun () ->
      ignore (Resil.Scope.run (Resil.Scope.make ()) (fun () -> Sched.sleep far)));
  pin "with_deadline" 160. (fun () ->
      ignore (Resil.with_deadline ~at:(Sched.now () + (2 * far)) (fun () -> Sched.sleep far)))

(* ---------------- summary fates ------------------------------------ *)

let test_summary_fates () =
  let crashes = ref 0 in
  let _, trace =
    native_trace (fun () ->
        let sup =
          Resil.Supervisor.supervise ~max_restarts:2 ~window:10_000 ~backoff:2
            [
              Resil.Supervisor.child ~name:"flaky" (fun () ->
                  if !crashes = 0 then begin
                    incr crashes;
                    failwith "boom"
                  end);
            ]
        in
        let timed = Resil.with_timeout 5 (fun () -> Sched.sleep 1_000) in
        (sup, timed))
  in
  let run = (Trace.reconstruct (parse_exn trace)).(0) in
  let fates =
    List.sort_uniq compare
      (List.filter_map
         (fun n -> if n.Trace.n_fate = "" then None else Some n.Trace.n_fate)
         (Array.to_list run.Trace.r_nodes))
  in
  List.iter
    (fun fate ->
      Alcotest.(check bool) (fate ^ " present") true (List.mem fate fates))
    [ "cancelled"; "crashed"; "restarted" ];
  Alcotest.(check bool) "cancelled-while-parked counted" true
    (run.Trace.r_cancelled_parked >= 1)

let () =
  Alcotest.run "resil"
    [
      ( "scope",
        [
          Alcotest.test_case "outcomes" `Quick test_scope_outcomes;
          Alcotest.test_case "finalizer ordering" `Quick test_finalizer_ordering;
          Alcotest.test_case "cancel propagates down" `Quick
            test_cancel_propagates_to_children;
          Alcotest.test_case "owned channel closes" `Quick
            test_own_channel_closed_on_cancel;
        ] );
      ( "timers",
        [
          Alcotest.test_case "with_timeout" `Quick test_with_timeout;
          Alcotest.test_case "native virtual timers" `Quick
            test_native_virtual_timers;
          Alcotest.test_case "pstack virtual timers" `Quick
            test_pstack_virtual_timers;
          Alcotest.test_case "native equal deadlines FIFO" `Quick
            test_native_equal_deadlines;
          Alcotest.test_case "pstack equal deadlines FIFO" `Quick
            test_pstack_equal_deadlines;
          Alcotest.test_case "wake order across dead timers" `Quick
            test_wake_order_across_dead_timers;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "restart intensity" `Quick test_restart_intensity;
          Alcotest.test_case "one-for-all" `Quick test_one_for_all;
        ] );
      ( "check-rules",
        [
          Alcotest.test_case "clean traces pass" `Quick test_clean_traces_pass;
          Alcotest.test_case "cancel-propagation-complete" `Quick
            test_cancel_propagation_rule;
          Alcotest.test_case "restart-intensity-bounded" `Quick
            test_restart_intensity_rule;
          Alcotest.test_case "no-orphan-waiters" `Quick
            test_no_orphan_waiters_rule;
        ] );
      ( "summary",
        [ Alcotest.test_case "fates rendered" `Quick test_summary_fates ] );
      ( "residency",
        [
          Alcotest.test_case "parked fiber words" `Quick test_parked_residency;
          Alcotest.test_case "finished scopes released" `Quick
            test_finished_scopes_released;
        ] );
    ]
