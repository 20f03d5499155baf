(* Tests for the native tree-structured concurrency scheduler:
   pcall forking, cross-fiber capture and grafting, the Section 5 derived
   operators, and schedule independence. *)

module S = Pcont_sched.Sched
module Ops = Pcont_sched.Ops

(* ---------------- run / pcall ---------------- *)

let test_run_trivial () = Alcotest.(check int) "value" 5 (S.run (fun () -> 5))

let test_run_exception () =
  match S.run (fun () -> raise Exit) with
  | (_ : int) -> Alcotest.fail "expected exception"
  | exception Exit -> ()

let test_pcall_values () =
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ]
    (S.run (fun () -> S.pcall [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]));
  Alcotest.(check (list int)) "empty" [] (S.run (fun () -> S.pcall []));
  let a, b = S.run (fun () -> S.pcall2 (fun () -> "x") (fun () -> 9)) in
  Alcotest.(check string) "fst" "x" a;
  Alcotest.(check int) "snd" 9 b

let test_pcall_nested () =
  let r =
    S.run (fun () ->
        let rec tsum lo hi =
          if lo = hi then lo
          else
            let mid = (lo + hi) / 2 in
            match S.pcall [ (fun () -> tsum lo mid); (fun () -> tsum (mid + 1) hi) ] with
            | [ a; b ] -> a + b
            | _ -> assert false
        in
        tsum 1 100)
  in
  Alcotest.(check int) "tree sum" 5050 r

let test_pcall_branch_exception () =
  match
    S.run (fun () -> S.pcall [ (fun () -> 1); (fun () -> raise Exit) ])
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Exit -> ()

let test_yield_interleaves () =
  (* Two branches record their steps; with yields, the trace alternates. *)
  let trace = ref [] in
  let mark tag = trace := tag :: !trace in
  ignore
    (S.run (fun () ->
         S.pcall
           [
             (fun () -> mark "a1"; S.yield (); mark "a2"; S.yield (); mark "a3");
             (fun () -> mark "b1"; S.yield (); mark "b2"; S.yield (); mark "b3");
           ]));
  Alcotest.(check (list string)) "alternating"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !trace)

(* ---------------- spawn / control / resume ---------------- *)

let test_spawn_transparent () =
  Alcotest.(check int) "normal" 3 (S.run (fun () -> S.spawn (fun _c -> 3)))

let test_control_same_fiber () =
  let r =
    S.run (fun () -> S.spawn (fun c -> 1 + S.control c (fun k -> 10 * S.resume k 2)))
  in
  Alcotest.(check int) "compose" 30 r

let test_control_cross_fiber () =
  (* The capture happens inside a pcall branch; the pruned subtree (the
     whole fork) is grafted back by resume, completing the fork. *)
  let r =
    S.run (fun () ->
        S.spawn (fun c ->
            let vs =
              S.pcall
                [ (fun () -> 1); (fun () -> S.control c (fun k -> S.resume k 2)) ]
            in
            List.fold_left ( + ) 0 vs))
  in
  Alcotest.(check int) "cross-fiber" 3 r

let test_control_prunes_sibling () =
  (* The sibling's pending work is suspended inside the pk; dropping the pk
     abandons it, so its effects after suspension never happen. *)
  let cell = ref 0 in
  let r =
    S.run (fun () ->
        S.spawn (fun c ->
            let _ =
              S.pcall
                [
                  (fun () ->
                    S.yield ();
                    (* runs only if the subtree survives *)
                    cell := 1;
                    0);
                  (fun () -> S.control c (fun _k -> 7));
                ]
            in
            99))
  in
  Alcotest.(check int) "abort value" 7 r;
  Alcotest.(check int) "sibling abandoned" 0 !cell

let test_dead_controller () =
  match
    S.run (fun () ->
        let leaked = ref None in
        ignore (S.spawn (fun c -> leaked := Some c; 0));
        S.control (Option.get !leaked) (fun _k -> 0))
  with
  | (_ : int) -> Alcotest.fail "expected Dead_controller"
  | exception S.Dead_controller -> ()

let test_dead_controller_catchable () =
  let r =
    S.run (fun () ->
        let leaked = ref None in
        ignore (S.spawn (fun c -> leaked := Some c; 0));
        try S.control (Option.get !leaked) (fun _k -> 0)
        with S.Dead_controller -> 42)
  in
  Alcotest.(check int) "caught in fiber" 42 r

let test_expired_pk () =
  let r =
    S.run (fun () ->
        S.spawn (fun c ->
            1
            + S.control c (fun k ->
                  let a = S.resume k 2 in
                  match S.resume k 3 with
                  | _ -> -1
                  | exception S.Expired_pk -> 100 + a)))
  in
  Alcotest.(check int) "one-shot pk" 103 r

let test_not_in_scheduler () =
  match S.yield () with
  | () -> Alcotest.fail "expected Not_in_scheduler"
  | exception S.Not_in_scheduler -> ()

let test_nested_spawn_cross_fiber () =
  (* Exit through the OUTER controller from inside a doubly nested pcall
     under an inner spawn: crosses the inner root and two forks. *)
  let r =
    S.run (fun () ->
        S.spawn (fun outer ->
            1000
            + S.spawn (fun _inner ->
                  let vs =
                    S.pcall
                      [
                        (fun () ->
                          match
                            S.pcall
                              [ (fun () -> S.control outer (fun _k -> 7)); (fun () -> 1) ]
                          with
                          | [ a; b ] -> a + b
                          | _ -> assert false);
                        (fun () -> 2);
                      ]
                  in
                  List.fold_left ( + ) 0 vs)))
  in
  Alcotest.(check int) "deep cross-fiber exit" 7 r

(* ---------------- derived operators ---------------- *)

let test_spawn_exit () =
  Alcotest.(check int) "abort" 0
    (S.run (fun () -> Ops.spawn_exit (fun e -> 1 + e.Ops.exit 0)));
  Alcotest.(check int) "normal" 9 (S.run (fun () -> Ops.spawn_exit (fun _ -> 9)))

let test_spawn_exit_across_pcall () =
  let r =
    S.run (fun () ->
        Ops.with_exit (fun exit ->
            let p ls =
              List.fold_left
                (fun acc x ->
                  S.yield ();
                  if x = 0 then exit 0;
                  acc * x)
                1 ls
            in
            match S.pcall [ (fun () -> p [ 1; 2; 0 ]); (fun () -> p [ 3; 4; 5 ]) ] with
            | [ a; b ] -> a * b
            | _ -> assert false))
  in
  Alcotest.(check int) "zero aborts both" 0 r

let test_first_true () =
  Alcotest.(check (option int)) "second wins" (Some 2)
    (S.run (fun () ->
         Ops.first_true [ (fun () -> None); (fun () -> Some 2) ]));
  Alcotest.(check (option int)) "none" None
    (S.run (fun () -> Ops.first_true [ (fun () -> None); (fun () -> None) ]));
  Alcotest.(check (option int)) "empty" None (S.run (fun () -> Ops.first_true []))

let test_parallel_or_and () =
  Alcotest.(check bool) "or true" true
    (S.run (fun () -> Ops.parallel_or [ (fun () -> false); (fun () -> true) ]));
  Alcotest.(check bool) "or false" false
    (S.run (fun () -> Ops.parallel_or [ (fun () -> false); (fun () -> false) ]));
  Alcotest.(check bool) "and true" true
    (S.run (fun () -> Ops.parallel_and [ (fun () -> true); (fun () -> true) ]));
  Alcotest.(check bool) "and false" false
    (S.run (fun () -> Ops.parallel_and [ (fun () -> true); (fun () -> false) ]))

let test_parallel_map () =
  Alcotest.(check (list int)) "squares" [ 1; 4; 9 ]
    (S.run (fun () -> Ops.parallel_map (fun x -> x * x) [ 1; 2; 3 ]));
  Alcotest.(check (list int)) "empty" [] (S.run (fun () -> Ops.parallel_map succ []))

let test_parallel_or_abandons_divergent () =
  let diverge () =
    let rec loop () =
      S.yield ();
      loop ()
    in
    loop ()
  in
  Alcotest.(check bool) "divergent abandoned" true
    (S.run (fun () -> Ops.parallel_or [ diverge; (fun () -> true) ]))

(* ---------------- parallel search ---------------- *)

let tree16 = Ops.perfect ~depth:4 (fun i -> i)

let test_tree_builders () =
  let rec count = function
    | Ops.Leaf -> 0
    | Ops.Node (l, _, r) -> 1 + count l + count r
  in
  Alcotest.(check int) "perfect size" 15 (count tree16);
  Alcotest.(check int) "of_list size" 5 (count (Ops.tree_of_list [ 1; 2; 3; 4; 5 ]))

let test_search_all () =
  let evens = S.run (fun () -> Ops.search_all tree16 (fun x -> x mod 2 = 0)) in
  Alcotest.(check (list int)) "evens"
    [ 0; 2; 4; 6; 8; 10; 12; 14 ]
    (List.sort compare evens);
  Alcotest.(check (list int)) "none" []
    (S.run (fun () -> Ops.search_all tree16 (fun x -> x > 99)));
  Alcotest.(check (list int)) "all"
    (List.init 15 (fun i -> i))
    (List.sort compare (S.run (fun () -> Ops.search_all tree16 (fun _ -> true))))

let test_search_first () =
  (match S.run (fun () -> Ops.search_first tree16 (fun x -> x mod 5 = 2)) with
  | Some v -> Alcotest.(check bool) "valid match" true (v mod 5 = 2)
  | None -> Alcotest.fail "expected a match");
  Alcotest.(check (option int)) "no match" None
    (S.run (fun () -> Ops.search_first tree16 (fun x -> x > 99)))

let test_search_stream_stepwise () =
  let stream = ref (S.run (fun () -> Ops.parallel_search tree16 (fun x -> x mod 7 = 0))) in
  (* The continuation thunk must be resumed inside a scheduler, so drive
     the whole consumption in one run. *)
  ignore stream;
  let collected =
    S.run (fun () ->
        let rec go acc s =
          match s with
          | Ops.Snil -> List.rev acc
          | Ops.Scons (v, rest) -> go (v :: acc) (rest ())
        in
        go [] (Ops.parallel_search tree16 (fun x -> x mod 7 = 0)))
  in
  Alcotest.(check (list int)) "multiples of 7" [ 0; 7; 14 ] (List.sort compare collected)

(* A decision on the runnable count alone. *)
let by_count pick = S.Driven_pids (fun pids -> pick (Array.length pids))

(* Enumerate decision words over a count-driven policy, collecting outcomes. *)
let explore ?(alphabet = 2) ?(depth = 8) (program : unit -> int) =
  let outcomes = Hashtbl.create 8 in
  let rec words d = if d = 0 then [ [] ] else
    List.concat_map (fun w -> List.init alphabet (fun c -> c :: w)) (words (d - 1))
  in
  List.iter
    (fun word ->
      let remaining = ref word in
      let pick n =
        if n <= 1 then 0
        else
          match !remaining with
          | [] -> 0
          | c :: rest ->
              remaining := rest;
              c mod n
      in
      Hashtbl.replace outcomes (S.run ~policy:(by_count pick) program) ())
    (words depth);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) outcomes [])

let test_driven_pure_single_outcome () =
  let program () =
    let vs = S.pcall [ (fun () -> S.yield (); 1); (fun () -> S.yield (); 2) ] in
    List.fold_left ( + ) 0 vs
  in
  Alcotest.(check (list int)) "confluent" [ 3 ] (explore program)

let test_driven_exit_always_wins () =
  let program () =
    Ops.with_exit (fun exit ->
        let vs =
          S.pcall
            [
              (fun () -> S.yield (); exit 9; 0);
              (fun () -> S.yield (); S.yield (); 1);
            ]
        in
        List.fold_left ( + ) 0 vs)
  in
  Alcotest.(check (list int)) "always aborts" [ 9 ] (explore program)

let test_driven_race_detected () =
  let program () =
    let cell = ref 0 in
    let _ =
      S.pcall
        [ (fun () -> S.yield (); cell := 1); (fun () -> S.yield (); cell := 2) ]
    in
    !cell
  in
  Alcotest.(check (list int)) "both writers observed" [ 1; 2 ]
    (explore ~alphabet:2 ~depth:8 program)

let test_search_schedule_independence () =
  let run policy =
    List.sort compare
      (S.run ~policy (fun () -> Ops.search_all tree16 (fun x -> x mod 3 = 1)))
  in
  let expected = run S.Round_robin in
  List.iter
    (fun seed ->
      Alcotest.(check (list int)) "same set" expected (run (S.Randomized (Int64.of_int seed))))
    [ 1; 7; 13; 99 ]

(* ---------------- channels ---------------- *)

module Ch = Pcont_sched.Channel

let test_channel_basic () =
  let r =
    S.run (fun () ->
        let ch = Ch.create () in
        match
          S.pcall
            [
              (fun () ->
                List.iter (Ch.send ch) [ 1; 2; 3 ];
                Ch.close ch;
                0);
              (fun () ->
                let acc = ref 0 in
                Ch.iter (fun x -> acc := (!acc * 10) + x) ch;
                !acc);
            ]
        with
        | [ _; v ] -> v
        | _ -> assert false)
  in
  Alcotest.(check int) "ordered" 123 r

let test_channel_backpressure () =
  (* capacity 1: the producer can never run more than one element ahead. *)
  let r =
    S.run (fun () ->
        let ch = Ch.create ~capacity:1 () in
        let max_lead = ref 0 in
        let sent = ref 0 and received = ref 0 in
        match
          S.pcall
            [
              (fun () ->
                for i = 1 to 20 do
                  Ch.send ch i;
                  incr sent;
                  max_lead := max !max_lead (!sent - !received)
                done;
                Ch.close ch;
                0);
              (fun () ->
                Ch.iter (fun _ -> incr received) ch;
                !received);
            ]
        with
        | [ _; n ] -> (n, !max_lead)
        | _ -> assert false)
  in
  (match r with
  | 20, lead -> Alcotest.(check bool) "bounded lead" true (lead <= 2)
  | n, _ -> Alcotest.failf "received %d" n)

let test_channel_closed_errors () =
  (match
     S.run (fun () ->
         let ch = Ch.create () in
         Ch.close ch;
         try
           Ch.send ch 1;
           false
         with Ch.Closed -> true)
   with
  | true -> ()
  | false -> Alcotest.fail "send on closed should raise");
  match
    S.run (fun () ->
        let ch = Ch.create () in
        Ch.send ch 7;
        Ch.close ch;
        let a = Ch.recv_opt ch in
        let b = Ch.recv_opt ch in
        (a, b))
  with
  | Some 7, None -> ()
  | _ -> Alcotest.fail "drain then None"

let test_channel_try_recv () =
  match
    S.run (fun () ->
        let ch = Ch.create () in
        let empty = Ch.try_recv ch in
        Ch.send ch 3;
        let full = Ch.try_recv ch in
        (empty, full, Ch.length ch))
  with
  | None, Some 3, 0 -> ()
  | _ -> Alcotest.fail "try_recv"

let test_channel_of_producer () =
  let r =
    S.run (fun () ->
        let ch = Ch.of_producer (fun ~send -> List.iter send [ 5; 6; 7 ]) in
        let acc = ref [] in
        Ch.iter (fun x -> acc := x :: !acc) ch;
        List.rev !acc)
  in
  Alcotest.(check (list int)) "producer future" [ 5; 6; 7 ] r

let test_channel_blocked_consumer_capturable () =
  (* A branch blocked on recv is an ordinary yielding branch: an exit can
     prune it. *)
  let r =
    S.run (fun () ->
        Ops.with_exit (fun exit ->
            let ch : int Ch.t = Ch.create () in
            match
              S.pcall
                [
                  (fun () -> Ch.recv ch (* blocks forever: never sent *));
                  (fun () ->
                    S.yield ();
                    exit 9;
                    0);
                ]
            with
            | _ -> -1))
  in
  Alcotest.(check int) "pruned while blocked" 9 r

(* ---------------- futures: the Section 8 forest ---------------- *)

let test_future_basic () =
  let r =
    S.run (fun () ->
        let f = S.future (fun () -> 6 * 7) in
        S.touch f)
  in
  Alcotest.(check int) "touch" 42 r

let test_future_runs_concurrently () =
  (* The future makes progress while the main tree works. *)
  let r =
    S.run (fun () ->
        let steps = ref [] in
        let f =
          S.future (fun () ->
              steps := "f1" :: !steps;
              S.yield ();
              steps := "f2" :: !steps;
              9)
        in
        steps := "m1" :: !steps;
        S.yield ();
        steps := "m2" :: !steps;
        let v = S.touch f in
        (v, List.rev !steps))
  in
  (match r with
  | 9, trace ->
      Alcotest.(check bool) "interleaved" true
        (List.mem "f1" trace && List.mem "m1" trace);
      Alcotest.(check (list string)) "trace" [ "m1"; "f1"; "m2"; "f2" ] trace
  | _ -> Alcotest.fail "wrong value")

let test_future_poll () =
  let r =
    S.run (fun () ->
        let f = S.future (fun () -> 5) in
        let before = S.poll f in
        let v = S.touch f in
        let after = S.poll f in
        (before, v, after))
  in
  Alcotest.(check bool) "not ready at once" true (match r with None, 5, Some 5 -> true | _ -> false)

let test_future_discarded () =
  (* Main finishes first; the untouched future's effects stop happening. *)
  let cell = ref 0 in
  let r =
    S.run (fun () ->
        let _f =
          S.future (fun () ->
              S.yield ();
              S.yield ();
              S.yield ();
              cell := 99;
              0)
        in
        7)
  in
  Alcotest.(check int) "main value" 7 r;
  Alcotest.(check int) "future abandoned" 0 !cell

let test_future_controller_cannot_cross () =
  (* A controller from the main tree is dead inside a future's tree: the
     forest rule — control operations affect only their own tree. *)
  let r =
    S.run (fun () ->
        S.spawn (fun c ->
            let f =
              S.future (fun () ->
                  try S.control c (fun _k -> -1) with S.Dead_controller -> 41)
            in
            1 + S.touch f))
  in
  Alcotest.(check int) "boundary enforced" 42 r

let test_future_inside_pcall_capture () =
  (* Pruning a subtree that created a future does not disturb the future's
     independent tree: the pk is dropped, but the future still completes
     and can be touched from the main tree. *)
  let r =
    S.run (fun () ->
        let shared = ref None in
        let v =
          Ops.with_exit (fun exit ->
              let vs =
                S.pcall
                  [
                    (fun () ->
                      shared := Some (S.future (fun () -> S.yield (); 10));
                      S.yield ();
                      exit 5;
                      0);
                    (fun () -> 1);
                  ]
              in
              List.fold_left ( + ) 0 vs)
        in
        let fv = match !shared with Some f -> S.touch f | None -> -1 in
        v + fv)
  in
  Alcotest.(check int) "future survives pruning" 15 r

let test_future_many () =
  let r =
    S.run (fun () ->
        let fs = List.init 10 (fun i -> S.future (fun () -> S.yield (); i * i)) in
        List.fold_left (fun acc f -> acc + S.touch f) 0 fs)
  in
  Alcotest.(check int) "sum of squares" 285 r

(* ---------------- parked waiters and deadlock detection ---------------- *)

let check_deadlock name needles thunk =
  match S.run thunk with
  | (_ : int) -> Alcotest.failf "%s: expected Deadlock" name
  | exception S.Deadlock msg ->
      List.iter
        (fun needle ->
          let mem =
            let nl = String.length needle and ml = String.length msg in
            let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions %S" name msg needle)
            true mem)
        needles

let test_deadlock_recv_never_sent () =
  check_deadlock "recv" [ "channel.recv" ] (fun () ->
      let ch : int Ch.t = Ch.create () in
      Ch.recv ch)

let test_deadlock_send_no_receiver () =
  check_deadlock "send" [ "channel.send" ] (fun () ->
      let ch = Ch.create ~capacity:1 () in
      Ch.send ch 1;
      Ch.send ch 2;
      0)

let test_deadlock_touch_orphaned_future () =
  (* The future's tree blocks on a channel nobody sends to; the main
     fiber blocks on the future: both resources are named. *)
  check_deadlock "orphaned future" [ "future"; "channel.recv" ] (fun () ->
      let ch : int Ch.t = Ch.create () in
      let f = S.future (fun () -> Ch.recv ch) in
      S.touch f)

let test_waitset_block_wake () =
  (* The primitive user-level protocol: park on a waitset, re-check on
     wake-up. *)
  let r =
    S.run (fun () ->
        let ws = S.Waitset.create "test.gate" in
        let flag = ref false in
        S.pcall2
          (fun () ->
            while not !flag do
              S.block ws
            done;
            7)
          (fun () ->
            S.yield ();
            flag := true;
            S.wake ws;
            0))
  in
  Alcotest.(check bool) "gate released" true (r = (7, 0))

let test_close_wakes_parked_sender () =
  (* A sender parked on a full channel observes a close that happens
     under it: close wakes it and the re-check raises Closed (pinned
     semantics — no lost wakeup, no silent enqueue onto a closed
     channel). *)
  let r =
    S.run (fun () ->
        let ch = Ch.create ~capacity:1 () in
        S.pcall2
          (fun () ->
            Ch.send ch 1;
            (* full, nobody receiving: parks *)
            try
              Ch.send ch 2;
              0
            with Ch.Closed -> 1)
          (fun () ->
            S.yield ();
            Ch.close ch;
            0))
  in
  Alcotest.(check bool) "sender raised Closed" true (r = (1, 0))

let test_close_wakes_parked_receiver () =
  let r =
    S.run (fun () ->
        let ch : int Ch.t = Ch.create () in
        S.pcall2
          (fun () -> match Ch.recv_opt ch with None -> 1 | Some _ -> 0)
          (fun () ->
            S.yield ();
            Ch.close ch;
            0))
  in
  Alcotest.(check bool) "receiver got end-of-stream" true (r = (1, 0))

let test_of_producer_exception_closes () =
  (* A producer that dies mid-stream must still close the channel (or
     consumers deadlock), and its exception must not abort the run. *)
  let r =
    S.run (fun () ->
        let ch =
          Ch.of_producer (fun ~send ->
              send 1;
              send 2;
              failwith "producer crashed")
        in
        let acc = ref [] in
        Ch.iter (fun x -> acc := x :: !acc) ch;
        List.rev !acc)
  in
  Alcotest.(check (list int)) "prefix then clean close" [ 1; 2 ] r

let test_parked_waiter_graft_resumes () =
  (* A receiver parked on an empty channel is pruned into a process
     continuation and grafted back by resume; the graft revives it as a
     runnable leaf that re-checks (and re-parks on) the channel, so a
     later send completes it. *)
  let r =
    S.run (fun () ->
        let ch : int Ch.t = Ch.create () in
        S.pcall2
          (fun () ->
            S.spawn (fun c ->
                let vs =
                  S.pcall
                    [
                      (fun () -> Ch.recv ch);
                      (fun () ->
                        S.yield ();
                        S.control c (fun k -> S.resume k 99));
                    ]
                in
                match vs with [ a; b ] -> (100 * b) + a | _ -> assert false))
          (fun () ->
            (* let the receiver park and the capture + graft happen first *)
            S.yield ();
            S.yield ();
            S.yield ();
            Ch.send ch 5;
            0))
  in
  Alcotest.(check bool) "graft revived the parked receiver" true (r = (9905, 0))

(* Like [explore], but a run may legitimately end in Deadlock: record it
   as a distinguished outcome.  Every decision word must terminate — a
   blocked program parks instead of spinning, so exploration cannot hang. *)
let explore_deadlock ?(alphabet = 2) ?(depth = 10) (program : unit -> int) =
  let outcomes = Hashtbl.create 8 in
  let rec words d =
    if d = 0 then [ [] ]
    else List.concat_map (fun w -> List.init alphabet (fun c -> c :: w)) (words (d - 1))
  in
  List.iter
    (fun word ->
      let remaining = ref word in
      let pick n =
        if n <= 1 then 0
        else
          match !remaining with
          | [] -> 0
          | c :: rest ->
              remaining := rest;
              c mod n
      in
      let o =
        match S.run ~policy:(by_count pick) program with
        | v -> string_of_int v
        | exception S.Deadlock _ -> "deadlock"
      in
      Hashtbl.replace outcomes o ())
    (words depth);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) outcomes [])

let test_driven_channel_handoff () =
  (* Every interleaving of a two-fiber handoff either completes (correct
     program) or reports Deadlock (receiver expects two values, one is
     sent) — never spins forever. *)
  let handoff () =
    let ch = Ch.create ~capacity:1 () in
    match S.pcall [ (fun () -> Ch.send ch 7; 0); (fun () -> Ch.recv ch) ] with
    | [ _; v ] -> v
    | _ -> assert false
  in
  Alcotest.(check (list string)) "handoff always completes" [ "7" ]
    (explore_deadlock handoff);
  let stuck () =
    let ch = Ch.create ~capacity:1 () in
    match
      S.pcall [ (fun () -> Ch.send ch 7; 0); (fun () -> Ch.recv ch + Ch.recv ch) ]
    with
    | [ _; v ] -> v
    | _ -> assert false
  in
  Alcotest.(check (list string)) "missing send always diagnosed" [ "deadlock" ]
    (explore_deadlock stuck)

let () =
  Alcotest.run "sched"
    [
      ( "pcall",
        [
          Alcotest.test_case "trivial run" `Quick test_run_trivial;
          Alcotest.test_case "exception" `Quick test_run_exception;
          Alcotest.test_case "values" `Quick test_pcall_values;
          Alcotest.test_case "nested" `Quick test_pcall_nested;
          Alcotest.test_case "branch exception" `Quick test_pcall_branch_exception;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
        ] );
      ( "control",
        [
          Alcotest.test_case "spawn transparent" `Quick test_spawn_transparent;
          Alcotest.test_case "same-fiber compose" `Quick test_control_same_fiber;
          Alcotest.test_case "cross-fiber capture" `Quick test_control_cross_fiber;
          Alcotest.test_case "prunes siblings" `Quick test_control_prunes_sibling;
          Alcotest.test_case "dead controller" `Quick test_dead_controller;
          Alcotest.test_case "dead controller catchable" `Quick test_dead_controller_catchable;
          Alcotest.test_case "expired pk" `Quick test_expired_pk;
          Alcotest.test_case "outside scheduler" `Quick test_not_in_scheduler;
          Alcotest.test_case "deep cross-fiber exit" `Quick test_nested_spawn_cross_fiber;
        ] );
      ( "ops",
        [
          Alcotest.test_case "spawn_exit" `Quick test_spawn_exit;
          Alcotest.test_case "exit across pcall" `Quick test_spawn_exit_across_pcall;
          Alcotest.test_case "first_true" `Quick test_first_true;
          Alcotest.test_case "parallel or/and" `Quick test_parallel_or_and;
          Alcotest.test_case "abandons divergent" `Quick test_parallel_or_abandons_divergent;
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
        ] );
      ( "channel",
        [
          Alcotest.test_case "basic pipeline" `Quick test_channel_basic;
          Alcotest.test_case "backpressure" `Quick test_channel_backpressure;
          Alcotest.test_case "closed errors" `Quick test_channel_closed_errors;
          Alcotest.test_case "try_recv" `Quick test_channel_try_recv;
          Alcotest.test_case "of_producer" `Quick test_channel_of_producer;
          Alcotest.test_case "blocked consumer capturable" `Quick
            test_channel_blocked_consumer_capturable;
        ] );
      ( "futures",
        [
          Alcotest.test_case "basic touch" `Quick test_future_basic;
          Alcotest.test_case "runs concurrently" `Quick test_future_runs_concurrently;
          Alcotest.test_case "poll" `Quick test_future_poll;
          Alcotest.test_case "discarded with main" `Quick test_future_discarded;
          Alcotest.test_case "controller cannot cross trees" `Quick
            test_future_controller_cannot_cross;
          Alcotest.test_case "survives sibling pruning" `Quick
            test_future_inside_pcall_capture;
          Alcotest.test_case "many futures" `Quick test_future_many;
        ] );
      ( "search",
        [
          Alcotest.test_case "tree builders" `Quick test_tree_builders;
          Alcotest.test_case "search_all" `Quick test_search_all;
          Alcotest.test_case "search_first" `Quick test_search_first;
          Alcotest.test_case "stream stepwise" `Quick test_search_stream_stepwise;
          Alcotest.test_case "schedule independence" `Quick test_search_schedule_independence;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "pure: single outcome" `Quick test_driven_pure_single_outcome;
          Alcotest.test_case "exit always wins" `Quick test_driven_exit_always_wins;
          Alcotest.test_case "race detected" `Quick test_driven_race_detected;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "recv, never sent" `Quick test_deadlock_recv_never_sent;
          Alcotest.test_case "send, no receiver" `Quick test_deadlock_send_no_receiver;
          Alcotest.test_case "touch of orphaned future" `Quick
            test_deadlock_touch_orphaned_future;
          Alcotest.test_case "waitset block/wake" `Quick test_waitset_block_wake;
          Alcotest.test_case "close wakes parked sender" `Quick
            test_close_wakes_parked_sender;
          Alcotest.test_case "close wakes parked receiver" `Quick
            test_close_wakes_parked_receiver;
          Alcotest.test_case "of_producer exception closes" `Quick
            test_of_producer_exception_closes;
          Alcotest.test_case "graft revives parked waiter" `Quick
            test_parked_waiter_graft_resumes;
          Alcotest.test_case "driven channel handoff" `Quick
            test_driven_channel_handoff;
        ] );
    ]
