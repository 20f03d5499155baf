(* Tests for the concurrent tree-of-stacks scheduler (Section 7's
   concurrent implementation): pcall forking, cross-branch controller
   capture, grafting, schedule independence, and the Section 5 programs. *)

module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack
module Concur = Pcont_pstack.Concur
module Machine = Pcont_pstack.Machine
module C = Pcont_util.Counters
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

(* An obs handle whose events accumulate (newest first) in the returned ref. *)
let collecting () =
  let events = ref [] in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.memory (fun (_, _, ev) -> events := ev :: !events));
  (o, events)

let conc = Interp.Concurrent Concur.Round_robin

let ev ?(mode = conc) src =
  let t = Interp.create () in
  Interp.eval_value ~mode t src

let ev_err src =
  let t = Interp.create () in
  match List.rev (Interp.eval_string ~mode:conc t src) with
  | Interp.Error m :: _ -> m
  | r :: _ -> Alcotest.failf "expected error, got %s" (Interp.result_to_string r)
  | [] -> Alcotest.fail "no results"

let check_int ?mode name expect src =
  match ev ?mode src with
  | Pstack.Types.Int n -> Alcotest.(check int) name expect n
  | v -> Alcotest.failf "%s: expected int, got %s" name (Pstack.Value.to_string v)

let check_value ?mode name expect src =
  Alcotest.(check string) name expect (Pstack.Value.to_string (ev ?mode src))

(* ---------------- pcall basics ---------------- *)

let test_pcall_basic () =
  check_int "sum" 6 "(pcall + 1 2 3)";
  check_int "operator branch" 12 "(pcall (if #t * +) 3 4)";
  check_int "single branch" 5 "(pcall (lambda () 5))";
  check_int "nested" 21 "(pcall + (pcall + 1 2) (pcall * 3 6))"

let test_pcall_branches_interleave () =
  (* Both branches increment a shared counter; with round-robin quanta the
     final value is 2 regardless of order. *)
  check_int "shared effects" 2
    "(define n 0)
     (pcall (lambda (a b) n)
            (set! n (+ n 1))
            (set! n (+ n 1)))"

let test_pcall_deep_recursion () =
  check_int "tree sum" 120
    "(define (tsum lo hi)
       (if (= lo hi) lo
           (let ([mid (quotient (+ lo hi) 2)])
             (pcall + (tsum lo mid) (tsum (+ mid 1) hi)))))
     (tsum 1 15)"

(* ---------------- controller capture across branches ---------------- *)

let product_defs =
  {|
(define product0
  (lambda (ls exit)
    (cond
      [(null? ls) 1]
      [(= (car ls) 0) (exit 0)]
      [else (* (car ls) (product0 (cdr ls) exit))])))
|}

let test_exit_within_one_arm () =
  check_int "local exits" 120
    (product_defs
   ^ {|
(define (product ls) (spawn/exit (lambda (exit) (product0 ls exit))))
(pcall + (product '(1 2 0)) (product '(4 5 6)))
|})

let test_exit_aborts_both_arms () =
  check_int "global exit" 0
    (product_defs
   ^ {|
(spawn/exit
  (lambda (exit)
    (pcall * (product0 '(1 2 0 4) exit) (product0 '(5 6 7) exit))))
|});
  check_int "no zero" 720
    (product_defs
   ^ {|
(spawn/exit
  (lambda (exit)
    (pcall * (product0 '(1 2 3) exit) (product0 '(4 5 6) exit))))
|})

let test_exit_from_nested_fork () =
  check_int "deep cross-branch exit" 99
    {|
(spawn/exit
  (lambda (exit)
    (pcall +
      (pcall + 1 (pcall + 2 (exit 99)))
      1000000)))
|}

let test_invalid_across_scheduler () =
  let msg =
    ev_err "(define leaked #f)
            (spawn (lambda (c) (set! leaked c) 0))
            (pcall + (leaked (lambda (k) 1)) 2)"
  in
  Alcotest.(check bool) "mentions invalid" true (String.length msg > 0)

(* ---------------- parallel-or / first-true ---------------- *)

let test_parallel_or () =
  check_int "right true" 17 "(parallel-or #f 17)";
  check_value "left true" "yes" "(parallel-or 'yes #f)";
  check_value "both false" "#f" "(parallel-or #f #f)";
  check_value "three-way" "3" "(parallel-or #f #f 3)"

let test_parallel_or_abandons_divergent () =
  (* One branch diverges; the other answers.  The divergent branch is
     abandoned when the controller prunes the subtree. *)
  check_int "divergent branch abandoned" 7
    "(define (loop) (loop))
     (parallel-or (loop) 7)"

let test_first_true_direct () =
  check_value "first-true" "42"
    "(first-true (lambda () #f) (lambda () 42))";
  check_value "neither" "#f" "(first-true (lambda () #f) (lambda () #f))"

(* ---------------- parallel-search ---------------- *)

let search_defs =
  {|
(define (node t) (car t))
(define (left t) (cadr t))
(define (right t) (car (cddr t)))
(define (empty? t) (null? t))

(define parallel-search
  (lambda (tree predicate?)
    (spawn
      (lambda (c)
        (define search
          (lambda (tree)
            (unless (empty? tree)
              (pcall
                (lambda (x y z) #f)
                (when (predicate? (node tree))
                  (c (lambda (k)
                       (cons (node tree)
                             (lambda () (k #f))))))
                (search (left tree))
                (search (right tree))))))
        (search tree)
        #f))))

(define search-all
  (lambda (tree predicate?)
    (letrec ([collect (lambda (result)
                        (if result
                            (cons (car result) (collect ((cdr result))))
                            '()))])
      (collect (parallel-search tree predicate?)))))

(define t
  '(4 (2 (1 () ()) (3 () ())) (6 (5 () ()) (7 () ()))))
|}

let sort_ints_src l = "(define (insert x ls) (cond [(null? ls) (list x)] [(< x (car ls)) (cons x ls)] [else (cons (car ls) (insert x (cdr ls)))])) (define (sort ls) (fold-left (lambda (acc x) (insert x acc)) '() ls)) (sort " ^ l ^ ")"

let test_parallel_search_all () =
  check_value "evens" "(2 4 6)" (search_defs ^ sort_ints_src "(search-all t even?)");
  check_value "odds" "(1 3 5 7)" (search_defs ^ sort_ints_src "(search-all t odd?)");
  check_value "none" "()" (search_defs ^ "(search-all t (lambda (x) (> x 10)))")

let test_parallel_search_first_only () =
  (* Taking just the first answer leaves the suspended search unresumed. *)
  check_value "first only is a pair" "#t"
    (search_defs ^ "(pair? (parallel-search t even?))")

let test_parallel_search_schedules_agree () =
  (* The set of results is schedule-independent. *)
  let results seed =
    let t = Interp.create () in
    match
      Interp.eval_value
        ~mode:(Interp.Concurrent (Concur.Randomized (Int64.of_int seed)))
        t
        (search_defs ^ sort_ints_src "(search-all t even?)")
    with
    | v -> Pstack.Value.to_string v
  in
  List.iter
    (fun seed -> Alcotest.(check string) "same set" "(2 4 6)" (results seed))
    [ 1; 2; 3; 42; 1000 ]

(* ---------------- multi-shot in the concurrent scheduler ---------------- *)

let test_multishot_pk_concurrent () =
  check_int "pk invoked twice across pcall" 12
    "(spawn (lambda (c) (+ 1 (c (lambda (k) (* (k 2) (k 3)))))))";
  (* Same but the capture happens inside a pcall branch, so the captured
     subtree is a genuine tree and grafting runs twice: (k 2) completes the
     fork as (+ 1 2) = 3, (k 5) as (+ 1 5) = 6, and the body multiplies. *)
  check_int "tree pk invoked twice" 18
    "(spawn (lambda (c)
       (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))"

(* ---------------- futures: Section 8's forest of trees ---------------- *)

let test_future_basic () =
  check_int "touch" 42 "(touch (future (* 6 7)))";
  check_int "touch non-future" 5 "(touch 5)";
  check_value "future?" "#t" "(future? (future 1))";
  check_value "not future" "#f" "(future? 3)"

let test_future_cross_form () =
  (* drain-on-exit: the future finishes with its form and remains
     touchable from the next form *)
  let t = Interp.create () in
  ignore
    (Interp.eval_string ~mode:conc t
       "(define f (future (let loop ([i 0]) (if (= i 50) 77 (loop (+ i 1))))))");
  match Interp.eval_value ~mode:conc t "(touch f)" with
  | Pstack.Types.Int 77 -> ()
  | v -> Alcotest.failf "got %s" (Pstack.Value.to_string v)

let test_future_concurrent_progress () =
  (* The future's tree runs interleaved with the main tree: both count, and
     the main tree observes the future's effects progressing. *)
  check_int "interleaved" 30
    "(define n 0)
     (define f (future (begin (set! n (+ n 10)) (set! n (+ n 10)) n)))
     (+ (touch f) 10)"

let test_future_sequential_eager () =
  check_int "sequential eager" 42 ~mode:Interp.Sequential "(touch (future (* 6 7)))";
  check_value "resolved at once" "#t" ~mode:Interp.Sequential "(future? (future 1))"

let test_future_controller_cannot_cross () =
  (* Controllers cannot capture across the forest boundary. *)
  let msg =
    ev_err "(spawn (lambda (c) (touch (future (c (lambda (k) 1))))))"
  in
  Alcotest.(check bool) "boundary enforced" true (String.length msg > 0)

let test_future_survives_pruning () =
  (* A future created in a pcall branch keeps running after the branch's
     subtree is pruned by an exit. *)
  check_int "future survives prune" 15
    "(define f #f)
     (+ (spawn/exit
          (lambda (exit)
            (pcall +
              (begin (set! f (future (let loop ([i 0]) (if (= i 20) 10 (loop (+ i 1))))))
                     (exit 5))
              100000)))
        (touch f))"

let test_future_many () =
  check_int "fan-out" 285
    "(define fs (map1 (lambda (i) (future (* i i))) (iota 10)))
     (fold-left + 0 (map1 touch fs))"

let test_future_no_drain () =
  let t = Interp.create () in
  let slow = "(define f (future (let loop ([i 0]) (if (= i 1000) 1 (loop (+ i 1))))))" in
  (match
     Pstack.Concur.run ~drain_futures:false ~cfg:(Interp.config t) (Interp.env t)
       (match Pcont_syntax.Expand.parse_program slow with
       | Ok [ Pcont_syntax.Expand.Define (_, ir) ] -> ir
       | _ -> Alcotest.fail "parse")
   with
  | Pstack.Concur.Value v -> Pstack.Env.define_global (Interp.env t) "f" v
  | _ -> Alcotest.fail "future definition failed");
  (* Without draining, the tree was discarded: touching it later errors. *)
  match List.rev (Interp.eval_string ~mode:conc ~fuel:20_000 t "(touch f)") with
  | Interp.Error _ :: _ -> ()
  | r :: _ -> Alcotest.failf "expected error, got %s" (Interp.result_to_string r)
  | [] -> Alcotest.fail "no results"

(* ---------------- scheduler mechanics ---------------- *)

let test_counters () =
  let t = Interp.create () in
  let cfg = Interp.config t in
  (match
     Interp.eval_value ~mode:conc t
       "(spawn/exit (lambda (exit) (pcall + 1 (exit 9) 3)))"
   with
  | Pstack.Types.Int 9 -> ()
  | v -> Alcotest.failf "got %s" (Pstack.Value.to_string v));
  let c = cfg.Machine.counters in
  Alcotest.(check bool) "forked" true (C.get c "concur.fork" >= 1);
  Alcotest.(check int) "captured once" 1 (C.get c "concur.capture");
  Alcotest.(check int) "locked once" 1 (C.get c "sync.lock")

let test_fuel_exhaustion () =
  let t = Interp.create () in
  match
    List.rev (Interp.eval_string ~mode:conc ~fuel:500 t "(define (loop) (loop)) (pcall + (loop) (loop))")
  with
  | Interp.Error m :: _ -> Alcotest.(check string) "fuel error" "out of fuel" m
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_callcc_is_leaf_local () =
  (* call/cc captures only the invoking branch's local stack: escaping
     within a branch works... *)
  check_int "local escape" 11
    "(pcall + 1 (call/cc (lambda (k) (+ 100 (k 10)))))"

let test_display_across_branches () =
  let t = Interp.create () in
  ignore (Interp.take_output ());
  (match Interp.eval_value ~mode:conc t "(pcall (lambda (a b) 0) (display \"x\") (display \"x\"))" with
  | Pstack.Types.Int 0 -> ()
  | v -> Alcotest.failf "got %s" (Pstack.Value.to_string v));
  Alcotest.(check string) "both printed" "xx" (Interp.take_output ())

(* ---------------- trace events ---------------- *)

let test_trace_events () =
  let t = Interp.create () in
  let obs, events = collecting () in
  (match
     Interp.eval_top ~mode:conc ~obs t
       (match Pcont_syntax.Expand.parse_program
                "(spawn/exit (lambda (exit) (pcall + 1 (exit 9))))"
        with
       | Ok [ top ] -> top
       | _ -> Alcotest.fail "parse")
   with
  | Interp.Value (Pstack.Types.Int 9) -> ()
  | r -> Alcotest.failf "got %s" (Interp.result_to_string r));
  let evs = List.rev !events in
  let has p = List.exists p evs in
  let count p = List.length (List.filter p evs) in
  Alcotest.(check int) "saw the fork's three branch spawns" 3
    (count (function E.Spawn { kind = "branch"; _ } -> true | _ -> false));
  Alcotest.(check bool) "saw capture with control points" true
    (has (function E.Capture { control_points; _ } -> control_points >= 1 | _ -> false));
  Alcotest.(check bool) "saw completions" true
    (has (function E.Exit _ -> true | _ -> false));
  Alcotest.(check bool) "saw run slices with fuel charged" true
    (has (function E.Slice_end { fuel; _ } -> fuel > 0 | _ -> false));
  (* event strings are printable *)
  List.iter (fun ev -> ignore (E.to_human ev)) evs

let test_trace_graft_event () =
  let t = Interp.create () in
  let obs, events = collecting () in
  (match
     Interp.eval_top ~mode:conc ~obs t
       (match Pcont_syntax.Expand.parse_program
                "(spawn (lambda (c) (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))"
        with
       | Ok [ top ] -> top
       | _ -> Alcotest.fail "parse")
   with
  | Interp.Value (Pstack.Types.Int 18) -> ()
  | r -> Alcotest.failf "got %s" (Interp.result_to_string r));
  let grafts =
    List.length
      (List.filter (function E.Reinstate _ -> true | _ -> false) !events)
  in
  Alcotest.(check int) "two grafts (multi-shot)" 2 grafts

(* ---------------- systematic schedule exploration ---------------- *)

(* Run a program under every schedule reachable by a decision word over
   {0..alphabet-1}^depth: each decision picks which runnable branch steps
   next (one machine quantum), indices reduced mod the live branch count;
   beyond the word, branch 0 is always picked.  For small programs this
   covers every interleaving shape near the forks. *)
let explore_schedules ?(alphabet = 2) ?(depth = 9) src =
  let tops =
    match Pcont_syntax.Expand.parse_program src with
    | Ok tops -> tops
    | Error m -> Alcotest.failf "parse: %s" m
  in
  let outcomes = Hashtbl.create 8 in
  let words =
    let rec gen d = if d = 0 then [ [] ] else
      let shorter = gen (d - 1) in
      List.concat_map (fun w -> List.init alphabet (fun c -> c :: w)) shorter
    in
    gen depth
  in
  List.iter
    (fun word ->
      let t = Interp.create () in
      let remaining = ref word in
      let pick n =
        (* only a real choice point consumes a decision *)
        if n <= 1 then 0
        else
          match !remaining with
          | [] -> 0
          | c :: rest ->
              remaining := rest;
              c mod n
      in
      let rec run_tops = function
        | [] -> ()
        | top :: rest -> (
            match
              Interp.eval_top
                ~mode:
                  (Interp.Concurrent
                     (Concur.Driven_pids (fun pids -> pick (Array.length pids))))
                ~fuel:200_000 ~quantum:1 t top
            with
            | Interp.Error m -> Hashtbl.replace outcomes ("error: " ^ m) ()
            | Interp.Value v when rest = [] ->
                Hashtbl.replace outcomes (Pstack.Value.to_string v) ()
            | _ -> run_tops rest)
      in
      run_tops tops)
    words;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) outcomes [])

let test_explore_pure_pcall () =
  Alcotest.(check (list string)) "one outcome" [ "9" ]
    (explore_schedules "(pcall + (pcall + 1 2) (pcall * 2 3))")

let test_explore_cross_branch_exit () =
  Alcotest.(check (list string)) "always aborts to 0" [ "0" ]
    (explore_schedules
       "(spawn/exit (lambda (exit) (pcall * (+ 1 (exit 0)) (+ 2 3))))")

let test_explore_parallel_or_race () =
  (* BOTH branches are true: different schedules may pick different
     winners, but every schedule returns one of the two true values. *)
  let outcomes = explore_schedules ~depth:10 "(parallel-or 1 2)" in
  Alcotest.(check bool) "subset of {1,2}" true
    (outcomes <> [] && List.for_all (fun o -> o = "1" || o = "2") outcomes)

let test_explore_capture_while_parked () =
  (* A branch parks on a future while its sibling captures the whole
     subtree, packaging the parked waiter; the graft revives it and the
     revived branch re-touches.  Every interleaving of the park, the
     capture and the graft must agree — a regression guard for the
     mutable-segment representation: the captured stacks are pinned, so
     no schedule can observe a stack mutated after its capture. *)
  Alcotest.(check (list string)) "one outcome" [ "13" ]
    (explore_schedules ~depth:8
       "(spawn (lambda (c) (pcall + (touch (future (+ 1 2))) (c (lambda (k) (k 10))))))")

let test_explore_multishot_twice () =
  (* The multi-shot continuation is grafted twice under every schedule
     and must keep producing the seed answer: the one-shot fast path is
     disabled in concurrent mode, so both grafts see intact segments. *)
  Alcotest.(check (list string)) "seed answer under every schedule" [ "18" ]
    (explore_schedules ~depth:8
       "(spawn (lambda (c) (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))")

let test_explore_racy_set () =
  (* A genuine race: schedules disagree — exploration must SEE both
     outcomes, demonstrating the explorer exercises distinct schedules. *)
  let outcomes =
    explore_schedules ~alphabet:3 ~depth:6
      "(define x 0) (pcall (lambda (a b) x) (set! x 1) (set! x 2))"
  in
  Alcotest.(check (list string)) "both orders observed" [ "1"; "2" ] outcomes

(* ---------------- parked waiters and deadlock detection ---------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let deadlock_cycle = "(letrec ([f (future (touch f))]) (touch f))"

let test_deadlock_future_cycle () =
  (* Under Round_robin the letrec rib is filled before the future's tree
     first reads it, so both the main branch and the future's own branch
     park on f's unresolved cell: the queue drains and the run reports a
     deadlock instead of burning all its fuel. *)
  let m = ev_err deadlock_cycle in
  Alcotest.(check bool) (Printf.sprintf "diagnosis (%S)" m) true
    (contains ~needle:"deadlock" m && contains ~needle:"parked" m)

let test_deadlock_outcome_and_events () =
  (* The raw scheduler outcome and the park/deadlock trace events. *)
  let ir =
    match Pcont_syntax.Expand.parse_program deadlock_cycle with
    | Ok [ Pcont_syntax.Expand.Expr ir ] -> ir
    | _ -> Alcotest.fail "parse"
  in
  let obs, events = collecting () in
  (match Concur.run ~fuel:100_000 ~obs (Pstack.Prims.base_env ()) ir with
  | Concur.Deadlock msg ->
      Alcotest.(check bool) "names the parked branches" true
        (contains ~needle:"parked" msg)
  | o -> Alcotest.failf "expected Deadlock, got %s" (Concur.outcome_to_string o));
  let evs = List.rev !events in
  let count p = List.length (List.filter p evs) in
  Alcotest.(check int) "two parks" 2
    (count (function E.Park _ -> true | _ -> false));
  Alcotest.(check int) "no wakes" 0
    (count (function E.Wake _ -> true | _ -> false));
  Alcotest.(check bool) "deadlock event with both parked" true
    (List.exists
       (function E.Deadlock { parked = 2 } -> true | _ -> false)
       evs);
  List.iter (fun ev -> ignore (E.to_human ev)) evs

let test_park_wake_counters () =
  let t = Interp.create () in
  let c = (Interp.config t).Machine.counters in
  (match
     Interp.eval_value ~mode:conc t
       "(define (spin i) (if (= i 50) 7 (spin (+ i 1))))
        (touch (future (spin 0)))"
   with
  | Pstack.Types.Int 7 -> ()
  | v -> Alcotest.failf "got %s" (Pstack.Value.to_string v));
  Alcotest.(check int) "parked once" 1 (C.get c "concur.park");
  Alcotest.(check int) "woken once" 1 (C.get c "concur.wake")

(* Smallest fuel under which the whole program completes with a value. *)
let min_fuel ~quantum src =
  let ok fuel =
    let t = Interp.create () in
    match List.rev (Interp.eval_string ~mode:conc ~fuel ~quantum t src) with
    | Interp.Value _ :: _ -> true
    | _ -> false
  in
  let rec search lo hi =
    (* lo fails, hi succeeds *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if ok mid then search lo mid else search mid hi
  in
  if ok 1 then 1
  else begin
    Alcotest.(check bool) "upper bound completes" true (ok 100_000);
    search 1 100_000
  end

let test_blocked_touch_consumes_no_fuel () =
  (* Regression for the Esc_touch fuel leak: a parked touch takes no
     machine transitions, so the fuel needed to finish must not depend on
     how long the toucher stays blocked.  Quantum 1 maximises the number
     of scheduling rounds the toucher sits parked through; before parked
     waiters each of those rounds charged the blocked branch one fuel,
     making the quantum-1 minimum strictly larger. *)
  let src =
    "(define (spin i) (if (= i 100) 7 (spin (+ i 1))))
     (touch (future (spin 0)))"
  in
  let f_long = min_fuel ~quantum:64 src in
  let f_short = min_fuel ~quantum:1 src in
  Alcotest.(check int) "fuel consumed while blocked is 0 (schedule-independent)"
    f_long f_short

let test_explore_deadlock_terminates () =
  (* Every interleaving of the racy future cycle terminates: either the
     future's branch reads the letrec slot before it is initialised
     (touching the non-future placeholder resolves the future) and the
     program completes, or both branches park on the unresolved cell and
     the scheduler diagnoses a deadlock.  No schedule may spin to fuel
     exhaustion. *)
  let outcomes = explore_schedules ~depth:6 deadlock_cycle in
  Alcotest.(check bool)
    (Printf.sprintf "some schedule deadlocks (%s)" (String.concat " | " outcomes))
    true
    (List.exists (fun o -> contains ~needle:"deadlock" o) outcomes);
  Alcotest.(check bool) "no schedule exhausts fuel" true
    (List.for_all (fun o -> not (contains ~needle:"fuel" o)) outcomes)

(* ---------------- property: schedule independence ---------------- *)

(* Pure programs (no set!, no controller races): every schedule — the
   sequential left-to-right machine, round-robin, and any random seed —
   must produce the same value.  Confluence of the tree semantics. *)
let gen_pure_concurrent =
  let open QCheck.Gen in
  let module Ir = Pstack.Ir in
  let rec go env n =
    if n <= 0 then
      oneof
        [
          map Ir.int small_int;
          (if env = [] then map Ir.int small_int else map Ir.var (oneofl env));
        ]
    else
      frequency
        [
          (2, map Ir.int small_int);
          (3, let* x = oneofl [ "p"; "q" ] in
              let* body = go (x :: env) (n / 2) in
              let* arg = go env (n / 2) in
              return (Ir.app (Ir.lam [ x ] body) [ arg ]));
          (3, let* a = go env (n / 2) in
              let* b = go env (n / 2) in
              let* op = oneofl [ "+"; "*"; "max"; "min" ] in
              return (Ir.Pcall [ Ir.var op; a; b ]));
          (2, let* c = go env (n / 3) in
              let* a = go env (n / 3) in
              let* b = go env (n / 3) in
              return (Ir.if_ (Ir.app (Ir.var "zero?") [ c ]) a b));
          (1, let* body = go env (n / 2) in
              return (Ir.app (Ir.var "spawn") [ Ir.lam [ "cc" ] body ]));
          (1, let* v = go env (n / 2) in
              (* a deterministic exit: both branches of the pcall exist but
                 the exit value is fixed, so every schedule agrees *)
              return
                (Ir.app (Ir.var "spawn")
                   [
                     Ir.lam [ "cc" ]
                       (Ir.Pcall
                          [
                            Ir.var "+";
                            Ir.app (Ir.var "cc") [ Ir.lam [ "k" ] v ];
                            Ir.int 1;
                          ]);
                   ]));
        ]
  in
  go [] 10

let arb_pure_concurrent = QCheck.make gen_pure_concurrent ~print:Pstack.Ir.to_string

let prop_schedule_independent =
  QCheck.Test.make ~name:"pure programs are schedule-independent" ~count:200
    arb_pure_concurrent (fun ir ->
      let run_with mode =
        let env = Pstack.Prims.base_env () in
        match mode with
        | `Seq -> (
            match Pstack.Run.eval_ir ~fuel:100_000 env ir with
            | Pstack.Run.Value v -> `V (Pstack.Value.to_string v)
            | Pstack.Run.Error m -> `E m
            | Pstack.Run.Out_of_fuel -> `F)
        | `Conc sched -> (
            match Concur.run ~fuel:400_000 ~sched env ir with
            | Concur.Value v -> `V (Pstack.Value.to_string v)
            | Concur.Error m -> `E m
            | Concur.Out_of_fuel -> `F
            | Concur.Deadlock m -> `D m)
      in
      let outcomes =
        [
          run_with `Seq;
          run_with (`Conc Concur.Round_robin);
          run_with (`Conc (Concur.Randomized 7L));
          run_with (`Conc (Concur.Randomized 12345L));
        ]
      in
      if List.exists (fun o -> o = `F) outcomes then true
      else
        match outcomes with
        | first :: rest -> List.for_all (( = ) first) rest
        | [] -> assert false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "concur"
    [
      ( "pcall",
        [
          Alcotest.test_case "basics" `Quick test_pcall_basic;
          Alcotest.test_case "interleaving" `Quick test_pcall_branches_interleave;
          Alcotest.test_case "deep recursion" `Quick test_pcall_deep_recursion;
        ] );
      ( "capture",
        [
          Alcotest.test_case "exit within one arm" `Quick test_exit_within_one_arm;
          Alcotest.test_case "exit aborts both arms" `Quick test_exit_aborts_both_arms;
          Alcotest.test_case "exit from nested fork" `Quick test_exit_from_nested_fork;
          Alcotest.test_case "invalid across scheduler" `Quick test_invalid_across_scheduler;
        ] );
      ( "parallel-or",
        [
          Alcotest.test_case "basics" `Quick test_parallel_or;
          Alcotest.test_case "abandons divergent branch" `Quick
            test_parallel_or_abandons_divergent;
          Alcotest.test_case "first-true" `Quick test_first_true_direct;
        ] );
      ( "parallel-search",
        [
          Alcotest.test_case "search-all" `Quick test_parallel_search_all;
          Alcotest.test_case "first only" `Quick test_parallel_search_first_only;
          Alcotest.test_case "schedule independence" `Quick
            test_parallel_search_schedules_agree;
        ] );
      ( "futures",
        [
          Alcotest.test_case "basics" `Quick test_future_basic;
          Alcotest.test_case "cross-form (drained)" `Quick test_future_cross_form;
          Alcotest.test_case "concurrent progress" `Quick test_future_concurrent_progress;
          Alcotest.test_case "sequential eager" `Quick test_future_sequential_eager;
          Alcotest.test_case "controller cannot cross" `Quick
            test_future_controller_cannot_cross;
          Alcotest.test_case "survives pruning" `Quick test_future_survives_pruning;
          Alcotest.test_case "fan-out" `Quick test_future_many;
          Alcotest.test_case "no drain discards" `Quick test_future_no_drain;
        ] );
      ( "multi-shot",
        [ Alcotest.test_case "pk twice" `Quick test_multishot_pk_concurrent ] );
      ( "mechanics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "call/cc leaf-local" `Quick test_callcc_is_leaf_local;
          Alcotest.test_case "output across branches" `Quick test_display_across_branches;
        ] );
      ( "trace",
        [
          Alcotest.test_case "events observed" `Quick test_trace_events;
          Alcotest.test_case "graft events" `Quick test_trace_graft_event;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "pure pcall: one outcome" `Quick test_explore_pure_pcall;
          Alcotest.test_case "cross-branch exit: always 0" `Quick
            test_explore_cross_branch_exit;
          Alcotest.test_case "parallel-or race: valid winners" `Quick
            test_explore_parallel_or_race;
          Alcotest.test_case "racy set!: both outcomes seen" `Quick test_explore_racy_set;
          Alcotest.test_case "capture while parked" `Quick
            test_explore_capture_while_parked;
          Alcotest.test_case "multi-shot grafted twice" `Quick
            test_explore_multishot_twice;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "future cycle diagnosed" `Quick test_deadlock_future_cycle;
          Alcotest.test_case "outcome + park/deadlock events" `Quick
            test_deadlock_outcome_and_events;
          Alcotest.test_case "park/wake counters" `Quick test_park_wake_counters;
          Alcotest.test_case "blocked touch consumes no fuel" `Quick
            test_blocked_touch_consumes_no_fuel;
          Alcotest.test_case "exploration terminates" `Quick
            test_explore_deadlock_terminates;
        ] );
      ("properties", qsuite [ prop_schedule_independent ]);
    ]
