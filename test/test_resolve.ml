(* Tests for the lexical-addressing resolution pass (Resolve) and for the
   schedule-observability contracts the run-queue schedulers must keep.

   Three groups:
   - resolver unit tests: addresses for shadowing/letrec/rest-args, [set!]
     on locals and globals, and unbound-variable errors still reported by
     name (including forward references sharing the interned cell);
   - a differential test: every golden program runs under both
     fuel-bounded drivers (sequential Run and concurrent Concur) and must
     produce identical results, identical printed output and identical
     machine-level control counters;
   - Driven-contract tests: the exact sequence of live-leaf counts passed
     to a count-driven pick function, for both schedulers, pinned to the
     values the original walk-the-forest implementation produced. *)

open Pcont_pstack
module Interp = Pcont_syntax.Interp
module Counters = Pcont_util.Counters
module S = Pcont_sched.Sched

(* ---------------- resolver unit tests ---------------- *)

let genv () = Env.empty ()

let check_rir msg expected actual =
  let rec eq (a : Types.rir) (b : Types.rir) =
    match (a, b) with
    | Ir.Rlocal (d, s), Ir.Rlocal (d', s') -> d = d' && s = s'
    | Ir.Rglobal g, Ir.Rglobal g' -> g == g'
    | Ir.Rapp (f, xs), Ir.Rapp (f', xs') ->
        eq f f' && List.length xs = List.length xs' && List.for_all2 eq xs xs'
    | Ir.Rseq xs, Ir.Rseq xs' ->
        List.length xs = List.length xs' && List.for_all2 eq xs xs'
    | Ir.Rset_local (d, s, e), Ir.Rset_local (d', s', e') ->
        d = d' && s = s' && eq e e'
    | Ir.Rset_global (g, e), Ir.Rset_global (g', e') -> g == g' && eq e e'
    | Ir.Rlam l, Ir.Rlam l' ->
        l.Ir.rnparams = l'.Ir.rnparams
        && l.Ir.rhas_rest = l'.Ir.rhas_rest
        && eq l.Ir.rbody l'.Ir.rbody
    | _ -> a = b
  in
  Alcotest.(check bool) msg true (eq expected actual)

let test_addresses_shadowing () =
  let g = genv () in
  (* scopes: innermost rib first; [x] at depth 0 shadows [x] at depth 1 *)
  let scopes = [ [ ("x", 0); ("y", 1) ]; [ ("x", 0) ] ] in
  check_rir "inner x" (Ir.Rlocal (0, 0)) (Resolve.resolve g scopes (Ir.var "x"));
  check_rir "y" (Ir.Rlocal (0, 1)) (Resolve.resolve g scopes (Ir.var "y"));
  (* a lambda introduces a rib: outer bindings shift one level deeper *)
  check_rir "lambda shifts depth"
    (Ir.Rlam
       {
         Ir.rnparams = 1;
         rhas_rest = false;
         rbody = Ir.Rapp (Ir.Rlocal (0, 0), [ Ir.Rlocal (1, 0) ]);
       })
    (Resolve.resolve g scopes
       (Ir.lam [ "f" ] (Ir.app (Ir.var "f") [ Ir.var "x" ])))

let test_addresses_rest_args () =
  let g = genv () in
  (* the rest parameter lives in the slot after the fixed parameters *)
  check_rir "rest slot"
    (Ir.Rlam
       {
         Ir.rnparams = 2;
         rhas_rest = true;
         rbody = Ir.Rapp (Ir.Rlocal (0, 2), [ Ir.Rlocal (0, 0); Ir.Rlocal (0, 1) ]);
       })
    (Resolve.resolve g []
       (Ir.lam_rest [ "a"; "b" ] "r"
          (Ir.app (Ir.var "r") [ Ir.var "a"; Ir.var "b" ])))

let test_addresses_globals_interned () =
  let g = genv () in
  let r1 = Resolve.resolve g [] (Ir.var "nope") in
  let r2 = Resolve.resolve g [] (Ir.Set ("nope", Ir.int 1)) in
  match (r1, r2) with
  | Ir.Rglobal c1, Ir.Rset_global (c2, _) ->
      Alcotest.(check bool) "same interned cell" true (c1 == c2);
      Alcotest.(check bool) "unbound until defined" false c1.Types.gbound;
      Env.define_global g "nope" (Types.Int 7);
      Alcotest.(check bool) "define fills the same cell" true c1.Types.gbound
  | _ -> Alcotest.fail "expected global references"

let ev ?mode src =
  let t = Interp.create () in
  let v = Interp.eval_value ?mode ~fuel:2_000_000 t src in
  ignore (Interp.take_output ());
  Value.to_string v

let ev_error src =
  let t = Interp.create () in
  match List.rev (Interp.eval_string t ~fuel:2_000_000 src) with
  | Interp.Error m :: _ -> m
  | r :: _ -> Alcotest.failf "expected error, got %s" (Interp.result_to_string r)
  | [] -> Alcotest.fail "no results"

let test_shadowing_behavior () =
  Alcotest.(check string) "lambda shadows global" "2"
    (ev "(define x 1) ((lambda (x) x) 2)");
  Alcotest.(check string) "inner let shadows outer" "3"
    (ev "(let ([x 1]) (+ (let ([x 2]) x) x))");
  Alcotest.(check string) "closure keeps its rib" "10"
    (ev
       "(define (adder n) (lambda (m) (+ n m)))\n\
        (define add3 (adder 3)) (define add7 (adder 7))\n\
        (- (add7 10) (add3 4))")

let test_letrec () =
  Alcotest.(check string) "mutual recursion" "#t"
    (ev
       "(letrec ([even? (lambda (n) (if (= n 0) #t (odd? (- n 1))))]\n\
       \         [odd?  (lambda (n) (if (= n 0) #f (even? (- n 1))))])\n\
       \  (even? 20))");
  Alcotest.(check string) "letrec body sees all slots" "6"
    (ev "(letrec ([f (lambda (n) (if (= n 0) 1 (* n (f (- n 1)))))]) (f 3))")

let test_rest_args_behavior () =
  Alcotest.(check string) "rest collects extras" "(1 2 3)"
    (ev "((lambda (a . rest) (cons a rest)) 1 2 3)");
  Alcotest.(check string) "empty rest" "(1)"
    (ev "((lambda (a . rest) (cons a rest)) 1)")

let test_set_local_and_global () =
  Alcotest.(check string) "set! local" "5" (ev "(let ([x 1]) (set! x 5) x)");
  Alcotest.(check string) "set! captured local" "3"
    (ev
       "(define mk (lambda () (let ([n 0]) (lambda () (set! n (+ n 1)) n))))\n\
        (define c (mk)) (c) (c) (c)");
  Alcotest.(check string) "set! global" "42" (ev "(define g 1) (set! g 42) g")

let test_unbound_by_name () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "use reports the name" true
    (contains (ev_error "(+ 1 no-such-var)") "no-such-var");
  Alcotest.(check bool) "set! reports the name" true
    (contains (ev_error "(set! no-such-target 1)") "no-such-target");
  (* Forward reference: resolution interns the cell before the define;
     calling before the define still errors by name, after it works. *)
  let t = Interp.create () in
  ignore (Interp.eval_string t "(define (f) (later))");
  (match List.rev (Interp.eval_string t ~fuel:1_000_000 "(f)") with
  | Interp.Error m :: _ ->
      Alcotest.(check bool) "forward ref errors by name" true (contains m "later")
  | _ -> Alcotest.fail "expected unbound error");
  ignore (Interp.eval_string t "(define (later) 11)");
  Alcotest.(check string) "define fills the interned cell" "11"
    (Value.to_string (Interp.eval_value t ~fuel:1_000_000 "(f)"))

(* ---------------- differential: golden programs under both drivers ----- *)

let read_file path =
  (* cwd is the test directory under `dune runtest`, the project root
     under `dune exec` — accept either. *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Machine-level control counters; scheduler-internal bookkeeping
   ("concur.*", "sync.*") legitimately exists only under the concurrent
   driver and is excluded.  The allocation-policy counters ("machine.pool.*",
   "machine.capture.moved") are also excluded: the one-shot move path is
   enabled only under the sequential driver (a concurrent sibling capture
   can package a pending pk application into a multi-shot tree), so pool
   reuse legitimately differs across drivers while the control counters —
   the observable cost model — must not. *)
let machine_counters t =
  let has_prefix p name =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  (Interp.config t).Machine.counters |> Counters.to_list
  |> List.filter (fun (name, _) ->
         not
           (has_prefix "concur." name || has_prefix "sync." name
           || has_prefix "machine.pool." name
           || name = "machine.capture.moved"))

let run_golden mode src =
  let t = Interp.create () in
  let results =
    Interp.eval_string t ~mode ~fuel:5_000_000 src
    |> List.map Interp.result_to_string
  in
  let output = Interp.take_output () in
  (results, output, machine_counters t)

let test_golden_differential () =
  List.iter
    (fun name ->
      let src = read_file (Filename.concat "golden" (name ^ ".scm")) in
      let seq_r, seq_out, seq_c = run_golden Interp.Sequential src in
      let conc_r, conc_out, conc_c =
        run_golden (Interp.Concurrent Concur.Round_robin) src
      in
      Alcotest.(check (list string)) (name ^ ": results") seq_r conc_r;
      Alcotest.(check string) (name ^ ": output") seq_out conc_out;
      Alcotest.(check (list (pair string int)))
        (name ^ ": control counters") seq_c conc_c)
    [ "product"; "validity"; "macros"; "wind"; "engines"; "errors" ]

let test_golden_concurrent_programs_agree () =
  (* Programs that genuinely fork agree on results and output across
     drivers; their counters legitimately differ (cross-branch control
     escapes to the scheduler instead of the machine). *)
  List.iter
    (fun name ->
      let src = read_file (Filename.concat "golden" (name ^ ".scm")) in
      let seq_r, seq_out, _ = run_golden Interp.Sequential src in
      let conc_r, conc_out, _ =
        run_golden (Interp.Concurrent Concur.Round_robin) src
      in
      Alcotest.(check (list string)) (name ^ ": results") seq_r conc_r;
      Alcotest.(check string) (name ^ ": output") seq_out conc_out)
    [ "search"; "futures" ]

(* ---------------- Driven pick-count contract ---------------- *)

(* The counts passed to [pick] are the number of live leaves each round.
   These exact sequences were recorded from the pre-run-queue scheduler
   (which recollected the forest every round); the incrementally
   maintained queue must present [pick] with the same counts. *)

let test_driven_counts_concur () =
  let trace = ref [] in
  let i = ref 0 in
  let pick n =
    trace := n :: !trace;
    incr i;
    !i mod n
  in
  let t = Interp.create () in
  let rs =
    Interp.eval_string t
      ~mode:
        (Interp.Concurrent (Concur.Driven_pids (fun pids -> pick (Array.length pids))))
      ~fuel:200_000 ~quantum:1
      "(pcall + (pcall + 1 2) (pcall * 2 3))"
  in
  (match List.rev rs with
  | Interp.Value v :: _ -> Alcotest.(check string) "result" "9" (Value.to_string v)
  | _ -> Alcotest.fail "expected a value");
  Alcotest.(check (list int)) "live-leaf counts"
    [ 1; 3; 5; 5; 5; 5; 7; 6; 6; 6; 5; 5; 4; 3; 2; 2; 2; 2; 2; 1; 1; 1; 1 ]
    (List.rev !trace)

let test_driven_counts_sched () =
  let trace = ref [] in
  let i = ref 0 in
  let pick n =
    trace := n :: !trace;
    incr i;
    !i mod n
  in
  let v =
    S.run ~policy:(S.Driven_pids (fun pids -> pick (Array.length pids))) (fun () ->
        let vs =
          S.pcall
            [
              (fun () ->
                S.yield ();
                1);
              (fun () -> 2 + List.hd (S.pcall [ (fun () -> 3) ]));
            ]
        in
        List.fold_left ( + ) 0 vs)
  in
  Alcotest.(check int) "result" 6 v;
  Alcotest.(check (list int)) "live-leaf counts" [ 1; 2; 2; 2; 1; 1; 1 ]
    (List.rev !trace)

let () =
  Alcotest.run "resolve"
    [
      ( "addresses",
        [
          Alcotest.test_case "shadowing" `Quick test_addresses_shadowing;
          Alcotest.test_case "rest args" `Quick test_addresses_rest_args;
          Alcotest.test_case "globals interned once" `Quick
            test_addresses_globals_interned;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "shadowing" `Quick test_shadowing_behavior;
          Alcotest.test_case "letrec" `Quick test_letrec;
          Alcotest.test_case "rest args" `Quick test_rest_args_behavior;
          Alcotest.test_case "set! local/global" `Quick test_set_local_and_global;
          Alcotest.test_case "unbound by name" `Quick test_unbound_by_name;
        ] );
      ( "differential",
        [
          Alcotest.test_case "golden programs, both drivers" `Quick
            test_golden_differential;
          Alcotest.test_case "concurrent goldens agree" `Quick
            test_golden_concurrent_programs_agree;
        ] );
      ( "driven-contract",
        [
          Alcotest.test_case "concur pick counts" `Quick test_driven_counts_concur;
          Alcotest.test_case "sched pick counts" `Quick test_driven_counts_sched;
        ] );
    ]
