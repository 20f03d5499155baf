(* Tests for the Section 7 implementation model: the process-stack machine,
   its primitives, the control operators, the two stack strategies and
   their instrumented costs (functional versions of experiments E1/E2). *)

open Pcont_pstack
module C = Pcont_util.Counters

let value = Alcotest.testable Value.pp Value.equal

let env () = Prims.base_env ()

let eval ?cfg ir = Run.eval_ir ?cfg (env ()) ir

let eval_v ?cfg ir =
  match eval ?cfg ir with
  | Run.Value v -> v
  | Run.Error msg -> Alcotest.failf "error: %s" msg
  | Run.Out_of_fuel -> Alcotest.fail "out of fuel"

let eval_err ir =
  match eval ir with
  | Run.Error msg -> msg
  | Run.Value v -> Alcotest.failf "expected error, got %s" (Value.to_string v)
  | Run.Out_of_fuel -> Alcotest.fail "out of fuel"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A little IR shorthand. *)
let ( @@@ ) f args = Ir.app f args

let v = Ir.var

let i = Ir.int

(* ---------------- values ---------------- *)

let test_list_roundtrip () =
  let l = Value.values_to_list [ Types.Int 1; Types.Int 2 ] in
  Alcotest.(check bool) "roundtrip" true
    (Value.list_to_values l = Some [ Types.Int 1; Types.Int 2 ]);
  Alcotest.(check bool) "improper" true
    (Value.list_to_values (Value.cons (Types.Int 1) (Types.Int 2)) = None)

let test_truthiness () =
  Alcotest.(check bool) "false" false (Value.is_truthy (Types.Bool false));
  Alcotest.(check bool) "zero is true" true (Value.is_truthy (Types.Int 0));
  Alcotest.(check bool) "nil is true" true (Value.is_truthy Types.Nil)

let test_eqv_equal () =
  let p1 = Value.cons (Types.Int 1) Types.Nil in
  let p2 = Value.cons (Types.Int 1) Types.Nil in
  Alcotest.(check bool) "eqv distinct pairs" false (Value.eqv p1 p2);
  Alcotest.(check bool) "eqv same pair" true (Value.eqv p1 p1);
  Alcotest.(check bool) "equal structural" true (Value.equal p1 p2);
  Alcotest.(check bool) "eqv ints" true (Value.eqv (Types.Int 3) (Types.Int 3));
  Alcotest.(check bool) "equal vectors" true
    (Value.equal (Types.Vector [| Types.Int 1 |]) (Types.Vector [| Types.Int 1 |]))

let test_printing () =
  Alcotest.(check string) "list" "(1 2)"
    (Value.to_string (Value.values_to_list [ Types.Int 1; Types.Int 2 ]));
  Alcotest.(check string) "dotted" "(1 . 2)"
    (Value.to_string (Value.cons (Types.Int 1) (Types.Int 2)));
  Alcotest.(check string) "string write" "\"hi\"" (Value.to_string (Types.Str "hi"));
  Alcotest.(check string) "string display" "hi" (Value.display_string (Types.Str "hi"))

(* ---------------- environments ---------------- *)

let test_env_shadowing () =
  (* Rib chains: depth 0 is the innermost rib. *)
  let e1 = [ [| Types.Int 1 |] ] in
  let e2 = [| Types.Int 2 |] :: e1 in
  Alcotest.check value "inner" (Types.Int 2) (Env.local e2 0 0);
  Alcotest.check value "outer" (Types.Int 1) (Env.local e2 1 0);
  Env.set_local e2 1 0 (Types.Int 9);
  Alcotest.check value "set through chain" (Types.Int 9) (Env.local e1 0 0)

let test_env_globals () =
  let e = env () in
  Env.define_global e "g" (Types.Int 7);
  Alcotest.check value "global" (Types.Int 7)
    (Option.get (Env.lookup_global e "g")).Types.gval;
  Env.define_global e "g" (Types.Int 8);
  Alcotest.check value "redefine" (Types.Int 8)
    (Option.get (Env.lookup_global e "g")).Types.gval;
  Alcotest.(check bool) "missing" true (Env.lookup_global e "missing" = None);
  (* A cell interned before its definition is the cell define later fills:
     forward references among top-level forms keep working. *)
  let c = Env.intern e "h" in
  Alcotest.(check bool) "interned unbound" false c.Types.gbound;
  Alcotest.(check bool) "unbound not visible" true (Env.lookup_global e "h" = None);
  Env.define_global e "h" (Types.Int 9);
  Alcotest.(check bool) "same cell bound" true c.Types.gbound;
  Alcotest.check value "same cell value" (Types.Int 9) c.Types.gval

let test_bind_params () =
  let clo =
    { Types.nparams = 2; has_rest = false; cbody = Ir.Rconst (Types.Int 0); cenv = [] }
  in
  (match Env.bind_params clo [ Types.Int 1; Types.Int 2 ] with
  | Ok e -> Alcotest.check value "bound" (Types.Int 2) (Env.local e 0 1)
  | Error m -> Alcotest.fail m);
  (match Env.bind_params clo [ Types.Int 1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity under");
  (match Env.bind_params clo [ Types.Int 1; Types.Int 2; Types.Int 3 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity over");
  let vclo = { clo with Types.has_rest = true } in
  match Env.bind_params vclo [ Types.Int 1; Types.Int 2; Types.Int 3 ] with
  | Ok e ->
      Alcotest.(check bool) "rest collected" true
        (Value.list_to_values (Env.local e 0 2) = Some [ Types.Int 3 ])
  | Error m -> Alcotest.fail m

(* ---------------- evaluation of core forms ---------------- *)

let test_eval_forms () =
  Alcotest.check value "const" (Types.Int 3) (eval_v (i 3));
  Alcotest.check value "if true" (Types.Int 1) (eval_v (Ir.if_ (Ir.bool true) (i 1) (i 2)));
  Alcotest.check value "if non-bool is true" (Types.Int 1)
    (eval_v (Ir.if_ (i 0) (i 1) (i 2)));
  Alcotest.check value "app" (Types.Int 9) (eval_v (Ir.lam [ "x" ] (v "x") @@@ [ i 9 ]));
  Alcotest.check value "seq" (Types.Int 2) (eval_v (Ir.seq [ i 1; i 2 ]));
  Alcotest.check value "empty seq" Types.Unit (eval_v (Ir.seq []));
  Alcotest.check value "let" (Types.Int 5)
    (eval_v (Ir.let_ [ ("x", i 2); ("y", i 3) ] (v "+" @@@ [ v "x"; v "y" ])));
  Alcotest.check value "let is parallel" (Types.Int 1)
    (eval_v (Ir.let_ [ ("x", i 1) ] (Ir.let_ [ ("x", i 2); ("y", v "x") ] (v "y"))));
  Alcotest.check value "quoted list"
    (Value.values_to_list [ Types.Int 1; Types.Sym "a" ])
    (eval_v (Ir.Quoted (Ir.Qlist [ Ir.Qint 1; Ir.Qsym "a" ])))

let test_letrec_and_set () =
  let fact =
    Ir.Letrec
      ( [
          ( "fact",
            Ir.lam [ "n" ]
              (Ir.if_
                 (v "zero?" @@@ [ v "n" ])
                 (i 1)
                 (v "*" @@@ [ v "n"; v "fact" @@@ [ v "-" @@@ [ v "n"; i 1 ] ] ])) );
        ],
        v "fact" @@@ [ i 6 ] )
  in
  Alcotest.check value "letrec factorial" (Types.Int 720) (eval_v fact);
  let mutual =
    Ir.Letrec
      ( [
          ( "even",
            Ir.lam [ "n" ]
              (Ir.if_ (v "zero?" @@@ [ v "n" ]) (Ir.bool true)
                 (v "odd" @@@ [ v "-" @@@ [ v "n"; i 1 ] ])) );
          ( "odd",
            Ir.lam [ "n" ]
              (Ir.if_ (v "zero?" @@@ [ v "n" ]) (Ir.bool false)
                 (v "even" @@@ [ v "-" @@@ [ v "n"; i 1 ] ])) );
        ],
        v "even" @@@ [ i 10 ] )
  in
  Alcotest.check value "mutual recursion" (Types.Bool true) (eval_v mutual);
  let setter = Ir.let_ [ ("x", i 1) ] (Ir.seq [ Ir.Set ("x", i 42); v "x" ]) in
  Alcotest.check value "set!" (Types.Int 42) (eval_v setter)

let test_eval_errors () =
  ignore (eval_err (v "nope"));
  ignore (eval_err (i 1 @@@ [ i 2 ]));
  ignore (eval_err (v "car" @@@ [ i 1 ]));
  ignore (eval_err (Ir.Set ("nope", i 1)));
  Alcotest.(check bool) "error text" true
    (contains ~sub:"boom" (eval_err (v "error" @@@ [ Ir.str "boom" ])))

let test_out_of_fuel () =
  let omega = Ir.Letrec ([ ("loop", Ir.lam [] (v "loop" @@@ [])) ], v "loop" @@@ []) in
  match Run.eval_ir ~fuel:500 (env ()) omega with
  | Run.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* ---------------- primitives ---------------- *)

let test_arith () =
  let checks =
    [
      (v "+" @@@ [], Types.Int 0);
      (v "+" @@@ [ i 1; i 2; i 3 ], Types.Int 6);
      (v "*" @@@ [ i 2; i 3; i 4 ], Types.Int 24);
      (v "-" @@@ [ i 5 ], Types.Int (-5));
      (v "-" @@@ [ i 10; i 3; i 2 ], Types.Int 5);
      (v "quotient" @@@ [ i 7; i 2 ], Types.Int 3);
      (v "remainder" @@@ [ i 7; i 2 ], Types.Int 1);
      (v "modulo" @@@ [ i (-7); i 3 ], Types.Int 2);
      (v "abs" @@@ [ i (-4) ], Types.Int 4);
      (v "min" @@@ [ i 3; i 1; i 2 ], Types.Int 1);
      (v "max" @@@ [ i 3; i 1; i 2 ], Types.Int 3);
      (v "1+" @@@ [ i 4 ], Types.Int 5);
      (v "1-" @@@ [ i 4 ], Types.Int 3);
    ]
  in
  List.iter (fun (e, expect) -> Alcotest.check value "arith" expect (eval_v e)) checks;
  ignore (eval_err (v "quotient" @@@ [ i 1; i 0 ]))

let test_comparisons () =
  let checks =
    [
      (v "=" @@@ [ i 1; i 1; i 1 ], true);
      (v "=" @@@ [ i 1; i 2 ], false);
      (v "<" @@@ [ i 1; i 2; i 3 ], true);
      (v "<" @@@ [ i 1; i 3; i 2 ], false);
      (v "<=" @@@ [ i 1; i 1; i 2 ], true);
      (v ">" @@@ [ i 3; i 2; i 1 ], true);
      (v ">=" @@@ [ i 3; i 3; i 1 ], true);
      (v "zero?" @@@ [ i 0 ], true);
      (v "even?" @@@ [ i 4 ], true);
      (v "odd?" @@@ [ i 4 ], false);
    ]
  in
  List.iter
    (fun (e, expect) -> Alcotest.check value "cmp" (Types.Bool expect) (eval_v e))
    checks

let test_pairs_and_lists () =
  Alcotest.check value "cons/car" (Types.Int 1)
    (eval_v (v "car" @@@ [ v "cons" @@@ [ i 1; i 2 ] ]));
  Alcotest.check value "length" (Types.Int 3)
    (eval_v (v "length" @@@ [ v "list" @@@ [ i 1; i 2; i 3 ] ]));
  Alcotest.check value "append"
    (Value.values_to_list [ Types.Int 1; Types.Int 2; Types.Int 3 ])
    (eval_v (v "append" @@@ [ v "list" @@@ [ i 1 ]; v "list" @@@ [ i 2; i 3 ] ]));
  Alcotest.check value "reverse"
    (Value.values_to_list [ Types.Int 2; Types.Int 1 ])
    (eval_v (v "reverse" @@@ [ v "list" @@@ [ i 1; i 2 ] ]));
  Alcotest.check value "list-ref" (Types.Int 20)
    (eval_v (v "list-ref" @@@ [ v "list" @@@ [ i 10; i 20 ]; i 1 ]));
  Alcotest.check value "set-car!" (Types.Int 99)
    (eval_v
       (Ir.let_
          [ ("p", v "cons" @@@ [ i 1; i 2 ]) ]
          (Ir.seq [ v "set-car!" @@@ [ v "p"; i 99 ]; v "car" @@@ [ v "p" ] ])));
  Alcotest.check value "memq found"
    (Value.values_to_list [ Types.Int 2; Types.Int 3 ])
    (eval_v (v "memq" @@@ [ i 2; v "list" @@@ [ i 1; i 2; i 3 ] ]));
  Alcotest.check value "memq missing" (Types.Bool false)
    (eval_v (v "memq" @@@ [ i 9; v "list" @@@ [ i 1 ] ]));
  Alcotest.check value "assq"
    (Value.values_to_list [ Types.Sym "b"; Types.Int 2 ])
    (eval_v
       (v "assq"
       @@@ [
             Ir.Quoted (Ir.Qsym "b");
             Ir.Quoted
               (Ir.Qlist
                  [ Ir.Qlist [ Ir.Qsym "a"; Ir.Qint 1 ]; Ir.Qlist [ Ir.Qsym "b"; Ir.Qint 2 ] ]);
           ]))

let test_strings_symbols () =
  Alcotest.check value "string-append" (Types.Str "ab")
    (eval_v (v "string-append" @@@ [ Ir.str "a"; Ir.str "b" ]));
  Alcotest.check value "string-length" (Types.Int 2)
    (eval_v (v "string-length" @@@ [ Ir.str "ab" ]));
  Alcotest.check value "substring" (Types.Str "bc")
    (eval_v (v "substring" @@@ [ Ir.str "abcd"; i 1; i 3 ]));
  Alcotest.check value "number->string" (Types.Str "42")
    (eval_v (v "number->string" @@@ [ i 42 ]));
  Alcotest.check value "string->number" (Types.Int 42)
    (eval_v (v "string->number" @@@ [ Ir.str "42" ]));
  Alcotest.check value "string->number bad" (Types.Bool false)
    (eval_v (v "string->number" @@@ [ Ir.str "x" ]));
  Alcotest.check value "symbol roundtrip" (Types.Sym "hey")
    (eval_v (v "string->symbol" @@@ [ v "symbol->string" @@@ [ Ir.sym "hey" ] ]))

let test_vectors () =
  Alcotest.check value "vector-ref" (Types.Int 2)
    (eval_v (v "vector-ref" @@@ [ v "vector" @@@ [ i 1; i 2 ]; i 1 ]));
  Alcotest.check value "vector-length" (Types.Int 3)
    (eval_v (v "vector-length" @@@ [ v "make-vector" @@@ [ i 3 ] ]));
  Alcotest.check value "vector-set!" (Types.Int 9)
    (eval_v
       (Ir.let_
          [ ("vec", v "make-vector" @@@ [ i 2; i 0 ]) ]
          (Ir.seq
             [
               v "vector-set!" @@@ [ v "vec"; i 1; i 9 ];
               v "vector-ref" @@@ [ v "vec"; i 1 ];
             ])));
  ignore (eval_err (v "vector-ref" @@@ [ v "vector" @@@ [ i 1 ]; i 5 ]))

let test_predicates () =
  let t e = Alcotest.check value "pred" (Types.Bool true) (eval_v e) in
  t (v "null?" @@@ [ Ir.Const Ir.Cnil ]);
  t (v "pair?" @@@ [ v "cons" @@@ [ i 1; i 2 ] ]);
  t (v "number?" @@@ [ i 1 ]);
  t (v "boolean?" @@@ [ Ir.bool true ]);
  t (v "symbol?" @@@ [ Ir.sym "s" ]);
  t (v "string?" @@@ [ Ir.str "s" ]);
  t (v "procedure?" @@@ [ v "car" ]);
  t (v "procedure?" @@@ [ Ir.lam [] (i 1) ]);
  t (v "not" @@@ [ Ir.bool false ]);
  t (v "eq?" @@@ [ Ir.sym "a"; Ir.sym "a" ]);
  t (v "equal?" @@@ [ v "list" @@@ [ i 1 ]; v "list" @@@ [ i 1 ] ])

let test_output () =
  ignore (Prims.take_output ());
  (match
     eval
       (Ir.seq
          [ v "display" @@@ [ Ir.str "hi " ]; v "write" @@@ [ Ir.str "s" ]; v "newline" @@@ [] ])
   with
  | Run.Value _ -> ()
  | _ -> Alcotest.fail "output program failed");
  Alcotest.(check string) "captured" "hi \"s\"\n" (Prims.take_output ())

let test_apply () =
  Alcotest.check value "apply" (Types.Int 6)
    (eval_v (v "apply" @@@ [ v "+"; v "list" @@@ [ i 1; i 2; i 3 ] ]));
  ignore (eval_err (v "apply" @@@ [ v "+"; i 1 ]))

(* ---------------- control operators ---------------- *)

let spawn_ e = v "spawn" @@@ [ e ]

let test_spawn_normal_return () =
  Alcotest.check value "transparent" (Types.Int 5) (eval_v (spawn_ (Ir.lam [ "c" ] (i 5))))

let test_controller_abort () =
  let t =
    spawn_ (Ir.lam [ "c" ] (v "+" @@@ [ i 1; v "c" @@@ [ Ir.lam [ "k" ] (i 10) ] ]))
  in
  Alcotest.check value "abort" (Types.Int 10) (eval_v t)

let test_pk_compose () =
  let t =
    spawn_
      (Ir.lam [ "c" ]
         (v "+"
         @@@ [ i 1; v "c" @@@ [ Ir.lam [ "k" ] (v "*" @@@ [ i 10; v "k" @@@ [ i 2 ] ]) ] ]))
  in
  Alcotest.check value "compose" (Types.Int 30) (eval_v t)

let test_pk_multishot () =
  let t =
    spawn_
      (Ir.lam [ "c" ]
         (v "+"
         @@@ [
               i 1;
               v "c" @@@ [ Ir.lam [ "k" ] (v "*" @@@ [ v "k" @@@ [ i 2 ]; v "k" @@@ [ i 3 ] ]) ];
             ]))
  in
  Alcotest.check value "(1+2)*(1+3)" (Types.Int 12) (eval_v t)

let test_controller_invalid () =
  let escaped = spawn_ (Ir.lam [ "c" ] (v "c")) @@@ [ Ir.lam [ "k" ] (v "k") ] in
  Alcotest.(check bool) "escaped" true (contains ~sub:"invalid" (eval_err escaped));
  let double =
    spawn_
      (Ir.lam [ "c" ] (v "c" @@@ [ Ir.lam [ "k" ] (v "c" @@@ [ Ir.lam [ "k2" ] (v "k2") ]) ]))
  in
  Alcotest.(check bool) "double" true (contains ~sub:"invalid" (eval_err double))

let test_reinstated_controller () =
  let inner = Ir.lam [ "k3" ] (v "k3") in
  let middle = Ir.lam [ "k2" ] (v "k2" @@@ [ inner ]) in
  let outer = Ir.lam [ "k" ] (v "k" @@@ [ middle ]) in
  let t = spawn_ (Ir.lam [ "c" ] (v "c" @@@ [ v "c" @@@ [ outer ] ])) @@@ [ i 42 ] in
  Alcotest.check value "identity" (Types.Int 42) (eval_v t)

let test_nested_spawn_inner_exit () =
  let t =
    spawn_
      (Ir.lam [ "c1" ]
         (v "+"
         @@@ [
               i 100;
               spawn_
                 (Ir.lam [ "c2" ] (v "+" @@@ [ i 10; v "c1" @@@ [ Ir.lam [ "k" ] (i 1) ] ]));
             ]))
  in
  Alcotest.check value "outer exit" (Types.Int 1) (eval_v t)

let test_callcc_escape () =
  let t = v "call/cc" @@@ [ Ir.lam [ "k" ] (v "+" @@@ [ v "k" @@@ [ i 0 ]; i 1 ]) ] in
  Alcotest.check value "escape" (Types.Int 0) (eval_v t)

let test_callcc_normal () =
  Alcotest.check value "no invoke" (Types.Int 9)
    (eval_v (v "call/cc" @@@ [ Ir.lam [ "k" ] (i 9) ]))

let test_callcc_abortive () =
  let t =
    v "+"
    @@@ [ i 1; v "call/cc" @@@ [ Ir.lam [ "k" ] (v "*" @@@ [ i 2; v "k" @@@ [ i 10 ] ]) ] ]
  in
  Alcotest.check value "abortive" (Types.Int 11) (eval_v t)

let test_prompt_fcontrol () =
  let t =
    v "prompt"
    @@@ [
          Ir.lam []
            (v "+" @@@ [ i 1; v "fcontrol" @@@ [ Ir.lam [ "fk" ] (v "fk" @@@ [ i 5 ]) ] ]);
        ]
  in
  Alcotest.check value "fcontrol compose" (Types.Int 6) (eval_v t);
  let t2 =
    v "+"
    @@@ [
          i 100;
          v "prompt"
          @@@ [ Ir.lam [] (v "+" @@@ [ i 1; v "fcontrol" @@@ [ Ir.lam [ "fk" ] (i 7) ] ]) ];
        ]
  in
  Alcotest.check value "fcontrol abort" (Types.Int 107) (eval_v t2)

let test_fcontrol_erases_spawn_roots () =
  (* Section 3's argument made executable: F captures across a spawn root,
     erasing it, so the controller becomes invalid afterwards. *)
  let t =
    v "prompt"
    @@@ [
          Ir.lam []
            (spawn_
               (Ir.lam [ "c" ]
                  (Ir.seq
                     [
                       v "fcontrol" @@@ [ Ir.lam [ "fk" ] (v "fk" @@@ [ i 0 ]) ];
                       v "c" @@@ [ Ir.lam [ "k" ] (i 1) ];
                     ])));
        ]
  in
  Alcotest.(check bool) "controller invalidated by F" true
    (contains ~sub:"invalid" (eval_err t))

let test_pcall_sequential () =
  Alcotest.check value "pcall applies" (Types.Int 6)
    (eval_v (Ir.Pcall [ v "+"; i 1; i 2; i 3 ]));
  Alcotest.check value "pcall operator computed" (Types.Int 3)
    (eval_v (Ir.Pcall [ Ir.if_ (Ir.bool true) (v "+") (v "*"); i 1; i 2 ]))

(* ---------------- dynamic-wind (Subcontinuations 1994 extension) ----- *)

(* Evaluate through the Scheme layer for readability of the wind tests. *)
let wind_log src =
  let t = Pcont_syntax.Interp.create () in
  ignore
    (Pcont_syntax.Interp.eval_string t
       "(define log '()) (define (note x) (set! log (cons x log)))");
  ignore (Pcont_syntax.Interp.eval_string t src);
  Pcont_pstack.Value.to_string (Pcont_syntax.Interp.eval_value t "(reverse log)")

let test_wind_normal_return () =
  Alcotest.(check string) "in body out" "(in body out)"
    (wind_log
       "(dynamic-wind (lambda () (note 'in)) (lambda () (note 'body) 5) (lambda () (note 'out)))")

let test_wind_abort_runs_after () =
  Alcotest.(check string) "abort exits the extent" "(in body out)"
    (wind_log
       "(spawn/exit (lambda (exit)
          (dynamic-wind (lambda () (note 'in))
                        (lambda () (note 'body) (exit 9) (note 'unreached))
                        (lambda () (note 'out)))))")

let test_wind_nested_abort_order () =
  Alcotest.(check string) "inner after first" "(in1 in2 out2 out1)"
    (wind_log
       "(spawn/exit (lambda (exit)
          (dynamic-wind (lambda () (note 'in1))
            (lambda ()
              (dynamic-wind (lambda () (note 'in2))
                            (lambda () (exit 0))
                            (lambda () (note 'out2))))
            (lambda () (note 'out1)))))")

let test_wind_multishot_reenters () =
  (* Each invocation of the process continuation re-enters (before) and
     exits (after) the captured wind. *)
  Alcotest.(check string) "bracketed per reinstatement" "(in out in out in out)"
    (wind_log
       "(spawn (lambda (c)
          (dynamic-wind
            (lambda () (note 'in))
            (lambda () (+ 1 (c (lambda (k) (* (k 2) (k 3))))))
            (lambda () (note 'out)))))")

let test_wind_value_passthrough () =
  Alcotest.check value "wind returns body value" (Types.Int 5)
    (eval_v
       (v "dynamic-wind"
       @@@ [ Ir.lam [] (i 1); Ir.lam [] (i 5); Ir.lam [] (i 2) ]))

let test_wind_callcc_does_not_unwind () =
  (* Pinned behavior: call/cc jumps do NOT run winders (controller-based
     control is the supported discipline; Section 3 argues call/cc is the
     wrong tool here anyway). *)
  Alcotest.(check string) "no after on call/cc escape" "(in body)"
    (wind_log
       "(call/cc (lambda (k)
          (dynamic-wind (lambda () (note 'in))
                        (lambda () (note 'body) (k 0))
                        (lambda () (note 'out)))))")

(* ---------------- strategies and instrumented costs (E1/E2) ---------------- *)

(* Capture under [frames] pending additions: the captured segment holds
   that many frames. *)
let capture_program ~frames =
  let rec deep n inner = if n = 0 then inner else v "+" @@@ [ i 1; deep (n - 1) inner ] in
  spawn_ (Ir.lam [ "c" ] (deep frames (v "c" @@@ [ Ir.lam [ "k" ] (v "k" @@@ [ i 0 ]) ])))

(* Capture across [roots] nested spawn roots: the innermost body exits
   through the outermost controller, then resumes. *)
let nested_roots_program ~roots =
  let rec build level inner =
    if level > roots then inner
    else spawn_ (Ir.lam [ Printf.sprintf "c%d" level ] (build (level + 1) inner))
  in
  build 1 (v "c1" @@@ [ Ir.lam [ "k" ] (v "k" @@@ [ i 0 ]) ])

let run_with_strategy strategy ir =
  let cfg = Machine.config ~strategy () in
  match Run.eval_ir ~cfg (env ()) ir with
  | Run.Value _ -> cfg.Machine.counters
  | Run.Error m -> Alcotest.failf "error: %s" m
  | Run.Out_of_fuel -> Alcotest.fail "fuel"

let test_linked_cost_independent_of_frames () =
  let c1 = run_with_strategy Types.Linked (capture_program ~frames:5) in
  let c2 = run_with_strategy Types.Linked (capture_program ~frames:500) in
  Alcotest.(check int) "segments moved equal"
    (C.get c1 "capture.segments")
    (C.get c2 "capture.segments");
  Alcotest.(check int) "no frame copying" 0 (C.get c2 "capture.frames")

let test_copying_cost_linear_in_frames () =
  let c1 = run_with_strategy Types.Copying (capture_program ~frames:10) in
  let c2 = run_with_strategy Types.Copying (capture_program ~frames:100) in
  let f1 = C.get c1 "capture.frames" and f2 = C.get c2 "capture.frames" in
  Alcotest.(check bool) "frames grow" true (f2 > f1 + 80);
  let v1 =
    eval_v ~cfg:(Machine.config ~strategy:Types.Linked ()) (capture_program ~frames:50)
  in
  let v2 =
    eval_v ~cfg:(Machine.config ~strategy:Types.Copying ()) (capture_program ~frames:50)
  in
  Alcotest.check value "strategies agree" v1 v2

let test_capture_cost_linear_in_roots () =
  let segs n = C.get (run_with_strategy Types.Linked (nested_roots_program ~roots:n)) "capture.segments" in
  Alcotest.(check int) "6 more segments for 6 more roots" (segs 2 + 6) (segs 8)

let test_counter_events () =
  let c = run_with_strategy Types.Linked (capture_program ~frames:3) in
  Alcotest.(check int) "one spawn" 1 (C.get c "spawn");
  Alcotest.(check int) "one controller capture" 1 (C.get c "controller");
  Alcotest.(check int) "one pk invoke" 1 (C.get c "pk-invoke")

(* ---------------- capture fast path (segment pool + one-shot move) -------- *)

(* The linearity analyzer on hand-built resolved bodies: [k] is the
   controller body's parameter, [Rlocal (depth, 0)]. *)
let test_linear_pk_use_classifier () =
  let check name expect body =
    Alcotest.(check bool) name expect (Machine.linear_pk_use body)
  in
  let kapp d arg : Types.rir = Ir.Rapp (Ir.Rlocal (d, 0), [ arg ]) in
  let zero : Types.rir = Ir.Rconst (Types.Int 0) in
  check "(k 0) is linear" true (kapp 0 zero);
  check "abort (k unused) is linear" true zero;
  check "bare k escapes" false (Ir.Rlocal (0, 0));
  check "two sequential uses" false (Ir.Rseq [ kapp 0 zero; kapp 0 zero ]);
  check "one use per if branch" true (Ir.Rif (zero, kapp 0 zero, zero));
  check "branch use plus sequence use" false
    (Ir.Rseq [ Ir.Rif (zero, kapp 0 zero, zero); kapp 0 zero ]);
  check "k smuggled into a closure" false
    (Ir.Rlam { Ir.rnparams = 1; rhas_rest = false; rbody = kapp 1 zero });
  check "k-free closure is fine" true
    (Ir.Rseq
       [ Ir.Rlam { Ir.rnparams = 0; rhas_rest = false; rbody = zero }; kapp 0 zero ]);
  check "unknown application rejects" false
    (Ir.Rapp (Ir.Rlam { Ir.rnparams = 0; rhas_rest = false; rbody = zero }, []));
  check "k under let, depth-adjusted" true (Ir.Rlet ([ zero ], kapp 1 zero));
  check "non-simple argument rejects" false (kapp 0 (kapp 0 zero))

let test_oneshot_move_and_fallback () =
  (* A linear body takes the move path; a multi-shot body falls back to
     the pinned representation and still reinstates twice, producing the
     same answer with the fast path on and off. *)
  let cfg = Machine.config () in
  Alcotest.check value "one-shot result" (Types.Int 5)
    (eval_v ~cfg (capture_program ~frames:5));
  Alcotest.(check int) "capture moved" 1
    (C.get cfg.Machine.counters "machine.capture.moved");
  let multishot =
    spawn_
      (Ir.lam [ "c" ]
         (v "+"
         @@@ [
               i 1;
               v "c"
               @@@ [ Ir.lam [ "k" ] (v "*" @@@ [ v "k" @@@ [ i 2 ]; v "k" @@@ [ i 3 ] ]) ];
             ]))
  in
  let cfg2 = Machine.config () in
  Alcotest.check value "multi-shot applied twice" (Types.Int 12) (eval_v ~cfg:cfg2 multishot);
  Alcotest.(check int) "multi-shot not moved" 0
    (C.get cfg2.Machine.counters "machine.capture.moved");
  Alcotest.check value "one-shot agrees with fastpath off" (Types.Int 5)
    (eval_v ~cfg:(Machine.config ~fastpath:false ()) (capture_program ~frames:5));
  Alcotest.check value "multi-shot agrees with fastpath off" (Types.Int 12)
    (eval_v ~cfg:(Machine.config ~fastpath:false ()) multishot)

let test_abort_recycles_into_pool () =
  (* Each spawn aborts ([k] unused), so its segment is recycled at the
     capture and every spawn after the first is served from the pool. *)
  let abort = spawn_ (Ir.lam [ "c" ] (v "c" @@@ [ Ir.lam [ "k" ] (i 5) ])) in
  let cfg = Machine.config () in
  Alcotest.check value "aborts" (Types.Int 5)
    (eval_v ~cfg (Ir.seq [ abort; abort; abort ]));
  Alcotest.(check bool) "pool reuse" true
    (C.get cfg.Machine.counters "machine.pool.hit" >= 2);
  Alcotest.(check int) "all three took the move path" 3
    (C.get cfg.Machine.counters "machine.capture.moved")

let test_escaped_pk_stays_multishot () =
  (* The body returns [k] itself, so the capture must pin (multi-shot):
     the escaped continuation is applied twice after the spawn finished,
     splicing the same pinned segment back both times. *)
  let prog =
    Ir.let_
      [ ("pk", spawn_ (Ir.lam [ "c" ] (v "c" @@@ [ Ir.lam [ "k" ] (v "k") ]))) ]
      (v "+" @@@ [ v "pk" @@@ [ i 1 ]; v "pk" @@@ [ i 2 ] ])
  in
  let cfg = Machine.config () in
  Alcotest.check value "escaped pk applied twice" (Types.Int 3) (eval_v ~cfg prog);
  Alcotest.(check int) "not classified one-shot" 0
    (C.get cfg.Machine.counters "machine.capture.moved");
  Alcotest.(check int) "two reinstates" 2 (C.get cfg.Machine.counters "pk-invoke")

let test_nested_capture_value () =
  Alcotest.check value "nested capture result" (Types.Int 0)
    (eval_v (nested_roots_program ~roots:4))

(* ---------------- property-based tests ---------------- *)

(* Random pure IR programs: the two strategies must agree everywhere. *)
let gen_ir =
  let open QCheck.Gen in
  let rec go env n =
    if n <= 0 then
      oneof
        [
          map Ir.int small_int;
          map Ir.bool bool;
          (if env = [] then map Ir.int small_int else map Ir.var (oneofl env));
        ]
    else
      frequency
        [
          (2, map Ir.int small_int);
          (3, let* x = oneofl [ "p"; "q"; "r" ] in
              let* body = go (x :: env) (n / 2) in
              let* arg = go env (n / 2) in
              return (Ir.lam [ x ] body @@@ [ arg ]));
          (2, let* a = go env (n / 2) in
              let* b = go env (n / 2) in
              return (v "+" @@@ [ a; b ]));
          (2, let* c = go env (n / 3) in
              let* a = go env (n / 3) in
              let* b = go env (n / 3) in
              return (Ir.if_ c a b));
          (1, let* a = go env (n / 2) in
              let* b = go env (n / 2) in
              return (Ir.Pcall [ v "+"; a; b ]));
          (1, let* body = go ("cc" :: env) (n / 2) in
              return (spawn_ (Ir.lam [ "cc" ] body)));
        ]
  in
  go [] 10

let arb_ir = QCheck.make gen_ir ~print:Ir.to_string

let prop_strategies_agree =
  QCheck.Test.make ~name:"Linked and Copying agree" ~count:300 arb_ir (fun ir ->
      let run s =
        match Run.eval_ir ~fuel:20_000 ~cfg:(Machine.config ~strategy:s ()) (env ()) ir with
        | Run.Value v -> "v:" ^ Value.to_string v
        | Run.Error m -> "e:" ^ m
        | Run.Out_of_fuel -> "fuel"
      in
      run Types.Linked = run Types.Copying)

let prop_pure_deterministic =
  QCheck.Test.make ~name:"evaluation deterministic" ~count:200 arb_ir (fun ir ->
      let run () =
        match Run.eval_ir ~fuel:20_000 (env ()) ir with
        | Run.Value v -> "v:" ^ Value.to_string v
        | Run.Error m -> "e:" ^ m
        | Run.Out_of_fuel -> "fuel"
      in
      run () = run ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pstack"
    [
      ( "values",
        [
          Alcotest.test_case "list roundtrip" `Quick test_list_roundtrip;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          Alcotest.test_case "eqv/equal" `Quick test_eqv_equal;
          Alcotest.test_case "printing" `Quick test_printing;
        ] );
      ( "env",
        [
          Alcotest.test_case "shadowing" `Quick test_env_shadowing;
          Alcotest.test_case "globals" `Quick test_env_globals;
          Alcotest.test_case "bind_params" `Quick test_bind_params;
        ] );
      ( "forms",
        [
          Alcotest.test_case "core forms" `Quick test_eval_forms;
          Alcotest.test_case "letrec and set!" `Quick test_letrec_and_set;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "fuel" `Quick test_out_of_fuel;
        ] );
      ( "prims",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "pairs and lists" `Quick test_pairs_and_lists;
          Alcotest.test_case "strings and symbols" `Quick test_strings_symbols;
          Alcotest.test_case "vectors" `Quick test_vectors;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "output capture" `Quick test_output;
          Alcotest.test_case "apply" `Quick test_apply;
        ] );
      ( "control",
        [
          Alcotest.test_case "spawn normal return" `Quick test_spawn_normal_return;
          Alcotest.test_case "controller aborts" `Quick test_controller_abort;
          Alcotest.test_case "pk composes" `Quick test_pk_compose;
          Alcotest.test_case "pk multi-shot" `Quick test_pk_multishot;
          Alcotest.test_case "invalid controllers" `Quick test_controller_invalid;
          Alcotest.test_case "reinstated controller" `Quick test_reinstated_controller;
          Alcotest.test_case "exit across nested spawn" `Quick test_nested_spawn_inner_exit;
          Alcotest.test_case "call/cc escape" `Quick test_callcc_escape;
          Alcotest.test_case "call/cc unused" `Quick test_callcc_normal;
          Alcotest.test_case "call/cc abortive" `Quick test_callcc_abortive;
          Alcotest.test_case "prompt and fcontrol" `Quick test_prompt_fcontrol;
          Alcotest.test_case "F erases spawn roots" `Quick test_fcontrol_erases_spawn_roots;
          Alcotest.test_case "pcall sequential" `Quick test_pcall_sequential;
        ] );
      ( "dynamic-wind",
        [
          Alcotest.test_case "normal return" `Quick test_wind_normal_return;
          Alcotest.test_case "abort runs after" `Quick test_wind_abort_runs_after;
          Alcotest.test_case "nested abort order" `Quick test_wind_nested_abort_order;
          Alcotest.test_case "multi-shot re-entry" `Quick test_wind_multishot_reenters;
          Alcotest.test_case "value passthrough" `Quick test_wind_value_passthrough;
          Alcotest.test_case "call/cc does not unwind (pinned)" `Quick
            test_wind_callcc_does_not_unwind;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "linked cost independent of frames" `Quick
            test_linked_cost_independent_of_frames;
          Alcotest.test_case "copying cost linear in frames" `Quick
            test_copying_cost_linear_in_frames;
          Alcotest.test_case "cost linear in roots" `Quick test_capture_cost_linear_in_roots;
          Alcotest.test_case "counter events" `Quick test_counter_events;
          Alcotest.test_case "nested capture value" `Quick test_nested_capture_value;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "linearity classifier" `Quick test_linear_pk_use_classifier;
          Alcotest.test_case "one-shot move, multi-shot fallback" `Quick
            test_oneshot_move_and_fallback;
          Alcotest.test_case "abort recycles into pool" `Quick
            test_abort_recycles_into_pool;
          Alcotest.test_case "escaped pk stays multi-shot" `Quick
            test_escaped_pk_stays_multishot;
        ] );
      ("properties", qsuite [ prop_strategies_agree; prop_pure_deterministic ]);
    ]
