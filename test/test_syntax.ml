(* Tests for the Scheme front end: reader, expander, prelude, interpreter. *)

module Reader = Pcont_syntax.Reader
module Expand = Pcont_syntax.Expand
module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack

let datum = Alcotest.testable Reader.pp ( = )

let parse_ok src =
  match Reader.parse src with
  | Ok d -> d
  | Error msg -> Alcotest.failf "parse error: %s" msg

let parse_err src =
  match Reader.parse src with
  | Error msg -> msg
  | Ok d -> Alcotest.failf "expected parse error, got %s" (Reader.to_string d)

(* ---------------- reader ---------------- *)

let test_read_atoms () =
  Alcotest.check datum "int" (Reader.Dint 42) (parse_ok "42");
  Alcotest.check datum "negative" (Reader.Dint (-7)) (parse_ok "-7");
  Alcotest.check datum "plus" (Reader.Dint 7) (parse_ok "+7");
  Alcotest.check datum "true" (Reader.Dbool true) (parse_ok "#t");
  Alcotest.check datum "false" (Reader.Dbool false) (parse_ok "#f");
  Alcotest.check datum "symbol" (Reader.Dsym "foo-bar!") (parse_ok "foo-bar!");
  Alcotest.check datum "minus symbol" (Reader.Dsym "-") (parse_ok "-");
  Alcotest.check datum "arrow symbol" (Reader.Dsym "->x") (parse_ok "->x");
  Alcotest.check datum "char" (Reader.Dchar 'a') (parse_ok "#\\a");
  Alcotest.check datum "space" (Reader.Dchar ' ') (parse_ok "#\\space");
  Alcotest.check datum "newline" (Reader.Dchar '\n') (parse_ok "#\\newline")

let test_read_strings () =
  Alcotest.check datum "plain" (Reader.Dstr "hi") (parse_ok "\"hi\"");
  Alcotest.check datum "escapes" (Reader.Dstr "a\nb\"c\\") (parse_ok "\"a\\nb\\\"c\\\\\"");
  ignore (parse_err "\"unterminated")

let test_read_lists () =
  Alcotest.check datum "flat"
    (Reader.Dlist [ Reader.Dsym "+"; Reader.Dint 1; Reader.Dint 2 ])
    (parse_ok "(+ 1 2)");
  Alcotest.check datum "nested"
    (Reader.Dlist [ Reader.Dlist []; Reader.Dlist [ Reader.Dint 1 ] ])
    (parse_ok "(() (1))");
  Alcotest.check datum "brackets"
    (Reader.Dlist [ Reader.Dsym "x"; Reader.Dint 1 ])
    (parse_ok "[x 1]");
  Alcotest.check datum "dotted"
    (Reader.Ddot ([ Reader.Dint 1; Reader.Dint 2 ], Reader.Dint 3))
    (parse_ok "(1 2 . 3)");
  Alcotest.check datum "quote sugar"
    (Reader.Dlist [ Reader.Dsym "quote"; Reader.Dsym "x" ])
    (parse_ok "'x");
  ignore (parse_err "(1 2");
  ignore (parse_err ")");
  ignore (parse_err "(1 . 2 3)")

let test_read_comments_and_all () =
  Alcotest.check datum "comment skipped" (Reader.Dint 1) (parse_ok "; hello\n 1 ; bye");
  match Reader.parse_all "1 2 (3)" with
  | Ok [ Reader.Dint 1; Reader.Dint 2; Reader.Dlist [ Reader.Dint 3 ] ] -> ()
  | Ok ds -> Alcotest.failf "got %d data" (List.length ds)
  | Error m -> Alcotest.fail m

let test_read_roundtrip () =
  let src = "(define (f x . rest) (if (< x 1) '(a \"s\" #\\c) [g 2]))" in
  let d = parse_ok src in
  let d2 = parse_ok (Reader.to_string d) in
  Alcotest.check datum "print/parse roundtrip" d d2

(* Reader fuzzing: print/parse roundtrip over generated data. *)
let gen_datum =
  let open QCheck.Gen in
  let sym = oneofl [ "a"; "foo"; "set!"; "x-y"; "<=?"; "..." ] in
  let rec go n =
    if n <= 0 then
      oneof
        [
          map (fun i -> Reader.Dint i) small_signed_int;
          map (fun b -> Reader.Dbool b) bool;
          map (fun s -> Reader.Dsym s) sym;
          map (fun s -> Reader.Dstr s) (string_size ~gen:(char_range 'a' 'z') (return 4));
          map (fun c -> Reader.Dchar c) (char_range 'a' 'z');
        ]
    else
      frequency
        [
          (2, go 0);
          (2, map (fun ds -> Reader.Dlist ds) (list_size (int_bound 4) (go (n / 2))));
          (1, let* ds = list_size (int_range 1 3) (go (n / 2)) in
              let* tail = go 0 in
              (* a dotted tail that is itself a list would reparse as a
                 longer proper list; keep tails atomic and non-list *)
              return (Reader.Ddot (ds, tail)));
        ]
  in
  go 6

let prop_reader_roundtrip =
  QCheck.Test.make ~name:"reader print/parse roundtrip" ~count:500
    (QCheck.make gen_datum ~print:Reader.to_string)
    (fun d ->
      match Reader.parse (Reader.to_string d) with
      | Ok d' -> d = d'
      | Error _ -> false)

(* ---------------- expander / evaluation helpers ---------------- *)

let ev ?mode src =
  let t = Interp.create () in
  Interp.eval_value ?mode t src

let check_int ?mode name expect src =
  match ev ?mode src with
  | Pstack.Types.Int n -> Alcotest.(check int) name expect n
  | v -> Alcotest.failf "%s: expected int, got %s" name (Pstack.Value.to_string v)

let check_bool ?mode name expect src =
  match ev ?mode src with
  | Pstack.Types.Bool b -> Alcotest.(check bool) name expect b
  | v -> Alcotest.failf "%s: expected bool, got %s" name (Pstack.Value.to_string v)

let check_str_value ?mode name expect src =
  Alcotest.(check string) name expect (Pstack.Value.to_string (ev ?mode src))

let expand_err src =
  match Expand.parse_program src with
  | Error m -> m
  | Ok _ -> Alcotest.failf "expected expansion error for %s" src

let test_expand_basic_forms () =
  check_int "lambda/app" 3 "((lambda (x y) (+ x y)) 1 2)";
  check_int "variadic" 3 "((lambda args (length args)) 1 2 3)";
  check_int "rest" 2 "((lambda (a . rest) (length rest)) 1 2 3)";
  check_int "begin" 2 "(begin 1 2)";
  check_int "two-armed if" 1 "(if #t 1)";
  check_str_value "one-armed if false" "#!void" "(if #f 1)";
  check_int "let" 3 "(let ([x 1] [y 2]) (+ x y))";
  check_int "let*" 3 "(let* ([x 1] [y (+ x 1)]) (+ x y))";
  check_int "letrec" 120
    "(letrec ([f (lambda (n) (if (zero? n) 1 (* n (f (- n 1)))))]) (f 5))";
  check_int "named let" 55
    "(let loop ([i 0] [acc 0]) (if (> i 10) acc (loop (+ i 1) (+ acc i))))";
  check_int "set!" 9 "(let ([x 1]) (set! x 9) x)"

let test_expand_cond_case () =
  check_int "cond first" 1 "(cond [#t 1] [else 2])";
  check_int "cond else" 2 "(cond [#f 1] [else 2])";
  check_int "cond test-only" 7 "(cond [#f] [7] [else 9])";
  check_str_value "cond empty" "#!void" "(cond [#f 1])";
  check_int "case hit" 2 "(case (+ 1 1) [(1) 1] [(2 3) 2] [else 9])";
  check_int "case else" 9 "(case 42 [(1) 1] [else 9])";
  check_bool "case quoted keys" true "(eq? 'two (case 2 [(1) 'one] [(2) 'two]))"

let test_expand_and_or_when_unless () =
  check_bool "and empty" true "(and)";
  check_int "and value" 3 "(and 1 2 3)";
  check_bool "and short" false "(and #f (error \"not reached\"))";
  check_bool "or empty" false "(or)";
  check_int "or first" 1 "(or 1 (error \"not reached\"))";
  check_int "or skips false" 2 "(or #f 2)";
  check_int "when true" 5 "(when #t 4 5)";
  check_str_value "when false" "#!void" "(when #f 4 5)";
  check_int "unless false" 5 "(unless #f 4 5)"

let test_expand_defines () =
  check_int "define value" 7 "(define x 7) x";
  check_int "define function" 9 "(define (sq n) (* n n)) (sq 3)";
  check_int "define rest" 2 "(define (f . xs) (length xs)) (f 1 2)";
  check_int "internal define" 10 "(define (f) (define a 4) (define b 6) (+ a b)) (f)";
  check_int "internal define recursive" 8
    "(define (f) (define (dbl n) (* 2 n)) (dbl 4)) (f)"

let test_expand_errors () =
  ignore (expand_err "(lambda (x))");
  ignore (expand_err "(if)");
  ignore (expand_err "()");
  ignore (expand_err "(let ([x]) x)");
  ignore (expand_err "(set! 1 2)");
  ignore (expand_err "(define)");
  ignore (expand_err "(quote a b)");
  ignore (expand_err "(cond [else 1] [#t 2])");
  ignore (expand_err "(pcall)")

let test_quote () =
  check_str_value "quoted list" "(1 2 3)" "'(1 2 3)";
  check_str_value "nested" "(a (b c))" "'(a (b c))";
  check_str_value "dotted" "(1 . 2)" "'(1 . 2)";
  check_bool "quote equal" true "(equal? '(1 2) (list 1 2))";
  check_bool "quote fresh per eval" true "(define (f) '(1 2)) (equal? (f) (f))"

(* ---------------- extend-syntax macros ---------------- *)

let eval_err src =
  let t = Interp.create () in
  match List.rev (Interp.eval_string t src) with
  | Interp.Error m :: _ -> m
  | r :: _ -> Alcotest.failf "expected error, got %s" (Interp.result_to_string r)
  | [] -> Alcotest.fail "no results"

let test_macro_paper_let () =
  (* The paper's Section 2 example verbatim: defining let by macro — and it
     shadows the built-in let. *)
  check_int "paper's let" 3
    {|
(extend-syntax (let)
  [(let ([x v] ...) e1 e2 ...)
   ((lambda (x ...) e1 e2 ...) v ...)])
(let ([a 1] [b 2]) (+ a b))
|}

let test_macro_paper_parallel_or () =
  (* The paper's Section 5 extend-syntax definition of parallel-or (named
     apart so it uses the prelude's first-true through the macro). *)
  check_int "macro parallel-or" 17
    ~mode:(Interp.Concurrent Pcont_pstack.Concur.Round_robin)
    {|
(extend-syntax (por)
  [(por e1 e2)
   (first-true (lambda () e1) (lambda () e2))])
(por #f 17)
|}

let test_macro_multi_rule_recursive () =
  check_int "recursive multi-rule" 9
    {|
(extend-syntax (my-or)
  [(my-or) #f]
  [(my-or e) e]
  [(my-or e1 e2 ...) (let ([t e1]) (if t t (my-or e2 ...)))])
(my-or #f #f 9)
|}

let test_macro_keywords () =
  check_str_value "auxiliary keywords" "(10 20 30)"
    {|
(extend-syntax (collect in)
  [(collect e in ls) (map1 (lambda (it) e) ls)])
(collect (* 10 it) in '(1 2 3))
|};
  (* A use where the literal keyword is missing matches no rule. *)
  let msg = eval_err
    {|
(extend-syntax (collect in)
  [(collect e in ls) (map1 (lambda (it) e) ls)])
(collect 1 2 3)
|}
  in
  Alcotest.(check bool) "keyword mismatch errors" true (String.length msg > 0)

let test_macro_nested_ellipsis () =
  check_str_value "nested ellipses" "((1 2) (3 4 5))"
    {|
(extend-syntax (rows)
  [(rows (x ...) ...) (list (list x ...) ...)])
(rows (1 2) (3 4 5))
|}

let test_macro_dotted_pattern () =
  check_int "dotted pattern" 6
    {|
(extend-syntax (app2)
  [(app2 f . args) (f . args)])
(app2 + 1 2 3)
|}

let test_macro_wildcard_and_literals () =
  check_int "wildcard" 1 "(extend-syntax (fst) [(fst a _) a]) (fst 1 2)";
  check_int "literal int in pattern" 99
    {|
(extend-syntax (zero-means)
  [(zero-means 0 e) e]
  [(zero-means n e) n])
(zero-means 0 99)
|}

let test_macro_errors () =
  let m1 = eval_err "(extend-syntax (bad) [(bad x) (bad x)]) (bad 1)" in
  Alcotest.(check bool) "expansion loop detected" true
    (String.length m1 > 0);
  let m2 = eval_err "(extend-syntax (m) [(m x) y ...])" in
  ignore m2;
  let m3 = eval_err "(extend-syntax 42 [(m) 1])" in
  Alcotest.(check bool) "malformed definition" true (String.length m3 > 0);
  (match Expand.parse_program "(extend-syntax (m) [(m a) (list a ...)]) (m 1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ellipsis depth misuse should error")

let test_macro_table_isolation () =
  let t1 = Interp.create () in
  ignore (Interp.eval_string t1 "(extend-syntax (mmm) [(mmm) 5])");
  (match Interp.eval_value t1 "(mmm)" with
  | Pstack.Types.Int 5 -> ()
  | v -> Alcotest.failf "got %s" (Pstack.Value.to_string v));
  let t2 = Interp.create () in
  match Interp.eval_string t2 "(mmm)" with
  | [ Interp.Error _ ] -> ()
  | _ -> Alcotest.fail "macro leaked across interpreters"

(* ---------------- prelude ---------------- *)

let test_prelude_lists () =
  check_str_value "map1" "(2 4 6)" "(map1 (lambda (x) (* 2 x)) '(1 2 3))";
  check_str_value "map2" "(5 7 9)" "(map + '(1 2 3) '(4 5 6))";
  check_str_value "filter" "(2 4)" "(filter even? '(1 2 3 4 5))";
  check_int "fold-left" 10 "(fold-left + 0 '(1 2 3 4))";
  check_str_value "fold-right cons" "(1 2)" "(fold-right cons '() '(1 2))";
  check_str_value "iota" "(0 1 2 3)" "(iota 4)";
  check_int "last" 3 "(last '(1 2 3))";
  check_str_value "list-tail" "(3 4)" "(list-tail '(1 2 3 4) 2)";
  check_int "for-each effect" 6
    "(define total 0) (for-each (lambda (x) (set! total (+ total x))) '(1 2 3)) total"

let test_prelude_sort () =
  check_str_value "sort ints" "(1 2 3 5 9)" "(sort < '(3 1 9 2 5))";
  check_str_value "sort empty" "()" "(sort < '())";
  check_str_value "sort single" "(7)" "(sort < '(7))";
  check_str_value "sort descending" "(9 5 3 2 1)" "(sort > '(3 1 9 2 5))";
  check_bool "sort is stable" true
    "(equal? (sort (lambda (a b) (< (car a) (car b)))
                   '((1 x) (0 a) (1 y) (0 b)))
             '((0 a) (0 b) (1 x) (1 y)))";
  check_str_value "take/drop" "((1 2) (3 4))" "(list (take '(1 2 3 4) 2) (drop '(1 2 3 4) 2))";
  check_bool "any?" true "(any? even? '(1 3 4))";
  check_bool "every?" false "(every? even? '(2 3))";
  check_str_value "remove" "(1 3)" "(remove even? '(1 2 3 4))"

let test_prelude_make_cell () =
  check_int "cell" 1 "(let ([x (make-cell 0)]) ((cdr x) 1) ((car x)))";
  check_int "cell helpers" 5 "(define c (make-cell 9)) (cell-set! c 5) (cell-ref c)"

let test_prelude_spawn_exit () =
  check_int "spawn/exit aborts" 0 "(spawn/exit (lambda (exit) (+ 1 (exit 0))))";
  check_int "spawn/exit normal" 3 "(spawn/exit (lambda (exit) 3))"

let coroutine_defs =
  {|
(define co
  (make-coroutine
    (lambda (yield i)
      (let* ([j (yield (+ i 1))]
             [k (yield (+ j 10))])
        (+ k 100)))))
|}

let test_prelude_coroutines () =
  check_str_value "first resume" "(yield . 2)" (coroutine_defs ^ "(co 1)");
  check_str_value "full session" "((yield . 2) (yield . 15) (return . 107))"
    (coroutine_defs ^ "(list (co 1) (co 5) (co 7))");
  let t = Interp.create () in
  ignore (Interp.eval_string t coroutine_defs);
  ignore (Interp.eval_string t "(co 1) (co 2) (co 3)");
  match Interp.eval_string t "(co 9)" with
  | [ Interp.Error _ ] -> ()
  | _ -> Alcotest.fail "resuming a finished coroutine should error"

let test_prelude_engines () =
  let defs =
    {|
(define (sum-engine n)
  (make-engine
    (lambda (tick)
      (let loop ([i 0] [acc 0])
        (if (= i n) acc (begin (tick) (loop (+ i 1) (+ acc i))))))))
|}
  in
  check_str_value "finishes with fuel left" "(done 45 90)"
    (defs ^ "((sum-engine 10) 100)");
  check_str_value "expires then finishes" "(done 45 94)"
    (defs
   ^ {|
(let ([r ((sum-engine 10) 3)])
  (if (eq? (car r) 'expired)
      ((cadr r) 100)
      'should-have-expired))
|});
  (* one-shot: running a consumed engine errors *)
  let t = Interp.create () in
  ignore (Interp.eval_string t defs);
  ignore (Interp.eval_string t "(define e (sum-engine 10)) (e 100)");
  match Interp.eval_string t "(e 100)" with
  | [ Interp.Error _ ] -> ()
  | _ -> Alcotest.fail "re-running an engine should error"

let test_prelude_coroutine_same_fringe () =
  (* The classic same-fringe via two Scheme coroutines. *)
  check_bool "same fringe" true
    (coroutine_defs
   ^ {|
(define (fringe-co tree)
  (make-coroutine
    (lambda (yield ignored)
      (define (walk t)
        (if (pair? t) (begin (walk (car t)) (walk (cdr t))) (yield t)))
      (walk tree)
      'done)))
(define (same-fringe? t1 t2)
  (let ([c1 (fringe-co t1)] [c2 (fringe-co t2)])
    (let loop ()
      (let ([r1 (c1 #f)] [r2 (c2 #f)])
        (cond
          [(and (eq? (car r1) 'return) (eq? (car r2) 'return)) #t]
          [(or (eq? (car r1) 'return) (eq? (car r2) 'return)) #f]
          [(equal? (cdr r1) (cdr r2)) (loop)]
          [else #f])))))
(and (same-fringe? '((1 . 2) . 3) '(1 . (2 . 3)))
     (not (same-fringe? '((1 . 2) . 3) '(1 . (9 . 3)))))
|})

(* ---------------- interpreter plumbing ---------------- *)

let test_interp_results () =
  let t = Interp.create () in
  match Interp.eval_string t "(define x 2) (+ x 1) (nonexistent)" with
  | [ Interp.Defined "x"; Interp.Value (Pstack.Types.Int 3); Interp.Error _ ] -> ()
  | rs ->
      Alcotest.failf "unexpected results: %s"
        (String.concat "; " (List.map Interp.result_to_string rs))

let test_interp_stops_at_error () =
  let t = Interp.create () in
  let rs = Interp.eval_string t "(car 1) (define y 1)" in
  Alcotest.(check int) "stops after error" 1 (List.length rs)

let test_interp_no_prelude () =
  let t = Interp.create ~prelude:false () in
  match Interp.eval_string t "(map1 car '())" with
  | [ Interp.Error _ ] -> ()
  | _ -> Alcotest.fail "map1 should be unbound without prelude"

let test_interp_output () =
  let t = Interp.create () in
  ignore (Interp.take_output ());
  ignore (Interp.eval_string t "(display \"a\") (display 1) (newline)");
  Alcotest.(check string) "output" "a1\n" (Interp.take_output ())

let test_interp_persistent_env () =
  let t = Interp.create () in
  ignore (Interp.eval_string t "(define counter 0)");
  ignore (Interp.eval_string t "(set! counter (+ counter 1))");
  match Interp.eval_value t "counter" with
  | Pstack.Types.Int 1 -> ()
  | v -> Alcotest.failf "got %s" (Pstack.Value.to_string v)

(* ---------------- paper programs at the Scheme level ---------------- *)

let product_defs =
  {|
(define product0
  (lambda (ls exit)
    (cond
      [(null? ls) 1]
      [(= (car ls) 0) (exit 0)]
      [else (* (car ls) (product0 (cdr ls) exit))])))
|}

let test_paper_product_callcc () =
  check_int "callcc product" 24
    (product_defs
   ^ "(define (product ls) (call/cc (lambda (exit) (product0 ls exit)))) (product '(1 2 3 4))");
  check_int "callcc zero" 0
    (product_defs
   ^ "(define (product ls) (call/cc (lambda (exit) (product0 ls exit)))) (product '(1 0 4))")

let test_paper_product_spawn_exit () =
  check_int "spawn/exit product" 24
    (product_defs
   ^ "(define (product ls) (spawn/exit (lambda (exit) (product0 ls exit)))) (product '(1 2 3 4))")

let test_paper_validity_examples () =
  let t = Interp.create () in
  (match Interp.eval_string t "((spawn (lambda (c) c)) (lambda (k) k))" with
  | [ Interp.Error _ ] -> ()
  | _ -> Alcotest.fail "escaped controller should error");
  let t = Interp.create () in
  (match
     Interp.eval_string t "(spawn (lambda (c) (c (lambda (k) (c (lambda (k2) k2))))))"
   with
  | [ Interp.Error _ ] -> ()
  | _ -> Alcotest.fail "double use should error");
  check_int "reinstated" 42
    "((spawn (lambda (c) (c (c (lambda (k) (k (lambda (k) (k (lambda (k) k))))))))) 42)"

let test_paper_pk_twice () =
  check_int "multi-shot pk" 12 "(spawn (lambda (c) (+ 1 (c (lambda (k) (* (k 2) (k 3)))))))"

(* ---------------- source fuzz ---------------- *)

(* A golden program with up to four characters each replaced by a
   snippet that is syntax ([(], [#], [,@], a string quote), an atom, or
   a control form, and maybe truncated.  Every mutant goes through both
   readers and both evaluation modes, bounded by fuel; any exception that
   escapes fails the property. *)
let golden_sources =
  lazy
    (Array.map
       (fun name ->
         In_channel.with_open_bin (Filename.concat "golden" (name ^ ".scm"))
           In_channel.input_all)
       [| "product"; "validity"; "search"; "macros"; "futures"; "engines"; "wind";
          "errors"; "stats" |])

let gen_source_mutation =
  let open QCheck.Gen in
  (* balanced snippets are weighted up so most mutants get past the
     reader and into the expander and the machine *)
  let snippets =
    List.map (fun s -> (1, s)) [ "("; ")"; "["; "]"; "'"; "`"; ","; ",@"; "#"; "\""; ";" ]
    @ List.map (fun s -> (4, s))
        [ "#t"; "#\\a"; "."; "0"; "-1"; "x"; "lambda"; "define"; "(exit 0)";
          "(c (lambda (k) (k k)))"; "(pcall + 1 2)"; "(touch (future 1))";
          "(call/cc (lambda (k) (k k)))"; "(spawn (lambda (c) c))"; "()"; " " ]
  in
  let* input = int_bound (Array.length (Lazy.force golden_sources) - 1) in
  let s = (Lazy.force golden_sources).(input) in
  let n = String.length s in
  let+ edits = list_size (int_range 1 4) (pair (int_bound (n - 1)) (frequencyl snippets))
  and+ cut = frequency [ (3, return max_int); (1, int_bound n) ] in
  let s =
    List.fold_left
      (fun s (i, sub) ->
        let i = min i (String.length s - 1) in
        String.sub s 0 i ^ sub ^ String.sub s (i + 1) (String.length s - i - 1))
      s edits
  in
  String.sub s 0 (min cut (String.length s))

let prop_source_fuzz =
  QCheck.Test.make ~name:"mutated programs never raise" ~count:1000
    (QCheck.make ~print:String.escaped gen_source_mutation)
    (fun src ->
      ignore (Reader.parse src);
      ignore (Reader.parse_all src);
      List.iter
        (fun mode ->
          ignore (Interp.eval_string ~mode ~fuel:200_000 (Interp.create ()) src);
          ignore (Interp.take_output ()))
        [ Interp.Sequential; Interp.Concurrent Pstack.Concur.Round_robin ];
      true)

let () =
  Alcotest.run "syntax"
    [
      ( "reader",
        [
          Alcotest.test_case "atoms" `Quick test_read_atoms;
          Alcotest.test_case "strings" `Quick test_read_strings;
          Alcotest.test_case "lists" `Quick test_read_lists;
          Alcotest.test_case "comments / parse_all" `Quick test_read_comments_and_all;
          Alcotest.test_case "roundtrip" `Quick test_read_roundtrip;
          QCheck_alcotest.to_alcotest prop_reader_roundtrip;
        ] );
      ( "expander",
        [
          Alcotest.test_case "basic forms" `Quick test_expand_basic_forms;
          Alcotest.test_case "cond and case" `Quick test_expand_cond_case;
          Alcotest.test_case "and/or/when/unless" `Quick test_expand_and_or_when_unless;
          Alcotest.test_case "defines" `Quick test_expand_defines;
          Alcotest.test_case "errors" `Quick test_expand_errors;
          Alcotest.test_case "quote" `Quick test_quote;
        ] );
      ( "macros",
        [
          Alcotest.test_case "paper's let definition" `Quick test_macro_paper_let;
          Alcotest.test_case "paper's parallel-or" `Quick test_macro_paper_parallel_or;
          Alcotest.test_case "multi-rule recursion" `Quick test_macro_multi_rule_recursive;
          Alcotest.test_case "auxiliary keywords" `Quick test_macro_keywords;
          Alcotest.test_case "nested ellipses" `Quick test_macro_nested_ellipsis;
          Alcotest.test_case "dotted patterns" `Quick test_macro_dotted_pattern;
          Alcotest.test_case "wildcard and literals" `Quick test_macro_wildcard_and_literals;
          Alcotest.test_case "errors" `Quick test_macro_errors;
          Alcotest.test_case "table isolation" `Quick test_macro_table_isolation;
        ] );
      ( "prelude",
        [
          Alcotest.test_case "list library" `Quick test_prelude_lists;
          Alcotest.test_case "sort and friends" `Quick test_prelude_sort;
          Alcotest.test_case "make-cell" `Quick test_prelude_make_cell;
          Alcotest.test_case "spawn/exit" `Quick test_prelude_spawn_exit;
          Alcotest.test_case "coroutines" `Quick test_prelude_coroutines;
          Alcotest.test_case "engines" `Quick test_prelude_engines;
          Alcotest.test_case "same-fringe" `Quick test_prelude_coroutine_same_fringe;
        ] );
      ( "interp",
        [
          Alcotest.test_case "results" `Quick test_interp_results;
          Alcotest.test_case "stops at error" `Quick test_interp_stops_at_error;
          Alcotest.test_case "no prelude" `Quick test_interp_no_prelude;
          Alcotest.test_case "output" `Quick test_interp_output;
          Alcotest.test_case "persistent env" `Quick test_interp_persistent_env;
          QCheck_alcotest.to_alcotest prop_source_fuzz;
        ] );
      ( "paper",
        [
          Alcotest.test_case "product via call/cc" `Quick test_paper_product_callcc;
          Alcotest.test_case "product via spawn/exit" `Quick test_paper_product_spawn_exit;
          Alcotest.test_case "Section 4 validity" `Quick test_paper_validity_examples;
          Alcotest.test_case "pk invoked twice" `Quick test_paper_pk_twice;
        ] );
    ]
