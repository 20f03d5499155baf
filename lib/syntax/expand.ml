module Ir = Pcont_pstack.Ir
open Reader

type top = Define of string * Ir.t | Defsyntax of string | Expr of Ir.t

exception Expand_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Expand_error msg)) fmt

let gensym_counter = ref 0

let gensym base =
  incr gensym_counter;
  Printf.sprintf "%s~%d" base !gensym_counter

(* Bound on user-macro rewrites along one expression's expansion, so a
   self-reproducing extend-syntax rule errors instead of looping. *)
let max_macro_depth = 500

let rec quoted_of_datum : datum -> Ir.quoted = function
  | Dint n -> Ir.Qint n
  | Dbool b -> Ir.Qbool b
  | Dstr s -> Ir.Qstr s
  | Dsym s -> Ir.Qsym s
  | Dchar c -> Ir.Qchar c
  | Dlist [] -> Ir.Qnil
  | Dlist ds -> Ir.Qlist (List.map quoted_of_datum ds)
  | Ddot (ds, tail) -> Ir.Qdot (List.map quoted_of_datum ds, quoted_of_datum tail)

let sym_of = function
  | Dsym s -> s
  | d -> fail "expected an identifier, got %s" (Reader.to_string d)

let params_of = function
  | Dsym r -> ([], Some r)
  | Dlist ds -> (List.map sym_of ds, None)
  | Ddot (ds, Dsym r) -> (List.map sym_of ds, Some r)
  | d -> fail "bad parameter list: %s" (Reader.to_string d)

let binding_of = function
  | Dlist [ Dsym x; init ] -> (x, init)
  | d -> fail "bad binding: %s" (Reader.to_string d)

(* Recognize a define form and return (name, rhs-as-datum). *)
let as_define = function
  | Dlist (Dsym "define" :: Dsym x :: rhs) -> (
      match rhs with
      | [ e ] -> Some (x, e)
      | [] -> Some (x, Dlist [ Dsym "void" ])
      | _ -> fail "define: too many expressions")
  | Dlist (Dsym "define" :: Dlist (Dsym f :: params) :: body) ->
      Some (f, Dlist (Dsym "lambda" :: Dlist params :: body))
  | Dlist (Dsym "define" :: Ddot (Dsym f :: params, rest) :: body) ->
      Some (f, Dlist (Dsym "lambda" :: Ddot (params, rest) :: body))
  | Dlist (Dsym "define" :: _) -> fail "malformed define"
  | _ -> None

(* The expander proper, closed over a macro table.  User macros are
   consulted first, so extend-syntax can redefine the built-in forms —
   exactly what the paper's Section 2 definition of let does. *)
let make_expander (mt : Macro.table) =
  let rec expr depth (d : datum) : Ir.t =
    match d with
    | Dint n -> Ir.int n
    | Dbool b -> Ir.bool b
    | Dstr s -> Ir.str s
    | Dchar c -> Ir.Const (Ir.Cchar c)
    | Dsym x -> Ir.var x
    | Ddot _ -> fail "unexpected dotted list in expression position"
    | Dlist [] -> fail "empty application"
    | Dlist (head :: rest) -> (
        match Macro.try_expand mt d with
        | Error msg -> fail "%s" msg
        | Ok (Some d') ->
            if depth >= max_macro_depth then
              fail "macro expansion exceeded depth %d (loop?)" max_macro_depth
            else expr (depth + 1) d'
        | Ok None -> (
            match head with
            | Dsym "quote" -> (
                match rest with
                | [ q ] -> Ir.Quoted (quoted_of_datum q)
                | _ -> fail "quote: expects exactly one datum")
            | Dsym "lambda" -> (
                match rest with
                | params :: body when body <> [] ->
                    let params, rest_param = params_of params in
                    Ir.Lam { params; rest = rest_param; body = body_of depth body }
                | _ -> fail "lambda: expects a parameter list and a body")
            | Dsym "if" -> (
                match rest with
                | [ c; t ] -> Ir.if_ (expr depth c) (expr depth t) (Ir.Const Ir.Cunit)
                | [ c; t; e ] -> Ir.if_ (expr depth c) (expr depth t) (expr depth e)
                | _ -> fail "if: expects two or three subexpressions")
            | Dsym "begin" -> Ir.seq (List.map (expr depth) rest)
            | Dsym "let" -> expand_let depth rest
            | Dsym "let*" -> expand_let_star depth rest
            | Dsym ("letrec" | "letrec*") -> (
                match rest with
                | bindings :: body when body <> [] ->
                    Ir.Letrec (bindings_of depth bindings, body_of depth body)
                | _ -> fail "letrec: expects bindings and a body")
            | Dsym "set!" -> (
                match rest with
                | [ Dsym x; e ] -> Ir.Set (x, expr depth e)
                | _ -> fail "set!: expects an identifier and an expression")
            | Dsym "cond" -> expand_cond depth rest
            | Dsym "case" -> expand_case depth rest
            | Dsym "when" -> (
                match rest with
                | test :: body when body <> [] ->
                    Ir.if_ (expr depth test)
                      (Ir.seq (List.map (expr depth) body))
                      (Ir.Const Ir.Cunit)
                | _ -> fail "when: expects a test and a body")
            | Dsym "unless" -> (
                match rest with
                | test :: body when body <> [] ->
                    Ir.if_ (expr depth test) (Ir.Const Ir.Cunit)
                      (Ir.seq (List.map (expr depth) body))
                | _ -> fail "unless: expects a test and a body")
            | Dsym "and" -> expand_and depth rest
            | Dsym "or" -> expand_or depth rest
            | Dsym "future" -> (
                match rest with
                | [ e ] -> Ir.Future (expr depth e)
                | _ -> fail "future: expects exactly one expression")
            | Dsym "pcall" ->
                if rest = [] then fail "pcall: expects at least an operator expression"
                else Ir.Pcall (List.map (expr depth) rest)
            | Dsym "parallel-or" -> expand_parallel_or depth rest
            | Dsym "extend-syntax" ->
                fail "extend-syntax: only allowed at top level"
            | Dsym "define" ->
                fail "define: only allowed at top level or at the start of a body"
            | _ -> Ir.app (expr depth head) (List.map (expr depth) rest)))

  and bindings_of depth = function
    | Dlist bs ->
        List.map (fun b -> let x, init = binding_of b in (x, expr depth init)) bs
    | d -> fail "bad binding list: %s" (Reader.to_string d)

  and expand_let depth = function
    (* named let: (let loop ([x v] ...) body ...) *)
    | Dsym name :: bindings :: body when body <> [] ->
        let bs =
          match bindings with
          | Dlist bs -> List.map binding_of bs
          | d -> fail "bad binding list: %s" (Reader.to_string d)
        in
        let params = List.map fst bs in
        let inits = List.map (fun (_, i) -> expr depth i) bs in
        Ir.Letrec
          ( [ (name, Ir.Lam { params; rest = None; body = body_of depth body }) ],
            Ir.app (Ir.var name) inits )
    | bindings :: body when body <> [] ->
        Ir.Let (bindings_of depth bindings, body_of depth body)
    | _ -> fail "let: expects bindings and a body"

  and expand_let_star depth = function
    | Dlist [] :: body when body <> [] -> body_of depth body
    | Dlist (b :: bs) :: body when body <> [] ->
        let x, init = binding_of b in
        Ir.Let ([ (x, expr depth init) ], expand_let_star depth (Dlist bs :: body))
    | _ -> fail "let*: expects bindings and a body"

  and expand_cond depth clauses =
    match clauses with
    | [] -> Ir.Const Ir.Cunit
    | Dlist (Dsym "else" :: body) :: rest ->
        if rest <> [] then fail "cond: else clause must be last"
        else if body = [] then fail "cond: else clause needs a body"
        else Ir.seq (List.map (expr depth) body)
    | Dlist [ test ] :: rest ->
        (* test-only clause: its value is the result when true *)
        let t = gensym "t" in
        Ir.Let
          ([ (t, expr depth test) ], Ir.if_ (Ir.var t) (Ir.var t) (expand_cond depth rest))
    | Dlist (test :: body) :: rest ->
        Ir.if_ (expr depth test)
          (Ir.seq (List.map (expr depth) body))
          (expand_cond depth rest)
    | d :: _ -> fail "cond: bad clause %s" (Reader.to_string d)

  and expand_case depth = function
    | scrutinee :: clauses ->
        let v = gensym "case" in
        let rec go = function
          | [] -> Ir.Const Ir.Cunit
          | Dlist (Dsym "else" :: body) :: rest ->
              if rest <> [] then fail "case: else clause must be last"
              else Ir.seq (List.map (expr depth) body)
          | Dlist (Dlist keys :: body) :: rest ->
              let test =
                expand_or depth
                  (List.map
                     (fun k -> Dlist [ Dsym "eqv?"; Dsym v; Dlist [ Dsym "quote"; k ] ])
                     keys)
              in
              Ir.if_ test (Ir.seq (List.map (expr depth) body)) (go rest)
          | d :: _ -> fail "case: bad clause %s" (Reader.to_string d)
        in
        Ir.Let ([ (v, expr depth scrutinee) ], go clauses)
    | [] -> fail "case: expects a scrutinee"

  and expand_and depth = function
    | [] -> Ir.bool true
    | [ e ] -> expr depth e
    | e :: rest -> Ir.if_ (expr depth e) (expand_and depth rest) (Ir.bool false)

  and expand_or depth = function
    | [] -> Ir.bool false
    | [ e ] -> expr depth e
    | e :: rest ->
        let t = gensym "t" in
        Ir.Let ([ (t, expr depth e) ], Ir.if_ (Ir.var t) (Ir.var t) (expand_or depth rest))

  (* (parallel-or e1 e2) expands to (first-true (lambda () e1) (lambda () e2)),
     following the paper's extend-syntax definition; n-ary by right
     association. *)
  and expand_parallel_or depth = function
    | [] -> Ir.bool false
    | [ e ] -> expr depth e
    | e :: rest ->
        let thunk body = Ir.Lam { params = []; rest = None; body } in
        Ir.app (Ir.var "first-true")
          [ thunk (expr depth e); thunk (expand_parallel_or depth rest) ]

  (* A body is a sequence of forms, possibly starting with internal defines,
     which become letrec bindings (the paper's parallel-search does this). *)
  and body_of depth forms =
    let rec split defines = function
      | form :: rest as forms -> (
          match as_define form with
          | Some (x, rhs) -> split ((x, rhs) :: defines) rest
          | None -> (List.rev defines, forms))
      | [] -> (List.rev defines, [])
    in
    let defines, exprs = split [] forms in
    if exprs = [] then fail "body has no expression"
    else
      let body = Ir.seq (List.map (expr depth) exprs) in
      match defines with
      | [] -> body
      | ds -> Ir.Letrec (List.map (fun (x, rhs) -> (x, expr depth rhs)) ds, body)
  in
  expr 0

let default_table = Macro.create ()

let expand_top ?(macros = default_table) d =
  match
    match d with
    | Dlist (Dsym "extend-syntax" :: _) -> (
        match Macro.define macros d with
        | Ok name -> Defsyntax name
        | Error msg -> fail "%s" msg)
    | _ -> (
        match as_define d with
        | Some (x, rhs) -> Define (x, make_expander macros rhs)
        | None -> Expr (make_expander macros d))
  with
  | t -> Ok t
  | exception Expand_error msg -> Error msg

let expand_program ?macros ds =
  let macros = match macros with Some m -> m | None -> Macro.create () in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
        match expand_top ~macros d with
        | Ok t -> go (t :: acc) rest
        | Error msg -> Error msg)
  in
  go [] ds

let parse_program ?macros src =
  match Reader.parse_all src with
  | Ok ds -> expand_program ?macros ds
  | Error msg -> Error ("read error: " ^ msg)
