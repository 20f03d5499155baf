open Term

type redex =
  | Rbeta of string * Term.term * Term.term
  | Rfix of string * string * Term.term * Term.term
  | Rdelta of Term.prim * Term.term list
  | Rpartial of Term.prim * Term.term list
  | Rlabel_return of Term.label * Term.term
  | Rcontrol of Term.term * Term.label
  | Rspawn of Term.term
  | Rif of bool * Term.term * Term.term

(* Short rule name, for tracing and statistics. *)
let redex_rule = function
  | Rbeta _ -> "beta"
  | Rfix _ -> "fix"
  | Rdelta _ -> "delta"
  | Rpartial _ -> "partial"
  | Rlabel_return _ -> "label-return"
  | Rcontrol _ -> "control"
  | Rspawn _ -> "spawn"
  | Rif _ -> "if"

type decomposition = Value | Decomp of Ctx.t * redex | Ill_formed of string

let classify_app v1 v2 =
  match v1 with
  | Lam (x, body) -> Ok (Rbeta (x, body, v2))
  | Fix (f, x, body) -> Ok (Rfix (f, x, body, v2))
  | Prim p ->
      if prim_arity p = 1 then Ok (Rdelta (p, [ v2 ])) else Ok (Rpartial (p, [ v2 ]))
  | Papp (p, args) ->
      let args = args @ [ v2 ] in
      if List.length args = prim_arity p then Ok (Rdelta (p, args))
      else if List.length args < prim_arity p then Ok (Rpartial (p, args))
      else Error ("primitive applied to too many arguments: " ^ prim_name p)
  | _ -> Error ("application of a non-procedure: " ^ Pp.term_to_string v1)

let decompose program =
  let rec find c e =
    match e with
    | App (e1, e2) ->
        if not (is_value e1) then find (Ctx.Fapp_fun e2 :: c) e1
        else if not (is_value e2) then find (Ctx.Fapp_arg e1 :: c) e2
        else begin
          match classify_app e1 e2 with
          | Ok r -> Decomp (c, r)
          | Error msg -> Ill_formed msg
        end
    | If (e1, e2, e3) ->
        if not (is_value e1) then find (Ctx.Fif (e2, e3) :: c) e1
        else begin
          match e1 with
          | Bool b -> Decomp (c, Rif (b, e2, e3))
          | v -> Ill_formed ("if: non-boolean test " ^ Pp.term_to_string v)
        end
    | Label (l, e1) ->
        if is_value e1 then Decomp (c, Rlabel_return (l, e1))
        else find (Ctx.Flabel l :: c) e1
    | Control (e1, l) -> Decomp (c, Rcontrol (e1, l))
    | Spawn e1 ->
        if is_value e1 then Decomp (c, Rspawn e1) else find (Ctx.Fspawn :: c) e1
    | Var x -> Ill_formed ("free variable: " ^ x)
    | Int _ | Bool _ | Unit | Nil | Prim _ | Papp _ | Pair _ | Lam _ | Fix _ ->
        (* Only reachable for the whole program, since [find] never recurses
           into a value position. *)
        Value
  in
  if is_value program then Value else find [] program

let delta p args =
  match (p, args) with
  | Add, [ Int a; Int b ] -> Ok (Int (a + b))
  | Sub, [ Int a; Int b ] -> Ok (Int (a - b))
  | Mul, [ Int a; Int b ] -> Ok (Int (a * b))
  | Div, [ Int _; Int 0 ] -> Error "quotient: division by zero"
  | Div, [ Int a; Int b ] -> Ok (Int (a / b))
  | Eq, [ Int a; Int b ] -> Ok (Bool (a = b))
  | Lt, [ Int a; Int b ] -> Ok (Bool (a < b))
  | Leq, [ Int a; Int b ] -> Ok (Bool (a <= b))
  | Not, [ Bool b ] -> Ok (Bool (not b))
  | Cons, [ a; d ] -> Ok (Pair (a, d))
  | Car, [ Pair (a, _) ] -> Ok a
  | Car, [ v ] -> Error ("car: not a pair: " ^ Pp.term_to_string v)
  | Cdr, [ Pair (_, d) ] -> Ok d
  | Cdr, [ v ] -> Error ("cdr: not a pair: " ^ Pp.term_to_string v)
  | Is_null, [ Nil ] -> Ok (Bool true)
  | Is_null, [ _ ] -> Ok (Bool false)
  | Is_pair, [ Pair _ ] -> Ok (Bool true)
  | Is_pair, [ _ ] -> Ok (Bool false)
  | Is_zero, [ Int n ] -> Ok (Bool (n = 0))
  | Is_zero, [ v ] -> Error ("zero?: not an integer: " ^ Pp.term_to_string v)
  | _ -> Error ("primitive type error: " ^ prim_name p)

type result = Finished of Term.term | Next of Term.term * string | Stuck of string

(* Contract a redex in its context.  Rule (3) and the spawn rule are the only
   ones that inspect the context. *)
let contract ctx redex =
  match redex with
  | Rbeta (x, body, v) -> Ok (Ctx.plug ctx (subst x v body))
  | Rfix (f, x, body, v) ->
      Ok (Ctx.plug ctx (subst x v (subst f (Fix (f, x, body)) body)))
  | Rdelta (p, args) -> (
      match delta p args with
      | Ok v -> Ok (Ctx.plug ctx v)
      | Error msg -> Error msg)
  | Rpartial (p, args) -> Ok (Ctx.plug ctx (Papp (p, args)))
  | Rlabel_return (_, v) -> Ok (Ctx.plug ctx v)
  | Rif (b, e2, e3) -> Ok (Ctx.plug ctx (if b then e2 else e3))
  | Rcontrol (e, l) -> (
      match Ctx.split_at_label l ctx with
      | None ->
          Error
            (Printf.sprintf
               "invalid controller application: no root labeled %d in the \
                current continuation"
               l)
      | Some (inner, outer) ->
          let x = rename_var "k" in
          let pk = Lam (x, Label (l, Ctx.plug inner (Var x))) in
          Ok (Ctx.plug outer (App (e, pk))))
  | Rspawn v ->
      let whole = Ctx.plug ctx (Spawn v) in
      let l = max_label whole + 1 in
      let x = rename_var "x" in
      Ok (Ctx.plug ctx (Label (l, App (v, Lam (x, Control (Var x, l))))))

let step ?stats program =
  match decompose program with
  | Value -> Finished program
  | Ill_formed msg -> Stuck msg
  | Decomp (ctx, redex) -> (
      let rule = redex_rule redex in
      match contract ctx redex with
      | Ok next ->
          Option.iter (fun c -> Pcont_util.Counters.incr c rule) stats;
          Next (next, rule)
      | Error msg -> Stuck msg)
