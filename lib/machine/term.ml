type label = int

type prim =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Lt
  | Leq
  | Not
  | Cons
  | Car
  | Cdr
  | Is_null
  | Is_pair
  | Is_zero

type term =
  | Int of int
  | Bool of bool
  | Unit
  | Nil
  | Prim of prim
  | Papp of prim * term list
  | Pair of term * term
  | Var of string
  | Lam of string * term
  | Fix of string * string * term
  | App of term * term
  | If of term * term * term
  | Label of label * term
  | Control of term * label
  | Spawn of term

let prim_arity = function
  | Add | Sub | Mul | Div | Eq | Lt | Leq | Cons -> 2
  | Not | Car | Cdr | Is_null | Is_pair | Is_zero -> 1

let prim_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "quotient"
  | Eq -> "="
  | Lt -> "<"
  | Leq -> "<="
  | Not -> "not"
  | Cons -> "cons"
  | Car -> "car"
  | Cdr -> "cdr"
  | Is_null -> "null?"
  | Is_pair -> "pair?"
  | Is_zero -> "zero?"

let rec is_value = function
  | Int _ | Bool _ | Unit | Nil | Prim _ | Lam _ | Fix _ -> true
  | Papp (_, args) -> List.for_all is_value args
  | Pair (a, d) -> is_value a && is_value d
  | Var _ | App _ | If _ | Label _ | Control _ | Spawn _ -> false

let free_vars e =
  let tbl = Hashtbl.create 16 in
  let rec go bound = function
    | Int _ | Bool _ | Unit | Nil | Prim _ -> ()
    | Papp (_, args) -> List.iter (go bound) args
    | Pair (a, d) ->
        go bound a;
        go bound d
    | Var x -> if not (List.mem x bound) then Hashtbl.replace tbl x ()
    | Lam (x, body) -> go (x :: bound) body
    | Fix (f, x, body) -> go (f :: x :: bound) body
    | App (e1, e2) ->
        go bound e1;
        go bound e2
    | If (e1, e2, e3) ->
        go bound e1;
        go bound e2;
        go bound e3
    | Label (_, e) | Control (e, _) | Spawn e -> go bound e
  in
  go [] e;
  tbl

let is_closed e = Hashtbl.length (free_vars e) = 0

(* Fresh-variable renaming for capture avoidance.  The suffix uses a
   character that the example programs never use in identifiers. *)
let rename_counter = ref 0

let rename_var x =
  incr rename_counter;
  Printf.sprintf "%s%%%d" x !rename_counter

let rec subst x v e =
  match e with
  | Int _ | Bool _ | Unit | Nil | Prim _ -> e
  | Papp (p, args) -> Papp (p, List.map (subst x v) args)
  | Pair (a, d) -> Pair (subst x v a, subst x v d)
  | Var y -> if String.equal x y then v else e
  | Lam (y, body) ->
      if String.equal x y then e
      else if Hashtbl.mem (free_vars v) y then
        let y' = rename_var y in
        Lam (y', subst x v (subst y (Var y') body))
      else Lam (y, subst x v body)
  | Fix (f, y, body) ->
      if String.equal x f || String.equal x y then e
      else
        let fv = free_vars v in
        let f', body =
          if Hashtbl.mem fv f then
            let f' = rename_var f in
            (f', subst f (Var f') body)
          else (f, body)
        in
        let y', body =
          if Hashtbl.mem fv y then
            let y' = rename_var y in
            (y', subst y (Var y') body)
          else (y, body)
        in
        Fix (f', y', subst x v body)
  | App (e1, e2) -> App (subst x v e1, subst x v e2)
  | If (e1, e2, e3) -> If (subst x v e1, subst x v e2, subst x v e3)
  | Label (l, e1) -> Label (l, subst x v e1)
  | Control (e1, l) -> Control (subst x v e1, l)
  | Spawn e1 -> Spawn (subst x v e1)

let rec max_label = function
  | Int _ | Bool _ | Unit | Nil | Prim _ | Var _ -> -1
  | Papp (_, args) -> List.fold_left (fun m a -> max m (max_label a)) (-1) args
  | Pair (a, d) -> max (max_label a) (max_label d)
  | Lam (_, body) -> max_label body
  | Fix (_, _, body) -> max_label body
  | App (e1, e2) -> max (max_label e1) (max_label e2)
  | If (e1, e2, e3) -> max (max_label e1) (max (max_label e2) (max_label e3))
  | Label (l, e) -> max l (max_label e)
  | Control (e, l) -> max l (max_label e)
  | Spawn e -> max_label e

let labels_of e =
  let rec go acc = function
    | Int _ | Bool _ | Unit | Nil | Prim _ | Var _ -> acc
    | Papp (_, args) -> List.fold_left go acc args
    | Pair (a, d) -> go (go acc a) d
    | Lam (_, body) | Fix (_, _, body) -> go acc body
    | App (e1, e2) -> go (go acc e1) e2
    | If (e1, e2, e3) -> go (go (go acc e1) e2) e3
    | Label (l, e) -> go (l :: acc) e
    | Control (e, l) -> go (l :: acc) e
    | Spawn e -> go acc e
  in
  List.sort_uniq compare (go [] e)

let rec size = function
  | Int _ | Bool _ | Unit | Nil | Prim _ | Var _ -> 1
  | Papp (_, args) -> List.fold_left (fun n a -> n + size a) 1 args
  | Pair (a, d) -> 1 + size a + size d
  | Lam (_, body) | Fix (_, _, body) -> 1 + size body
  | App (e1, e2) -> 1 + size e1 + size e2
  | If (e1, e2, e3) -> 1 + size e1 + size e2 + size e3
  | Label (_, e) | Control (e, _) | Spawn e -> 1 + size e

let lam x body = Lam (x, body)

let app e1 e2 = App (e1, e2)

let app2 e1 e2 e3 = App (App (e1, e2), e3)

let let_ x e body = App (Lam (x, body), e)

let seq e1 e2 = App (Lam ("_", e2), e1)

let list_of vs = List.fold_right (fun v acc -> Pair (v, acc)) vs Nil

let prim1 p e = App (Prim p, e)

let prim2 p e1 e2 = App (App (Prim p, e1), e2)
