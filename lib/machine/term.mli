(** Terms of the Section 6 calculus.

    The paper extends the call-by-value λ-calculus with labeled expressions
    [l : e] and control expressions [e ↑ l].  [spawn] is a fourth expression
    form whose rewrite rule mints a label fresh for the whole program.

    To make the calculus usable for the paper's programming examples
    (products of lists, tree searches) we also include the standard
    conveniences of an applied λ-calculus: integer/boolean/unit/nil
    constants, curried primitive operations, pairs, a conditional, and a
    call-by-value fixpoint value.  None of these interact with the control
    rules; they only add δ-reductions. *)

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
  | Papp of prim * term list  (** partial application; arguments are values *)
  | Pair of term * term  (** cons cell; both components are values *)
  | Var of string
  | Lam of string * term
  | Fix of string * string * term
      (** [Fix (f, x, e)] is a recursive function value: applying it binds
          [f] to the whole [Fix] and [x] to the argument. *)
  | App of term * term
  | If of term * term * term
  | Label of label * term  (** [l : e] *)
  | Control of term * label  (** [e ↑ l] *)
  | Spawn of term

val prim_arity : prim -> int

val prim_name : prim -> string

val is_value : term -> bool
(** Values are constants, primitives, partial applications, pairs of values,
    abstractions and fixpoints — the terms that cannot be further reduced and
    may be passed as arguments or returned as answers. *)

val free_vars : term -> (string, unit) Hashtbl.t
(** All variables occurring free in the term. *)

val is_closed : term -> bool

val rename_var : string -> string
(** [rename_var x] is a globally fresh variable name derived from [x], used
    for capture avoidance and for the continuation binder of rule (3). *)

val subst : string -> term -> term -> term
(** [subst x v e] is [e\[x ← v\]], capture-avoiding.  [v] must be a value
    (call-by-value substitution). *)

val max_label : term -> int
(** Largest label occurring anywhere in the term, or [-1] if none.  Used to
    implement the freshness side condition of the [spawn] rule. *)

val labels_of : term -> label list
(** Sorted, deduplicated list of all labels in the term. *)

val size : term -> int
(** Number of constructors; used by tests and generators. *)

(** {1 Construction helpers} *)

val lam : string -> term -> term

val app : term -> term -> term

val app2 : term -> term -> term -> term

val let_ : string -> term -> term -> term
(** [let_ x e body] is [(λx. body) e]. *)

val seq : term -> term -> term
(** [seq e1 e2] evaluates [e1] for effect then [e2]; encoded as
    [(λ_. e2) e1]. *)

val list_of : term list -> term
(** Right-nested [Pair] list of value terms, ending in [Nil]. *)

val prim1 : prim -> term -> term

val prim2 : prim -> term -> term -> term
