(** Expansion of surface Scheme into the core IR.

    Handled forms: [quote], [lambda] (fixed, variadic and rest parameters),
    [if], [begin], [let] (including named [let]), [let*], [letrec],
    [letrec*], [set!], [cond], [case], [when], [unless], [and], [or],
    [pcall], and [parallel-or] (expanded to [first-true] exactly as the
    paper's [extend-syntax] definition does).  Bodies may begin with
    internal [define]s, which expand to [letrec] — the paper's
    [parallel-search] relies on this.

    Top-level [(extend-syntax (name kw ...) [pattern template] ...)] forms
    define pattern-matching macros (see {!Macro}); user macros are
    consulted {e before} the built-in forms, so the paper's Section 2
    definition of [let] can actually replace [let].

    Everything else is an application. *)

type top =
  | Define of string * Pcont_pstack.Ir.t  (** top-level [(define x e)] *)
  | Defsyntax of string  (** top-level [extend-syntax]; carries the name *)
  | Expr of Pcont_pstack.Ir.t

val parse_program : ?macros:Macro.table -> string -> (top list, string) result
(** Read and expand a whole program. *)
