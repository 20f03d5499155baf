(** [extend-syntax]: pattern-matching macros (non-hygienic).

    The paper defines [let] and [parallel-or] with Chez-style
    [extend-syntax]:

    {v
(extend-syntax (let)
  [(let ([x v] ...) e1 e2 ...)
   ((lambda (x ...) e1 e2 ...) v ...)])
    v}

    A definition names the macro keyword (plus optional auxiliary literal
    keywords) and gives rewrite rules: a use is matched against each rule's
    pattern in turn and rewritten by the matching rule's template.

    Pattern language: a symbol in the keyword list matches only itself;
    [_] matches anything without binding; any other symbol is a pattern
    variable; a subpattern followed by [...] matches any number of
    repetitions (ellipses nest; at most one ellipsis per list level);
    literals match themselves; dotted patterns match dotted data.
    Templates substitute pattern variables; [t ...] in a template splices
    the repetitions of the variables occurring in [t]. *)

type table

val create : unit -> table

val define : table -> Reader.datum -> (string, string) result
(** [define tbl d] processes an [(extend-syntax (name kw ...) rule ...)]
    form, registering (or replacing) the macro; returns its name. *)

val try_expand : table -> Reader.datum -> (Reader.datum option, string) result
(** [try_expand tbl d] rewrites [d] once if it is a use of a defined macro
    ([Some rewritten]); [None] if [d]'s head is not a defined macro.
    Errors when a use matches no rule or a template is ill-formed. *)

val names : table -> string list
