(** Translations between the Section 6 term calculus and the process-stack
    IR, so the same program can run on every implementation.

    [of_term] is total: every machine term has an IR image (machine
    primitives are curried, IR primitives are n-ary, so primitive spines
    are reassociated and under-applications eta-expanded).

    [to_term] is partial: it covers the pure fragment plus [spawn] — which
    is exactly the Section 6 language — and reports the first unsupported
    construct otherwise (strings, vectors, [set!], [call/cc], [pcall],
    [future], variadic procedures).

    [scheme_to_term] additionally folds a whole top-level program into one
    closed term, turning each [(define x e)] into a [let] over the
    remaining forms, so the paper's multi-form Scheme examples run
    unchanged on the semantics machine. *)

module T := Pcont_machine.Term
module Ir := Pcont_pstack.Ir

val of_term : T.term -> Ir.t
(** Total translation machine → IR.
    @raise Invalid_argument on terms containing labels, which occur only
    during machine execution, never in source programs. *)

val to_term : Ir.t -> (T.term, string) result
(** Partial translation IR → machine. *)

val scheme_to_term : string -> (T.term, string) result
(** Read, expand and translate a Scheme program for the machine; the
    last form must be an expression. *)
