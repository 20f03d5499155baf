(** Single-step reduction for the Section 6 machine.

    A program is rewritten by (i) decomposing it into an evaluation context
    and a redex, then (ii) contracting the redex according to the paper's
    rules:

    - (1) call-by-value β (plus δ-rules, fixpoint unrolling and [if])
    - (2) [l : v ⇒ v]
    - (3) [C1\[l : C2\[e ↑ l\]\] ⇒ C1\[e (λx. l : C2\[x\])\]] when [l] does not
      label [C2]
    - (spawn) [C\[spawn v\] ⇒ C\[l : v (λx. x ↑ l)\]] with [l] fresh for the
      whole program. *)

type redex =
  | Rbeta of string * Term.term * Term.term  (** [(λx.e) v] *)
  | Rfix of string * string * Term.term * Term.term  (** [(rec (f x) e) v] *)
  | Rdelta of Term.prim * Term.term list  (** fully applied primitive *)
  | Rpartial of Term.prim * Term.term list  (** under-applied primitive *)
  | Rlabel_return of Term.label * Term.term  (** [l : v] *)
  | Rcontrol of Term.term * Term.label  (** [e ↑ l] *)
  | Rspawn of Term.term  (** [spawn v] *)
  | Rif of bool * Term.term * Term.term

type decomposition =
  | Value  (** the program is a value: evaluation is complete *)
  | Decomp of Ctx.t * redex
  | Ill_formed of string  (** e.g. a free variable or non-procedure application *)

val decompose : Term.term -> decomposition
(** Leftmost-outermost decomposition.  The input must be closed for
    evaluation to be meaningful; free variables yield [Ill_formed]. *)

val delta : Term.prim -> Term.term list -> (Term.term, string) result
(** δ-reduction of a fully applied primitive. *)

type result =
  | Finished of Term.term  (** the program was already a value *)
  | Next of Term.term * string  (** one reduction, with the rule name *)
  | Stuck of string  (** no rule applies: type error, free variable, or an
                         invalid controller application (rule 3 with no
                         matching label) *)

val step : ?stats:Pcont_util.Counters.t -> Term.term -> result
(** [step p] performs one rewrite of the whole program [p].  When [stats] is
    given, the applied rule's counter is incremented. *)
