(** Core intermediate representation executed by the process-stack machine.

    The Scheme front end ([Pcont_syntax]) compiles surface programs to this
    IR; tests and benchmarks may also build IR directly.  The IR is a
    conventional Scheme core: constants, variables, abstractions,
    applications, conditionals, sequencing, [let]/[letrec], assignment — plus
    [pcall], the paper's tree-structured fork form.  The control operators
    ([spawn], [call/cc], [prompt], [fcontrol]) are primitive {e procedures},
    not syntax, exactly as [call/cc] is in Scheme. *)

type const =
  | Cint of int
  | Cbool of bool
  | Cstr of string
  | Csym of string
  | Cchar of char
  | Cnil
  | Cunit

type quoted =
  | Qint of int
  | Qbool of bool
  | Qstr of string
  | Qsym of string
  | Qchar of char
  | Qnil
  | Qlist of quoted list
  | Qdot of quoted list * quoted  (** improper list *)

type t =
  | Const of const
  | Quoted of quoted
      (** a [quote]d literal; the machine builds the (fresh) value *)
  | Var of string
  | Lam of lambda
  | App of t * t list
  | If of t * t * t
  | Seq of t list  (** [begin]; empty sequence evaluates to the unit value *)
  | Let of (string * t) list * t
  | Letrec of (string * t) list * t
  | Set of string * t
  | Future of t
      (** [(future e)]: start [e] as an {e independent} tree of the process
          forest (Section 8) and immediately return a future; [touch]
          retrieves the value.  The sequential machine evaluates eagerly. *)
  | Pcall of t list
      (** [(pcall f e1 ... en)]: evaluate all subexpressions as parallel
          branches of the process tree, then apply the value of the first to
          the values of the rest.  The sequential machine evaluates them
          left to right; {!Concur} actually forks. *)

and lambda = { params : string list; rest : string option; body : t }

(** Resolved IR, the output of the lexical-addressing pass ({!Resolve}):
    every variable occurrence is a lexical address [Rlocal (depth, slot)]
    into the chain of rib frames, or a pre-interned global cell
    [Rglobal].  Parametric in the runtime value type ['v] (carried by
    pre-converted constants) and the global-cell type ['g], so that
    [Types] can instantiate it without a module cycle. *)
type ('v, 'g) resolved =
  | Rconst of 'v  (** constant, pre-converted to a runtime value *)
  | Rquoted of quoted
      (** structured [quote]d literal: a {e fresh} mutable value is built
          per evaluation, preserving [eq?] semantics *)
  | Rlocal of int * int  (** rib depth, slot within the rib *)
  | Rglobal of 'g
  | Rlam of ('v, 'g) rlambda
  | Rapp of ('v, 'g) resolved * ('v, 'g) resolved list
  | Rif of ('v, 'g) resolved * ('v, 'g) resolved * ('v, 'g) resolved
  | Rseq of ('v, 'g) resolved list
  | Rlet of ('v, 'g) resolved list * ('v, 'g) resolved
      (** binding initialisers in slot order; the body sees one new rib *)
  | Rletrec of ('v, 'g) resolved list * ('v, 'g) resolved
      (** initialisers evaluated inside the new rib, slots filled in order *)
  | Rset_local of int * int * ('v, 'g) resolved
  | Rset_global of 'g * ('v, 'g) resolved
  | Rfuture of ('v, 'g) resolved
  | Rpcall of ('v, 'g) resolved list

and ('v, 'g) rlambda = {
  rnparams : int;  (** number of fixed parameters *)
  rhas_rest : bool;  (** whether a rest slot follows the fixed slots *)
  rbody : ('v, 'g) resolved;
}

val int : int -> t

val bool : bool -> t

val str : string -> t

val sym : string -> t

val var : string -> t

val lam : string list -> t -> t

val lam_rest : string list -> string -> t -> t

val app : t -> t list -> t

val if_ : t -> t -> t -> t

val let_ : (string * t) list -> t -> t

val seq : t list -> t

val size : t -> int
(** Number of IR nodes, for generators and statistics. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
