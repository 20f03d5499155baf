(** Lexical addressing: compile {!Ir.t} to the resolved IR executed by
    the machine.

    Every variable occurrence becomes either [Rlocal (depth, slot)] — an
    index into the chain of rib frames the machine maintains at runtime —
    or [Rglobal cell], a pre-interned mutable cell in the global table.
    References to names that are not (yet) defined intern an {e unbound}
    cell: the error ["unbound variable: x"] is still raised by name at
    use time, and a later top-level [define] of [x] bounds the same cell,
    so forward references among top-level definitions keep working.

    The pass is total (it never fails) and purely structural: each source
    node maps to exactly one resolved node, so the machine performs the
    same number of transitions and pushes the same frames per construct
    as it did on the unresolved IR — experiment counters are unchanged. *)

val toplevel : Types.genv -> Ir.t -> Types.rir
(** Resolve a top-level form: free variables are globals in [genv]. *)

val resolve : Types.genv -> (string * int) list list -> Ir.t -> Types.rir
(** Resolve under explicit compile-time scopes (innermost rib first);
    exposed for tests. *)

val quoted_value : Ir.quoted -> Types.value
(** Build the (fresh, possibly mutable) value of a quoted literal. *)
