(** Sequential driver: iterate the machine to completion.

    This driver realises the paper's {e sequential} implementation
    (Section 7's stack of labeled stacks).  [pcall] degenerates to
    left-to-right evaluation; escapes that require the process tree
    ([Esc_control] with no local root, tree-shaped process continuations)
    are reported as errors, exactly as an invalid controller application is
    an error in the paper. *)

type outcome =
  | Value of Types.value
  | Error of string
  | Out_of_fuel

val outcome_to_string : outcome -> string

val run : ?fuel:int -> Machine.config -> Types.state -> outcome
(** Default fuel: 10_000_000 machine transitions. *)

val eval_ir : ?fuel:int -> ?cfg:Machine.config -> Types.genv -> Ir.t -> outcome
(** Resolve an IR program against the global table ({!Resolve.toplevel})
    and evaluate it on a fresh process stack.  A fresh configuration
    (Linked strategy) is made if none given. *)

val eval_value : ?fuel:int -> ?cfg:Machine.config -> Types.genv -> Ir.t -> Types.value
(** Like {!eval_ir} but raises [Failure] unless a value is produced. *)
