(** The paper's example programs, as machine terms.

    Section 4 gives three small programs that pin down when controller
    application is valid; Sections 3 and 5 give the [product] workload and
    its [spawn/exit]-based nonlocal exit.  These terms are shared by the
    test suite (experiment E9) and the E8 benchmark. *)

(** {1 Section 4: controller validity} *)

val escaping_controller : Term.term
(** [((spawn (lambda (c) c)) (lambda (k) k))] — the controller escapes the
    spawned process by being returned, so its application is invalid: the
    machine must get stuck. *)

val double_use : Term.term
(** A controller applied a second time after its first application removed
    the root; the second application is invalid. *)

val reinstated : Term.term
(** The paper's third example: the process continuation (including its root)
    is reinstated before the outer controller application, so both
    applications are valid.  The paper states the result is "a procedure
    that returns its argument". *)

val reinstated_applied : Term.term
(** [reinstated] applied to the integer 42; evaluates to 42 if the paper's
    description holds. *)

(** {1 Sections 3 and 5: products with nonlocal exit} *)

val spawn_exit : Term.term
(** The paper's [spawn/exit] procedure: gives its argument a one-use exit
    procedure built from a process controller. *)

val product0 : Term.term
(** Curried [product0 : list -> exit -> int]: multiplies the elements of a
    list, calling [exit 0] when it hits a zero element. *)

val product : Term.term
(** [product : list -> int] built from [spawn_exit] and [product0]. *)

val product_of : int list -> Term.term
(** [product] applied to the given list. *)

val nested_spawn_depth : int -> Term.term
(** [n] nested [spawn]s whose innermost process exits through the outermost
    controller, crossing [n] roots; evaluates to the integer 7.  Exercises
    arbitrarily deep nonlocal exits ("spawn operations may be nested
    arbitrarily", Section 5). *)

val pk_twice : Term.term
(** A program that captures a process continuation and invokes it twice —
    multi-shot invocation, legal per Section 4 ("process continuations can
    be applied more than once").  The capture point sits under [1 + □], so
    invoking the continuation with 2 and with 3 yields [(1+2) * (1+3) = 12]. *)
