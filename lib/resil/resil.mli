(** Fault tolerance over the native scheduler ({!Pcont_sched.Sched}):
    structured cancellation scopes, virtual-time timeouts, and
    supervision trees.

    Everything here is derived from the paper's control operations.  A
    scope is a [spawn] root, and every way it can end — completion,
    crash, cancellation, timeout — is an [abort]: the subtree is
    captured back to the root exactly as [control] would capture it,
    then discarded instead of reinstated.  Cancellation is {e declined
    reinstatement}; the scheduler releases the subtree's parked fibers,
    and the replacement body runs the scope's finalizers.

    Trace-wise, a scope exit emits a [Cancel] event listing every
    discarded pid; crashes emit [Crash], timeouts [Timeout], supervisor
    restarts [Restart] — the events checked by the
    [cancel-propagation-complete], [no-orphan-waiters] and
    [restart-intensity-bounded] invariants in {!Pcont_obs.Analysis}. *)

type failure =
  | Cancelled of string  (** the scope was cancelled (reason) *)
  | Crashed of string  (** an exception escaped the scope's body *)

val failure_to_string : failure -> string

type 'a outcome = ('a, failure) result

module Scope : sig
  type t
  (** A cancellation scope: a unit of work that can be cancelled as a
      whole, with finalizers that run on every exit path. *)

  val make : ?parent:t -> unit -> t
  (** A fresh scope.  With [parent], cancelling the parent also cancels
      this scope (cancellation flows down the scope tree). *)

  val run : t -> (unit -> 'a) -> 'a outcome
  (** Run the body under the scope, as a [spawn]-rooted subtree of the
      calling fiber.  Returns [Ok v] on completion, [Error (Crashed _)]
      if an exception escapes the body, [Error (Cancelled _)] if the
      scope is cancelled first — in every case after aborting the whole
      subtree (concurrent branches, parked fibers, sleepers included)
      and running the finalizers (newest first).  Must be called inside
      {!Pcont_sched.Sched.run}. *)

  val with_scope : ?parent:t -> (t -> 'a) -> 'a outcome
  (** [run] with the scope passed to the body (for self-cancellation or
      registering finalizers from inside). *)

  val cancel : t -> reason:string -> unit
  (** Request cancellation of the scope and every scope nested under
      it.  Asynchronous and idempotent: each scope's watchdog, a
      fiberless step parked in the scope's own tree, starts a fiber
      there that performs the abort, so [cancel] is safe to call from
      anywhere — another tree, a supervisor, a timer — and at any time
      (a no-op on finished scopes). *)

  val cancelled : t -> bool
  (** A cancellation has been requested and not yet taken effect. *)

  val on_exit : t -> (unit -> unit) -> unit
  (** Register a finalizer.  Finalizers run exactly once, newest first,
      in the abort's replacement fiber, whatever the exit path; a
      raising finalizer is swallowed (it cannot mask the outcome). *)

  val own_channel : t -> 'a Pcont_sched.Channel.t -> unit
  (** The scope owns the channel: close it on exit, so fibers outside
      the scope that are blocked on it observe end-of-stream instead of
      deadlocking. *)
end

val with_timeout : ?parent:Scope.t -> int -> (unit -> 'a) -> 'a outcome
(** [with_timeout d body] runs [body] in a fresh scope that is
    cancelled (reason ["timeout"]) if it is still running when the
    scheduler's virtual clock has advanced [d] units.  Emits a
    [Timeout] event when the timer fires.  Because quiescence jumps the
    virtual clock to the earliest pending deadline, the timeout fires
    even when every fiber in the system is blocked — it doubles as a
    deadlock backstop. *)

val with_deadline : ?parent:Scope.t -> at:int -> (unit -> 'a) -> 'a outcome
(** [with_deadline ~at body] is {!with_timeout} with an {e absolute}
    virtual-time deadline: the scope is cancelled (reason ["timeout"])
    if it is still running when the clock reaches [at].  If [at] has
    already passed when the scope starts, the timer fires without
    sleeping — the body is cancelled before it can run a slice.  This
    is the deadline shape an open-loop load generator needs: the
    request's budget counts from its {e scheduled arrival}, so
    admission lag (the generator falling behind under load) eats into
    the budget instead of silently extending it. *)

module Supervisor : sig
  type strategy =
    | One_for_one  (** restart only the failed child *)
    | One_for_all  (** cancel the siblings, then restart all children *)

  type child

  val child : name:string -> (unit -> unit) -> child

  val supervise :
    ?strategy:strategy ->
    ?max_restarts:int ->
    ?window:int ->
    ?backoff:int ->
    child list ->
    unit outcome
  (** Run the children under supervision, each in its own scope inside
      its own independent tree ({!Pcont_sched.Sched.future}), so a
      child's crash is contained by its scope and control operations
      never cross between siblings.  A child that fails (crash or
      cancellation) is restarted per [strategy] after an exponential
      backoff in virtual time ([backoff * 2^(attempt-1)]); each restart
      emits a [Restart] event with the attempt number.

      Restart intensity is bounded by a sliding window: when a child
      fails with [max_restarts] restarts already inside the last
      [window] units of virtual time, the supervisor gives up — it
      cancels every live child, waits for them to deliver, and returns
      the triggering failure.  Returns [Ok ()] when every child has
      completed successfully. *)
end
