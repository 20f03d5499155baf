(** Tree-structured concurrency with process continuations, in native OCaml.

    A cooperative scheduler maintains the process tree of the paper's
    concurrent implementation (Section 7), with fibers — one-shot
    effect-handler continuations — at the leaves:

    - {!pcall} forks the calling fiber into concurrently scheduled
      branches and resumes it when all branches have returned, which is
      exactly the paper's tree-structured (fork-and-return) concurrency;
    - {!spawn} adds a labeled root above a new fiber; the calling fiber
      waits for the process's result;
    - {!control} prunes the subtree delimited by a controller's root —
      including concurrently executing sibling branches, suspended at their
      last yield point — and packages it as a process continuation;
    - {!resume} grafts a captured subtree onto the invoking fiber and
      resumes every suspended branch in it.

    Scheduling is cooperative: a fiber runs until it performs a scheduler
    operation ([pcall], [spawn], [control], [resume] or {!yield}).  Compute
    loops that should be interruptible by sibling capture must call
    {!yield}.  Scheduling order is deterministic (tree order) by default, or
    seeded-random with {!Randomized}.

    Results travel in typed cells: a fiber writes its value into a cell
    (its controller's, its [pcall]'s result array, its future's) that
    the fiber it resumes reads, and the scheduler's effect is indexed by
    the type a request resumes with.  No value crosses a universal type,
    so no projection can fail.

    Everything here is one-shot (see {!Pcont.Spawn}): the multi-shot
    variants live in the machine implementations. *)

exception Dead_controller
(** The controller's root is not in the current continuation. *)

exception Expired_pk
(** A process continuation was resumed a second time. *)

exception Not_in_scheduler
(** A scheduler operation was performed outside {!run}. *)

exception Deadlock of string
(** Raised by {!run} when the run queue is empty while fibers remain
    parked on waitsets (see {!block}): every remaining fiber is blocked
    on a resource that no runnable fiber can signal.  The message names
    the blocked resources and, for each blocked fiber, its root-to-leaf
    path through the process tree, e.g.
    ["deadlock: 2 fiber(s) parked: 2 on channel.recv (paths 0>2>5,
    0>3>6)"].  Pending {!sleep} timers avert deadlock: a quiescent run
    jumps the virtual clock to the earliest deadline instead (see
    {!run}). *)

exception Injected_crash
(** Delivered into a fiber by an injected {!Crash} fault (see {!run}'s
    [inject] argument).  It is an ordinary exception: a fiber that
    catches it survives; one that does not aborts the whole run like any
    escaped exception — unless a supervisor ({!Pcont_resil}) converts it
    into a restart. *)

type policy = Pcont_sched_core.Sched_core.policy =
  | Round_robin  (** deterministic: branches run in process-tree order *)
  | Randomized of int64  (** seeded shuffle of branch order each round *)
  | Driven_pids of (int array -> int)
      (** one fiber per decision, run until its next suspension and
          chosen by pid (see {!Pcont_sched_core.Sched_core.policy}) *)

type fault =
  | Crash
      (** raise {!Injected_crash} inside the fiber about to be stepped:
          delivered at its suspension point (catchable by the fiber's
          own [try]) or, for a fiber that has not started, before its
          body runs *)
  | Wake of string
      (** spuriously wake every fiber parked on the named resource
          (e.g. ["channel.recv"]).  Correct waiters re-check and re-park;
          a waiter that proceeds exposed a missing re-check loop. *)
  | Drop of int
      (** silently drop one buffered message from the channel with this
          id (see {!fresh_chan_id}), waking its senders as a real
          consumer would.  A no-op for unknown or empty channels. *)

type 'r controller

type ('a, 'r) pk

val run :
  ?policy:policy ->
  ?obs:Pcont_obs.Obs.t ->
  ?inject:(int -> fault option) ->
  (unit -> 'a) ->
  'a
(** Run a computation under the scheduler.  Exceptions escaping any fiber
    abort the whole computation and re-raise here.

    [obs] attaches an observability handle (see {!Pcont_obs.Obs}): the
    scheduler emits the process-lifecycle event stream — spawn/exit,
    run slices (each slice runs a fiber to its next suspension and is
    charged one fuel unit), park/wake, capture/reinstate with
    control-point counts and subtree sizes, deadlock — and records the
    two [sched.*] sketches no event carries (run-queue depth, park
    latency in rounds); distributions the events do carry are folded
    from them ([Pcont_obs.Analysis.Snapshot]).  Timestamps are a
    deterministic virtual clock (cumulative slices), so a fixed policy
    yields a byte-stable trace.  Controller labels and channel ids are
    allocated per run (saved and restored around nested runs) for the
    same reason.  With no handle the instrumentation reduces to one
    pattern match per site: no events are allocated and behavior is
    bit-for-bit that of an uninstrumented run.

    [inject] is the deterministic fault hook: it is consulted once per
    scheduling slice with the global slice index (0-based count of
    slices begun so far) and may return a {!fault} to apply just before
    that slice runs.  Faults are part of the schedule, not the program:
    the same [policy] and [inject] reproduce the same run byte for
    byte, and each applied fault is recorded in the trace as a
    [Crash] marker event (fault string ["inject:..."], emitted before
    the target slice's begin event) so a schedule re-extracted from the
    trace re-injects identically. *)

val spawn : ('r controller -> 'r) -> 'r
(** Create a process with a fresh root; see {!Pcont.Spawn.spawn}. *)

val control : 'r controller -> (('a, 'r) pk -> 'r) -> 'a
(** Capture and abort the subtree back to the controller's root; apply the
    body to the process continuation outside the root.  Suspended sibling
    branches are captured inside the [pk].

    @raise Dead_controller if the root is not above the calling fiber. *)

val resume : ('a, 'r) pk -> 'a -> 'r
(** Graft the captured subtree here: the capture point returns ['a], all
    captured branches become runnable again, and [resume] returns the
    process's eventual result.

    @raise Expired_pk on a second resumption. *)

val pcall : (unit -> 'a) list -> 'a list
(** Evaluate the thunks as parallel branches of the process tree; return
    their values (in position order) once all have returned. *)

val pcall2 : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Heterogeneous binary [pcall]. *)

val yield : unit -> unit
(** Let other branches run; also the points at which a fiber can be
    suspended into a captured subtree. *)

val peak : unit -> int
(** The most process-tree nodes live at once so far in the innermost
    run (0 outside any run): spawns and graft batches add nodes, exits
    and cancel sweeps remove them.  The scheduling core keeps the count,
    so it is the same with or without a trace handle. *)

(** {1 Virtual time}

    The scheduler keeps a virtual clock that advances one unit per
    scheduling slice, with or without a trace handle attached, so timer
    behavior never depends on whether a run is being observed.  Sleeping
    fibers park on an internal timer wheel; when the run queue drains
    while timers are pending, the clock jumps to the earliest deadline
    instead of declaring deadlock, so timeouts remain a liveness
    backstop for fully blocked systems. *)

val now : unit -> int
(** The innermost run's virtual time, kept by its scheduling core:
    slices elapsed plus the jumps to timer deadlines; 0 outside every
    run. *)

val sleep : int -> unit
(** Park the calling fiber until the virtual clock reaches
    [now () + d] (a non-positive [d] sleeps to the next round).  Like
    any parked fiber, a sleeper captured into a process continuation is
    removed from the timer wheel and resumes — early — when the
    continuation is grafted. *)

val abort : 'r controller -> reason:string -> (unit -> 'r) -> 'a
(** Capture the subtree delimited by the controller's root — exactly as
    {!control} would — and discard it: parked descendants are released,
    and the root instead waits on a fresh fiber running the replacement
    thunk.  This is cancellation as declined reinstatement (the
    continuation is never grafted back), the primitive under
    {!Pcont_resil}'s scopes and timeouts.  Emits a [Cancel] event
    carrying every discarded pid.  Never returns to the caller.

    @raise Dead_controller if the root is not above the calling fiber. *)

(** {1 Parked waiters}

    A blocked operation must not busy-poll: a fiber that cannot make
    progress parks on the {e waitset} of the resource it is waiting for
    and leaves the run queue entirely, so scheduling rounds cost
    O(runnable fibers), not O(runnable + blocked).  The waker side calls
    {!wake} after changing the resource's state; woken fibers re-check
    their condition (parking is always a re-check loop, so spurious
    wake-ups are harmless).  {!touch} and the {!Channel} operations are
    built on this; user-level blocking abstractions can use it too.

    A parked fiber is still part of the process tree: capturing it into
    a process continuation invalidates its waitset entry and re-captures
    it as a runnable leaf, so grafting the continuation resumes it and
    it re-checks its condition wherever it lands.

    When the run queue drains while parked fibers remain, {!run} raises
    {!Deadlock} naming the blocked resources. *)

module Waitset : sig
  type t

  val create : string -> t
  (** A fresh, empty waitset.  The name identifies the resource class in
      {!Deadlock} diagnoses (e.g. ["future"], ["channel.send"]). *)

  val name : t -> string

  val parked : t -> int
  (** Fibers currently parked (live entries only). *)
end

val block : Waitset.t -> unit
(** Park the calling fiber on the waitset until a {!wake} (or, for a
    future's waitset, the delivery of its value).  Always re-check the
    blocking condition after [block] returns. *)

val wake : Waitset.t -> unit
(** Make every fiber parked on the waitset runnable.  A no-op when the
    waitset is empty (and effect-free, so safe on the uncontended fast
    path). *)

(** {1 Steps: leaves that are not fibers}

    A process whose branches mostly park or sleep need not pay a fiber
    for each.  A {e step} is a leaf made of a function and its
    argument; the scheduler calls the function inside the leaf's own
    slice, and its answer says what the leaf does next: park on a
    waitset, sleep, or start a fiber now, in this slice.  A parked step
    holds no closure and no stack, only the function and its argument,
    and is stepped again when woken.  Its slices, parks and wakes are
    those a fiber doing the same would have, event for event.

    A step must not perform a scheduler operation or any other effect:
    it runs outside every fiber, so the effect would reach the handler
    of an enclosing {!run}, if any.  What needs one goes in the fiber it
    answers with.  Injected crashes reach a step as they reach a fiber:
    on its first slice the run fails, as for a fiber that has not
    started; after a park the step is called with [Crashed e]. *)

type cause =
  | Started  (** the step's first slice *)
  | Woken
      (** a slice after a park or sleep: a wake (spurious ones
          included), the timer's expiry, or a graft of the captured
          step *)
  | Crashed of exn  (** an injected {!Crash}, delivered after a park *)

type answer =
  | Park of Waitset.t  (** park on the waitset, as {!block} does *)
  | Sleep of int  (** park on the timer heap, as {!sleep} does *)
  | Fiber of (unit -> unit)
      (** start a fiber running the body now, in this slice; the leaf
          is that fiber from then on *)

type branch
(** A leaf for {!spawn_branches} to fork: a fiber or a step. *)

val fiber : (unit -> unit) -> branch
(** A branch that runs the body as a fiber. *)

val step : ('a -> cause -> answer) -> 'a -> branch
(** [step f x] is a branch whose every slice answers [f x cause].
    Give a top-level [f], so the branch allocates no closure. *)

val spawn_branches : ('r controller -> branch list) -> 'r
(** Like {!spawn}, but the process's body only forks: its one slice
    calls the function (which, like a step, performs no effect) and
    forks the branches it returns, announced as [branch] spawns, as
    {!pcall} would.  No fiber waits for them: the process ends when a
    branch {!abort}s its controller, with the replacement's value (if
    every branch returns instead, the run fails with
    [Invalid_argument]). *)

(** {1 Observability hooks for user-level abstractions}

    The scheduler is cooperative and single-threaded, so the innermost
    running {!run} exposes its context through one global that [run]
    saves and restores.  Blocking abstractions built on {!block}/{!wake}
    (e.g. {!Channel}) use these to tag their own events with the
    stepping fiber's id. *)

val obs : unit -> Pcont_obs.Obs.t option
(** The handle passed to the innermost running {!run}, if any ([None]
    outside every run).  Guard event construction on the [Some] case to
    keep the no-handle path allocation-free. *)

val self_pid : unit -> int
(** The node id of the fiber currently being stepped: the innermost
    run's stepping node; 0 outside every run. *)

val fresh_chan_id : unit -> int
(** Allocate a resource id (used by {!Channel}).  Ids restart at 1 in
    each {!run} so traces of identical runs are identical. *)

val register_dropper : int -> (unit -> Waitset.t option) -> unit
(** Register the {!Drop} hook for a channel id: the thunk drops one
    buffered message if any and returns the waitset to wake (senders
    parked on a full buffer), or [None] when there was nothing to drop.
    Called by {!Channel.create}.  Registrations are per run and kept
    only when the innermost {!run} has an [inject] hook: a registered
    hook keeps its channel alive until the run ends, so without
    injection this is a no-op. *)

(** {1 Causal spans}

    A span is a named interval of a logical request, propagated through
    the concurrency operators: children spawned inside a span inherit
    it ([spawn], [pcall], [future], controller bodies, grafted
    subtrees), and {!Channel.send} stamps each message with the
    sender's span so the receiver adopts it.  Span begin/end events are
    emitted on the {!obs} stream ({!Pcont_obs.Obs.Span}); with no
    handle installed [with_] just runs its thunk. *)

module Span : sig
  val current : unit -> int
  (** The stepping fiber's innermost open span, kept on its process-tree
      node; [-1] when none and outside every run. *)

  val adopt : int -> unit
  (** Make the given span the fiber's current context (no-op for
      negative ids and outside every run).  Used by {!Channel.recv} to
      continue the sender's span; user code rarely needs it directly. *)

  val with_ : string -> (unit -> 'a) -> 'a
  (** [with_ name f] opens a span, runs [f], and closes the span —
      also on exception unwind, so a crashing fiber's span still ends
      (the [span-end] precedes the crash's effects in the trace).
      Nested spans record their parent. *)
end

(** {1 Futures: independent concurrency (Section 8)}

    The paper closes by noting that tree-structured and independent
    concurrency can coexist as a {e forest of trees}, "in which control
    operations affect only the tree in which they occur".  A {!future}
    plants a new independent tree in the forest: its branches are scheduled
    alongside everything else, but a controller inside it cannot capture
    across the tree boundary (it is {!Dead_controller} there), and pruning
    the touching tree never disturbs the future's tree. *)

type 'a future

val future : (unit -> 'a) -> 'a future
(** Start an independent process tree computing the value.  Unlike
    [pcall], the caller continues immediately.  If {!run}'s main tree
    finishes first, unfinished futures are discarded. *)

val touch : 'a future -> 'a
(** Wait for the future's value, parked on the future's waitset (no
    busy-polling); the scheduler wakes the toucher when the future's
    tree delivers. *)

val poll : 'a future -> 'a option
(** The value if already available. *)
