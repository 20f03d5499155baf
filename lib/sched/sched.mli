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
(** Delivered into a fiber by an injected {!Fcrash} fault (see {!run}'s
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
  | Fcrash
      (** raise {!Injected_crash} inside the fiber about to be stepped:
          delivered at its suspension point (catchable by the fiber's
          own [try]) or, for a fiber that has not started, before its
          body runs *)
  | Fwake of string
      (** spuriously wake every fiber parked on the named resource
          (e.g. ["channel.recv"]).  Correct waiters re-check and re-park;
          a waiter that proceeds exposed a missing re-check loop. *)
  | Fdrop of int
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
    [sched.*] histograms (slice fuel, run-queue depth, capture size,
    park latency in rounds).  Timestamps are a deterministic virtual
    clock (cumulative slices), so a fixed policy yields a byte-stable
    trace.  Controller labels and channel ids are allocated per run
    (saved and restored around nested runs) for the same reason.  With
    no handle the instrumentation reduces to one pattern match per
    site: no events are allocated and behavior is bit-for-bit that of
    an uninstrumented run.

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

(** {1 Virtual time}

    The scheduler keeps a virtual clock that advances one unit per
    scheduling slice, with or without a trace handle attached, so timer
    behavior never depends on whether a run is being observed.  Sleeping
    fibers park on an internal timer wheel; when the run queue drains
    while timers are pending, the clock jumps to the earliest deadline
    instead of declaring deadlock, so timeouts remain a liveness
    backstop for fully blocked systems. *)

val now : unit -> int
(** The current virtual time (slices elapsed in the innermost run). *)

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

(** {1 Observability hooks for user-level abstractions}

    The scheduler is cooperative and single-threaded, so the innermost
    running {!run} exposes its observability context through globals.
    Blocking abstractions built on {!block}/{!wake} (e.g. {!Channel})
    use these to tag their own events with the stepping fiber's id.
    All three are meaningful only while a [run] is in progress. *)

val obs : unit -> Pcont_obs.Obs.t option
(** The handle passed to the innermost running {!run}, if any.  Guard
    event construction on the [Some] case to keep the no-handle path
    allocation-free. *)

val self_pid : unit -> int
(** The node id of the fiber currently being stepped. *)

val fresh_chan_id : unit -> int
(** Allocate a resource id (used by {!Channel}).  Ids restart at 1 in
    each {!run} so traces of identical runs are identical. *)

val register_dropper : int -> (unit -> Waitset.t option) -> unit
(** Register the {!Fdrop} hook for a channel id: the thunk drops one
    buffered message if any and returns the waitset to wake (senders
    parked on a full buffer), or [None] when there was nothing to drop.
    Called by {!Channel.create}; registrations are per-run. *)

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
  (** The stepping fiber's innermost open span, [-1] when none. *)

  val adopt : int -> unit
  (** Make the given span the fiber's current context (no-op for
      negative ids).  Used by {!Channel.recv} to continue the sender's
      span; user code rarely needs it directly. *)

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
