(** The concurrent implementation: a tree of stacks (Section 7).

    Each [pcall] turns the evaluating branch into a {e fork} whose trunk is
    the process stack below the fork point; every subexpression becomes a
    child branch with its own local stack.  A deterministic cooperative
    scheduler interleaves runnable branches (simulated processors), stepping
    each for a fixed quantum of machine transitions.

    Controller application from within a branch first searches the branch's
    local stack (handled by {!Machine.step}); failing that, the scheduler
    climbs the process tree looking for the nearest trunk segment carrying
    the controller's root.  The subtree of stacks rooted at that segment —
    including {e all} concurrently executing sibling branches, which are
    suspended at quantum boundaries — is pruned from the tree and packaged
    into a tree-shaped process continuation.  Invoking such a continuation
    grafts the saved subtree onto the invoking branch and resumes every
    saved leaf.  Pruning counts one simulated mutual-exclusion acquisition
    ("sync.lock"), per the paper's remark that concurrent removal requires
    cooperation between processors.

    Process continuations remain multi-shot: grafting rebuilds fresh tree
    nodes from the immutable captured structure each time.

    Limitation: [dynamic-wind] winders are honoured by captures within a
    single branch's stack; a cross-branch prune does not run winders in
    sibling branches or trunk segments (suspension of a branch is not an
    exit, and the 1994 Subcontinuations semantics is sequential). *)

type sched = Pcont_sched_core.Sched_core.policy =
  | Round_robin  (** deterministic: branches step in tree order *)
  | Randomized of int64  (** seeded shuffle of the branch order each round *)
  | Driven_pids of (int array -> int)
      (** one branch per decision, chosen by pid (see
          {!Pcont_sched_core.Sched_core.policy}); combine with
          [~quantum:1] for the finest interleavings *)

type outcome =
  | Value of Types.value
  | Error of string
  | Out_of_fuel
  | Deadlock of string
      (** the run queue drained while branches remained parked on
          unresolved futures: no runnable branch can ever resolve them.
          (Before parked waiters this spun to {!Out_of_fuel}.) *)

val outcome_to_string : outcome -> string

val run :
  ?fuel:int ->
  ?quantum:int ->
  ?sched:sched ->
  ?obs:Pcont_obs.Obs.t ->
  ?cfg:Machine.config ->
  Types.genv ->
  Ir.t ->
  outcome
(** Resolve a program against the global table and evaluate it under the
    concurrent scheduler.  The scheduler keeps an incrementally
    maintained run queue of runnable leaves (lazily validated against
    the live tree), so a round costs O(runnable branches) rather than a
    walk of the whole process forest; the observable schedule of every
    policy is the same as a full tree-order walk.  [fuel] bounds the
    total number of machine transitions across all branches (default
    10_000_000); [quantum] is the number of transitions a branch may take
    before the scheduler moves on (default 16; [Invalid_argument] below
    1, where no slice could spend fuel).

    [(future e)] plants an {e independent} tree in the process forest
    (Section 8): controllers cannot capture across its boundary, and
    pruning the creating subtree does not disturb it.  The scheduler
    keeps running remaining future trees after the main tree finishes
    (until they deliver, park for good, or the fuel runs out), so
    futures stay touchable across top-level forms.

    A branch that touches a pending future {e parks} on the future's
    cell: it leaves the run queue (consuming no fuel while blocked) and
    is re-enqueued by the delivery of the cell's value, so a round costs
    O(runnable), not O(runnable + blocked).  When the queue drains while
    parked branches remain, the run terminates with {!Deadlock} instead
    of burning the remaining fuel.  The cell's waiters are a
    {!Pcont_sched_core.Sched_core.waitset}: a capture that prunes parked
    branches into a process continuation kills their entries and
    captures them as ordinary suspended leaves, so grafting the
    continuation re-applies their pending touches, which find the cell
    resolved or park again.

    [obs] attaches an observability handle (see {!Pcont_obs.Obs}): the
    scheduler emits the full process-lifecycle event stream —
    spawn/exit, run slices with fuel charged, park/wake,
    capture/reinstate with control-point counts and segment totals,
    deadlock — and records the two [concur.*] sketches no event carries
    (run-queue depth, park latency in rounds); distributions the events
    do carry are folded from them ([Pcont_obs.Analysis.Snapshot]).
    Events are stamped with a deterministic virtual clock (cumulative
    fuel), so a fixed seed yields a byte-stable trace.  With no handle the
    instrumentation reduces to one pattern match per site: no events
    are allocated and results, counters and schedules are bit-for-bit
    those of an uninstrumented run. *)
