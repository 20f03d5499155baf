(** The process-stack machine: one CESK-style transition per call.

    The machine state is a control (an expression under evaluation, a value
    being returned, or an application about to happen) plus the process
    stack.  Control operators transform the process stack exactly as
    Section 7 describes:

    - [spawn f] pushes an empty segment with a fresh label and applies [f]
      to the corresponding controller;
    - applying a controller removes all segments down to and including the
      topmost segment with its label, packages them into a process
      continuation, and applies the controller's argument to it {e outside}
      the removed root (it is an error if no such segment exists);
    - applying a process continuation pushes its saved segments back onto
      the current process stack and returns its argument to the reinstated
      top frame;
    - [call/cc] captures the entire process stack; invoking the resulting
      continuation replaces the entire process stack (abortive);
    - [prompt thunk] (Felleisen's [#]) pushes an unlabeled prompt segment;
      [fcontrol f] (Felleisen's [F]) captures a flat, composable
      continuation up to the nearest prompt and aborts to it.

    Instrumentation: every capture/reinstate records how many segments and
    frames it touched in the configuration's counters, so experiments E1/E2
    can compare the [Linked] strategy (touches segments only) with the
    [Copying] strategy (touches every frame). *)

type config = {
  strategy : Types.strategy;
  counters : Pcont_util.Counters.t;
  labels : Pcont_util.Id.t;  (** fresh-label source for [spawn] *)
  spans : Pcont_util.Id.t;
      (** span-id source for [span-begin] when no trace handle is
          attached: dense from 0 across the session's forms, as a
          handle's ids are *)
  fastpath : bool;
      (** enables the segment pool and the one-shot move path (default);
          [false] reproduces the pre-optimization allocation behavior so
          benchmarks can measure both in one run *)
  pool : Types.segment array;
      (** recycled segment records, slots [0 .. pool_n-1] live; spawn and
          prompt draw from it, the matching returns refill it *)
  mutable pool_n : int;
  mutable pool_ops : int;
      (** recycles since the last pool flush; the pool is aged out
          periodically so promoted records cannot circulate forever *)
  pool_hit : int ref;
      (** cached cell of counter [machine.pool.hit]: spawn/prompt segments
          served from the pool *)
  pool_miss : int ref;
      (** cached cell of counter [machine.pool.miss]: freshly allocated *)
  pk_moved : int ref;
      (** cached cell of counter [machine.capture.moved]: one-shot process
          continuations whose segments were moved, not shared or copied *)
  mutable lin_cache : (Types.rir * int) list;
      (** memoized one-shot classification per controller-body code node
          (physical identity; [-1] = not linear) — the linearity walk runs
          once per code site, not once per capture *)
  mutable metrics : Pcont_obs.Obs.Metrics.t option;
      (** distribution half of the observability metrics ([machine.*]
          size distributions); the drivers install it while a trace
          handle is attached and the machine leaves it alone otherwise *)
}

val config : ?strategy:Types.strategy -> ?fastpath:bool -> unit -> config

val initial_pstack : Types.segment list
(** A single empty base segment. *)

val initial : Types.rir -> Types.state
(** Initial state for a resolved top-level form; top-level forms close
    over no ribs, so the lexical environment starts empty. *)

val future_cell : unit -> Types.future_cell
(** A pending future's cell, with no waiters. *)

type stepped =
  | Next of Types.state
  | Final of Types.value
      (** the base segment was popped with this return value *)
  | Err of string
  | Esc_control of Types.label * Types.value
      (** a controller was applied whose label does not occur in the local
          process stack; the concurrent scheduler resolves it against the
          process tree, the sequential driver reports an invalid controller
          application.  Carries the label and the controller's argument. *)
  | Esc_pktree of Types.pktree * Types.value
      (** a tree-shaped process continuation was invoked with the given
          argument; only the concurrent scheduler can graft it *)
  | Esc_touch of Types.future_cell
      (** [touch] of a still-pending future: the concurrent scheduler
          retries the branch after other trees have progressed *)
  | Esc_fork of Types.rir list * Types.env
      (** [pcall] under {!step_exn_conc}: the scheduler forks one child
          per expression (operator included; the list is non-empty) *)
  | Esc_future of Types.rir * Types.env
      (** [future] under {!step_exn_conc}: the scheduler plants a new
          tree and continues the branch with a pending future *)
  | Esc_sleep of int
      (** [sleep] of a duration in virtual-time units: the concurrent
          scheduler parks the branch on its timer wheel; outside the
          scheduler there is no clock and the run errors *)
  | Esc_span_begin of string
      (** [span-begin] with the span's name: the concurrent scheduler
          opens a causal span and continues the branch with its id *)
  | Esc_span_end of int
      (** [span-end] of a span id previously returned by [span-begin]:
          the concurrent scheduler closes the span *)

exception Stop of stepped
(** Raised by {!step_exn} for every outcome other than a plain successor
    state.  The payload is never [Next]. *)

val step_exn : config -> Types.state -> Types.state
(** One transition on the hot path: returns the successor state directly
    and raises {!Stop} on termination, error or escape, so a driver loop
    pays for one exception handler per run instead of one [stepped]
    allocation per transition.  [pcall]/[future] evaluate via their
    sequential fallbacks; never raises [Esc_fork]/[Esc_future]. *)

val step_exn_conc : config -> Types.state -> Types.state
(** Like {!step_exn}, but [pcall] and [future] raise [Esc_fork] and
    [Esc_future] for the concurrent scheduler instead of taking the
    sequential fallback. *)

val step : config -> Types.state -> stepped
(** Allocation-boxed wrapper around {!step_exn}; never raises [Stop]. *)

val apply :
  ?oneshot:bool ->
  config ->
  Types.state ->
  Types.value ->
  Types.value list ->
  Types.state
(** Apply a procedure value to arguments in the given state's process
    stack.  Exposed for the drivers; raises {!Stop} like {!step_exn}.
    [oneshot] (default [true]) permits classifying controller captures as
    linear; the concurrent scheduler disables it because a sibling capture
    can package a pending pk application into a multi-shot [Pktree]. *)

val linear_pk_use : Types.rir -> bool
(** Is the body of a unary controller argument [(lambda (k) body)] a
    linear (at-most-once, non-escaping) user of [k]?  Conservative static
    check behind the one-shot move path; exposed for tests. *)

val pin_segments : Types.segment list -> unit
(** Mark every segment as shared: aliased by a captured continuation, so
    the machine must copy-on-write instead of mutating in place and must
    never recycle the record into the pool.  The concurrent scheduler
    pins every stack it packages into a [Pktree]. *)

val split_at_spawn_label :
  Types.label ->
  Types.segment list ->
  (Types.segment list * Types.segment list) option
(** [(captured, rest)] where [captured] ends with the topmost segment rooted
    at the label. *)
