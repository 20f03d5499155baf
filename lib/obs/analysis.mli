(** Trace analysis: invariant checking, causal reports, diffing.

    The three halves of the [ptrace] CLI.  {!Check} lints a trace
    against the event-stream contract both schedulers promise (a
    post-hoc lost-wakeup/race detector that works on any exported
    trace); {!Report} turns one run into a causal profile — critical
    path, utilization, fairness, blocked-time attribution; {!Diff}
    aligns two traces and reports their first causal divergence. *)

(** {1 Invariant checking} *)

module Check : sig
  type violation = { v_seq : int; v_rule : string; v_msg : string }
  (** [v_seq] is the seq stamp of the offending event ([-1] for
      end-of-trace checks), [v_rule] one of {!rules}. *)

  val rules : (string * string) list
  (** Rule id → one-line description:
      - [seq-dense]: sequence numbers are [base, base+1, …] in file
        order, where [base] is the first event's seq — so a
        flight-recorder dump (a dense suffix of a longer stream) still
        checks clean;
      - [ts-monotone]: timestamps never decrease;
      - [slice-balance]: at most one slice open at a time; every begin
        has a matching end with the same pid; no slice left open at a
        run boundary;
      - [slice-time]: a slice's extent equals [max fuel 1] — the clock
        advances exactly at slice ends;
      - [spawn-unique]: a pid is spawned once per run, its parent is
        known ([-1] only for the root), and every event references a
        spawned pid;
      - [exit-once]: a pid exits at most once, and an exited or pruned
        pid emits nothing afterwards but the end of its open slice;
      - [park-pairing]: parks and wakes alternate per pid with matching
        resources — no double park, no double wake (a wake for a
        never-parked or pruned pid is a lost-wakeup witness), no slice
        while parked;
      - [capture-consistency]: a capture's [root_pid] is a live
        ancestor of the capturing pid, and every reinstate names a
        label captured earlier in the run with the same subtree size;
      - [deadlock-count]: a deadlock event's parked count equals the
        number of live parked processes at that point;
      - [span-balance]: each span id begins at most once, and every
        span end names an id with an open begin (ids are per-handle, so
        this bookkeeping is global across runs; spans left open at end
        of trace are tolerated — cancelled or captured fibers never get
        to close theirs). *)

  val run : Trace.stamped array -> violation list
  (** All violations in stamp order.  The checker resets its per-run
      state (pids, parks, labels) at each root spawn; [seq-dense] and
      [ts-monotone] span the whole trace.

      A trace whose first seq is nonzero is a flight-recorder window
      into the middle of a run.  Every rule still applies to what the
      window can prove, but obligations needing pre-window state are
      relaxed instead of reported as false positives: references to
      pids spawned before the cut, one stray slice end at the top, a
      first wake matching a pre-window park, reinstates of pre-window
      captures, ends of pre-window spans, the deadlock park census,
      and the end-of-run quiescence checks.  The quiescence checks are
      also skipped when the trace ends at a {!Obs.Event.Crash} — the
      cut point of a flight dump triggered by that crash, where the
      interrupted slice is legitimately still open. *)

  val to_json : violation list -> Obs.Json.t

  val pp : Format.formatter -> violation list -> unit
end

(** {1 Fairness} *)

(** Jain's fairness index [(Σx)² / (n·Σx²)] over a stream of values:
    1 = perfectly fair, 1/n = one value takes everything, and 1 when
    nothing (or only zeros) was added.  {!Report}, {!Slo} and [Load]
    all compute their fairness here. *)
module Jain : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val index : t -> float
end

(** {1 Causal report} *)

module Report : sig
  type proc = {
    p_pid : int;
    p_kind : string;
    p_slices : int;
    p_fuel : int;
    p_run : int;  (** virtual time on-CPU *)
    p_blocked : int;  (** virtual time parked *)
    p_util : float;  (** [p_run /. span] (0 when the span is empty) *)
  }

  type hop = {
    h_pid : int;
    h_enter : int;  (** slice begin ts *)
    h_leave : int;  (** slice end ts *)
    h_via : string;
        (** how the pid became runnable for this slice: ["start"] (run
            entry), ["spawn:<kind>"], ["wake:<resource>"] or
            ["preempt"] (was runnable all along) *)
  }

  type span_row = {
    sp_name : string;
    sp_count : int;  (** spans begun with this name *)
    sp_open : int;  (** begun but never ended (cancelled/captured) *)
    sp_total : int;  (** Σ closed-span durations, virtual time *)
    sp_mean : float;
    sp_max : int;
    sp_on_path : int;
        (** virtual time a critical-path hop ran while a closed span of
            this name was open — how much of the span was load-bearing *)
  }

  type t = {
    r_events : int;
    r_span : int;
    r_procs : proc list;  (** by pid *)
    r_kinds : (string * int) list;  (** spawn-kind census, by kind *)
    r_fairness : float;
        (** Jain's index [(Σx)² / (n·Σx²)] over the on-CPU time of
            processes that ran at least one slice: 1 = perfectly fair *)
    r_blocked : (string * int) list;  (** blocked time per resource *)
    r_captures : int;
    r_cp_per_capture : float;  (** mean control points per capture *)
    r_size_per_capture : float;
    r_reinstates : int;
    r_critical : hop list;  (** in time order *)
    r_critical_time : int;  (** Σ hop extents; ≤ span, the gap is queueing *)
    r_spans : span_row list;  (** by name; empty when the trace has no spans *)
    r_deadlock : int option;
  }

  val of_trace : Trace.stamped array -> t list
  (** One report per run. *)

  val to_json : t -> Obs.Json.t
  (** Deterministic: equal reports serialize to equal bytes. *)

  val pp : ?top:int -> Format.formatter -> t -> unit
  (** [?top] caps the per-process table at the [top] processes with the
      most on-CPU virtual time (ties by pid), appending a
      "... (k more)" line.  Default: all rows. *)
end

(** {1 Trace diff} *)

module Diff : sig
  type divergence = {
    d_run : int;  (** run index *)
    d_cpid : int;  (** canonical pid (spawn order within the run) *)
    d_index : int;  (** index within that pid's causal stream *)
    d_left : string option;  (** human rendering; [None] = stream ended *)
    d_right : string option;
  }

  type projection = {
    pr_global : string array;  (** deadlock and pid-less crashes *)
    pr_pids : string array array;
        (** per canonical pid (spawn order), its causal facts in program
            order *)
    pr_resources : (string * string array) list;
        (** per channel (["c<chan>"]) and waitset (["w<name>"]), sorted
            by key: every operation on it in trace order, as an op code
            ([!] send, [?] recv, [p] park, [w] wake) and a canonical pid *)
  }

  val project : Trace.stamped array -> projection
  (** The causal projection of one run's events, the one {!diff}
      compares (its per-pid and global streams) and [Explore.Dpor] keys
      its equivalence classes on (all three parts). *)

  val diff : Trace.stamped array -> Trace.stamped array -> divergence option
  (** Compare the causal skeletons of two traces, run by run.  Each
      run's events are projected to scheduler-independent facts — spawn
      structure, exits, capture/reinstate labels, channel operations,
      invalid controllers, deadlock — dropping timestamps, run slices
      and park/wake (pure scheduling), and capture sizes/control points
      (representation-specific).  Pids are renamed to spawn order, and
      each canonical pid's own event sequence (program order) is
      compared, so benign interleaving differences between schedulers
      do not diverge.  [None] means causally aligned. *)

  val to_json : divergence option -> Obs.Json.t

  val pp : Format.formatter -> divergence option -> unit
end

(** {1 Live snapshot} *)

module Snapshot : sig
  (** Incremental fold over a (possibly still growing) event stream —
      the state behind [ptrace top], [psi --stats] and bench e14.  Feed
      stamped events as they arrive (e.g. tailing a JSONL file mid-run)
      and render at any point: virtual clock, fiber fates, streaming
      percentiles for slice fuel / wake-to-run latency / span durations
      (via {!Obs.Metrics.Sketch}), and the top blocked resources.  Works
      identically on a finished trace or a flight-recorder dump.  A root
      spawn resets the per-pid state (a new run's pids are fresh); span
      state carries over, as span ids belong to the handle. *)

  type t

  val create : unit -> t

  val feed : t -> Trace.stamped -> unit

  val sink : t -> Obs.sink
  (** A sink that feeds every event it receives to the snapshot. *)

  val metrics : t -> Obs.Metrics.t
  (** The distributions folded so far, one sketch per name:
      [slice.fuel] (fuel per slice), [wake.to.run] (virtual time from a
      wake to the woken pid's next slice), [span.duration] (closed
      spans), [capture.control-points] and [capture.size] (per capture),
      [cancel.pids] (pids swept per cancel). *)

  val pp : Format.formatter -> t -> unit
end

(** {1 SLO rollup} *)

module Slo : sig
  (** Per-scenario service-level rollup of a load-generator trace — the
      fold behind [ptrace slo].

      Works over the span conventions of [Pcont_load.Load]: a request
      is a span named after its scenario (no ['/'] in the name), the
      handler work is a [<scenario>/service] child span, and a request
      that did not complete carries a zero-length [<scenario>/timedout]
      / [/cancelled] / [/crashed] marker child.  Latency here is
      admission-to-completion as visible in the trace; the exact
      arrival-anchored decomposition lives in [Load.stats] (in-process,
      where the scheduled arrival tick is known). *)

  type scen = {
    sc_name : string;
    mutable sc_requests : int;  (** request spans begun *)
    mutable sc_completed : int;  (** closed without a fate marker *)
    mutable sc_timedout : int;
    mutable sc_cancelled : int;
    mutable sc_crashed : int;
    mutable sc_open : int;  (** never closed (cut or cancelled fiber) *)
    sc_latency : Obs.Metrics.Sketch.t;  (** completed request spans *)
    sc_service : Obs.Metrics.Sketch.t;  (** closed service child spans *)
  }

  type t = {
    slo_events : int;
    slo_span : int;  (** virtual-time extent of the trace *)
    slo_fairness : float;
        (** Jain's index over per-pid on-CPU virtual time *)
    slo_scens : scen list;  (** sorted by name *)
  }

  val of_trace : Trace.stamped array -> t

  type assertion = { a_scen : string option; a_q : float; a_limit : float }

  val parse_assert : string -> (assertion, string) result
  (** Grammar: [[scenario:]p50|p99|p999<=N] — e.g. ["p99<=250"] or
      ["pool:p999<=4000"].  Without a scenario prefix the bound applies
      to every scenario in the trace. *)

  val check : (string * Obs.Metrics.Sketch.t) list -> assertion -> string list
  (** [check latencies a] applies [a] to each [(scenario, latency
      sketch)] it names: one ["assert failed: ..."] line per scenario
      whose completed-request latency quantile exceeds the bound, or
      one line when it names no scenario (asserting over an empty trace
      is itself a failure).  Empty when the assertion holds.  [ptrace
      slo] passes each scenario's [sc_latency], [pload] its
      arrival-anchored sketches. *)

  val to_json : t -> Obs.Json.t
  (** Deterministic: equal rollups serialize to equal bytes. *)

  val pp : Format.formatter -> t -> unit
end
