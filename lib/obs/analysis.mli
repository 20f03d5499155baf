(** Trace analysis: invariant checking, causal reports, diffing, live
    snapshots and SLO rollups.  Each one watches the one {!Trace.model}
    of the trace and reads the state each event meets; none keeps a
    process table of its own. *)

(** {1 Invariant checking} *)

module Check : sig
  type violation = { v_seq : int; v_rule : string; v_msg : string }
  (** [v_seq] is the seq stamp of the offending event ([-1] for
      end-of-trace checks), [v_rule] one of {!rules}. *)

  val rules : (string * string) list
  (** Rule id → one-line description, all 13 in the order checked:
      [seq-dense] (seqs run [base, base+1, …] from the first event's, so
      a flight dump checks clean), [ts-monotone], [slice-balance],
      [slice-time], [spawn-unique], [exit-once] (a dead pid emits
      nothing but the end of its open slice), [park-pairing] (a wake for
      an unparked pid is a lost-wakeup witness), [capture-consistency],
      [deadlock-count], [cancel-propagation-complete],
      [restart-intensity-bounded], [no-orphan-waiters] (at each
      quiescence point) and [span-balance] (spans left open are
      tolerated: cancelled or captured fibers never close theirs). *)

  val attach : Trace.model -> unit -> violation list
  (** [attach m] watches [m]; after the last event, [finish ()] runs the
      end-of-trace checks and returns the violations in stamp order.  In
      a window (see {!Trace}) only what needs pre-window state goes
      unreported, and so do the end-of-trace checks, as after a trace
      ending at a {!Obs.Event.Crash} (a flight dump's cut). *)

  val run : Trace.stamped array -> violation list
  (** [attach] to a fresh model fed the whole trace. *)

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
            entry), ["spawn:<kind>"], ["wake:<resource>"], ["join"] (a
            child exited), ["capture"] (a capture rooted at it) or
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

  val attach : Trace.model -> unit -> projection array
  (** [attach m] watches [m]; [finish ()] is the causal projection of
      each run fed: what {!diff} compares (per-pid and global streams)
      and [Explore.Dpor] keys its classes on (all three parts). *)

  val diff : Trace.stamped array -> Trace.stamped array -> divergence option
  (** The first divergence between two traces' projections, run by run:
      scheduler-independent facts (spawn structure, exits, capture and
      reinstate labels, channel operations, cancels, crashes, spans,
      deadlock) per canonical pid in program order, so benign
      interleaving differences do not diverge.  [None]: aligned. *)

  val to_json : divergence option -> Obs.Json.t

  val pp : Format.formatter -> divergence option -> unit
end

(** {1 Live snapshot} *)

module Snapshot : sig
  (** The state behind [ptrace top], [psi --stats] and bench e14: a model
      fed as events arrive, plus streaming percentiles of what they
      carry; renders fiber fates, the current run's census and the top
      blocked resources at any point. *)

  type t

  val create : unit -> t

  val feed : t -> Trace.stamped -> unit

  val model : t -> Trace.model

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
  (** Per-scenario service-level rollup of a load-generator trace, over
      [Pcont_load.Load]'s span conventions: a request is a span named
      after its scenario (no ['/']), its handler work a
      [<scenario>/service] child, and a request that did not complete
      carries a zero-length [/timedout], [/cancelled] or [/crashed]
      marker child.  Latency is admission-to-completion as the trace
      shows it; [Load.stats] has the arrival-anchored one. *)

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
  (** [check latencies a]: one ["assert failed: ..."] line per named
      [(scenario, latency sketch)] whose quantile exceeds the bound, or
      one line when [a] names no scenario; empty when [a] holds. *)

  val to_json : t -> Obs.Json.t
  (** Deterministic: equal rollups serialize to equal bytes. *)

  val pp : Format.formatter -> t -> unit
end
