(** Unified tracing and metrics for both schedulers.

    The paper's headline claim is about {e where time goes} — controller
    and process-continuation operations are linear in control points, not
    continuation size — and this library turns the process tree's
    lifecycle into analyzable data: a typed, timestamped,
    sequence-numbered event stream ({!Event}) covering
    spawn/exit, run slices, park/wake, capture/reinstate, channel
    send/recv and deadlock, plus quantile sketches ({!Metrics}).

    Both schedulers ([Pcont_pstack.Concur.run] and [Pcont_sched.Sched.run])
    accept an optional [?obs] handle.  With no handle installed the
    instrumentation is a single pattern match per site — no event is
    allocated, no clock is advanced.  With a handle installed, every
    event carries:

    - a {e sequence number}: dense, starting at 0, incremented per event;
    - a {e virtual timestamp}: the cumulative scheduler work (machine
      transitions for the pstack scheduler, run slices for the native
      one), advanced deterministically by the scheduler.

    Neither consults the wall clock, so two runs with the same seed
    produce byte-identical traces — traces are diffable and goldens
    stay stable.

    Events are fanned out to pluggable {!section-sinks}: human-readable
    text (the [psi --trace] stream), JSONL, and Chrome trace-event JSON
    loadable in [chrome://tracing] or Perfetto, where each process
    renders as a track with run slices and park gaps.

    Exported JSONL traces are not write-only: {!Event.of_json} decodes
    them, and [Pcont_obs.Trace] reconstructs each run's
    per-process tallies and fates (the [psi --summary] table), and
    [Pcont_obs.Analysis] checks their invariants, computes causal
    reports and diffs two traces (the [ptrace] CLI). *)

(** {1 JSON utilities}

    A minimal JSON layer shared by the sinks, the benchmark harness's
    [--json] writer, and the trace self-checks.  No external dependency. *)

module Json : sig
  val escape : string -> string
  (** JSON string-escape the bytes of [s] (no surrounding quotes):
      quotes, backslashes and control characters become valid JSON
      escapes. *)

  val quote : string -> string
  (** [escape] with surrounding double quotes. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialization (no whitespace).  Integral numbers print
      without a fractional part, so trace fields round-trip exactly;
      [parse (to_string v)] succeeds for every finite value.  Object
      fields keep their list order, so equal values serialize to equal
      bytes — the sinks rely on this for byte-identical traces. *)

  val parse : string -> (t, string) result
  (** A small strict JSON parser, used by the tests, the trace-export
      smoke checks and {!Trace} re-ingestion to validate sink output. *)

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the value bound to [k], if any (the first
      binding when keys are duplicated). *)

  val int : t -> int option
  (** The integer a number denotes, if {!to_string} prints it exactly:
      integral and below 10{^15} in magnitude.  Every reader of
      integers from a file (traces, schedules) goes through this, so an
      out-of-range number is an error rather than an unspecified
      [int_of_float]. *)
end

(** {1 Events} *)

module Event : sig
  (** The process-lifecycle event taxonomy, shared by both schedulers.
      [pid] is the scheduler's node id for the process/branch/fiber the
      event concerns; pids are unique within one run. *)
  type t =
    | Spawn of { pid : int; parent : int; kind : string }
        (** a new process-tree node exists.  [kind] names how it
            was created: ["root"], ["branch"] (pcall/fork child),
            ["process"] (spawned root body), ["future"] (independent
            tree), ["controller"] (a controller body installed by a
            capture), ["graft"] (a node rebuilt by reinstatement —
            every rebuilt node is announced, parents before children).
            [parent] is [-1] for the root of a run. *)
    | Spawn_batch of { pid : int; kind : string; nodes : (int * int) array }
        (** one event for a whole regrafted subtree: [nodes] lists the
            rebuilt nodes as [(pid, parent)] pairs in pre-order (parents
            before children), exactly the order the equivalent individual
            {!Spawn} events would appear in; [pid] is the announcing
            (grafting) node.  Emitted by both schedulers when a
            reinstatement rebuilds a subtree, replacing O(n) ["graft"]
            spawns with one event. *)
    | Exit of { pid : int }  (** the node delivered its final value *)
    | Slice_begin of { pid : int }  (** the scheduler started running the node *)
    | Slice_end of { pid : int; fuel : int }
        (** the slice ended; [fuel] is the machine transitions charged
            (always 1 for the native scheduler, which does not meter
            fiber work) *)
    | Park of { pid : int; resource : string }
        (** the node blocked on the named resource (["future"],
            ["channel.send"], …) and left the run queue *)
    | Wake of { pid : int; resource : string }
        (** a delivery or {!Pcont_sched.Sched.wake} made the parked node
            runnable again *)
    | Capture of {
        pid : int;
        label : int;
        root_pid : int;
        control_points : int;
        size : int;
      }
        (** node [pid] applied the controller rooted at [label];
            [root_pid] is the node whose continuation held the labeled
            root — its live descendants are pruned into the process
            continuation, and the controller body runs in its place.
            The captured subtree has [control_points] control points
            (labels and forks — the quantity the paper's complexity
            claim is stated in) and [size] segments (pstack) or tree
            nodes (native) *)
    | Reinstate of { pid : int; label : int; size : int }
        (** node [pid] invoked a process continuation, grafting the
            captured subtree back into the live tree *)
    | Send of { pid : int; chan : int }  (** a value was enqueued on a channel *)
    | Recv of { pid : int; chan : int }  (** a value was dequeued from a channel *)
    | Cancel of { pid : int; scope : int; reason : string; pids : int array }
        (** node [pid] aborted the subtree rooted at [scope] — a capture
            that declines to reinstate.  [pids] lists every live node
            discarded, pre-order (including [pid] itself when it sat
            inside the scope); parked entries among them were released.
            Futures planted from inside the scope are independent trees
            and are {e not} discarded (the paper's "control operations
            affect only the tree in which they occur"). *)
    | Timeout of { pid : int; deadline : int }
        (** the timer fiber [pid] fired at virtual time [deadline]; the
            {!Cancel} of the timed-out scope follows *)
    | Crash of { pid : int; fault : string }
        (** a fiber failed.  [fault] is ["inject:crash"],
            ["inject:wake:R"] or ["inject:drop:N"] for scheduler fault
            injections — the in-trace markers
            [Pcont_explore.Explore.Schedule.of_trace] re-extracts so a
            faulted run replays byte-identically — or the exception
            description when a scope body raised.  [pid] is [-1] for
            faults targeting a resource rather than a fiber. *)
    | Restart of { pid : int; child : int; attempt : int; backoff : int; limit : int }
        (** supervisor [pid] restarted the child whose failed incarnation
            was rooted at node [child]; [attempt] counts restarts inside
            the current intensity window (1-based, bounded by [limit]),
            [backoff] is the virtual-time delay slept first *)
    | Invalid_controller of { pid : int; label : int }
        (** a controller was applied with no matching root in the
            current continuation *)
    | Deadlock of { parked : int }
        (** the run queue drained with [parked] live parked nodes *)
    | Span_begin of { pid : int; span : int; parent : int; name : string }
        (** fiber [pid] opened causal span [span] — a per-handle id,
            dense in allocation order, so traces stay byte-deterministic
            per seed.  [parent] is the enclosing span id, or [-1] at top
            level.  The current span is part of the fiber's context and
            propagates through [spawn], graft and channel send/recv
            (the receiver adopts the sender's span), so one request's
            latency decomposes across fibers. *)
    | Span_end of { pid : int; span : int }
        (** span [span] closed.  A span whose fiber was cancelled or
            captured away never ends — cleanup is declined
            reinstatement — and the checker's span-balance rule
            tolerates exactly that case. *)

  val name : t -> string
  (** Stable kebab-case tag (["spawn"], ["slice-end"], …), used as the
      ["ev"] field of the JSONL encoding. *)

  val pid : t -> int
  (** The node the event concerns; [-1] for {!Deadlock}. *)

  val to_human : t -> string
  (** One-line human rendering (no newline). *)

  (** {2 Wire schema} *)

  type field = Int of int | Str of string | Ints of int array | Pairs of (int * int) array

  val fields : t -> (string * field) list
  (** The event's payload fields in wire order: the one table the JSONL
      encoding, its decoder and the Chrome sink's args derive from. *)

  val to_json : seq:int -> ts:int -> t -> Json.t
  (** The JSONL object for one stamped event: [seq], [ts] and [ev]
      ({!name}) first, then {!fields}.  [Sink.jsonl] writes
      [Json.to_string] of this value. *)

  val of_json : Json.t -> (int * int * t, string) result
  (** Invert {!to_json}: [(seq, ts, event)].  Extra fields are ignored.
      An error names the first bad field in wire order: [missing field
      "pid"], [field "pid" is not an integer], or [field "pid" is out of
      range] when a number fails {!Json.int}. *)
end

(** {1 Metrics}

    One quantile sketch per named distribution.  A handle's table
    holds what no event carries (the schedulers' run-queue depth and
    park rounds, the machine's pool and segment sizes);
    [Pcont_obs.Analysis.Snapshot] keeps one for the distributions it
    folds from the events.  Counts live in {!Pcont_util.Counters}. *)

module Metrics : sig
  type t

  (** A DDSketch-style quantile sketch over non-negative ints.
      Log-spaced buckets with ratio gamma = (1+alpha)/(1-alpha), where
      alpha = 0.01, give every quantile estimate a {e proven
      relative-error bound}: bucket [i] holds values in
      (gamma{^i-1}, gamma{^i}] and reports the midpoint
      2·gamma{^i}/(gamma+1), clamped to the exact max, so for any
      observation v in the bucket |estimate − v|/v ≤ alpha.  Zeros are
      counted exactly.  Storage is O(buckets), independent of the
      observation count — p50/p99/p999 without storing observations. *)
  module Sketch : sig
    type t

    val create : unit -> t
    (** Fresh sketch: quantiles within 1% of a true observation. *)

    val observe : t -> int -> unit
    (** O(1): one log, one array bump (the bucket array grows by
        doubling on first sight of a large value).  Negative values
        clamp to 0. *)

    val quantile : t -> float -> float
    (** [quantile sk q] estimates the [q]-quantile (q clamped to
        [0,1]); 0. when empty, never above {!max}.  Deterministic for a
        given observation multiset. *)

    val count : t -> int

    val sum : t -> int

    val max : t -> int
    (** Exact (tracked outside the buckets). *)

    val mean : t -> float
    (** Exact; 0. when empty. *)

    val to_json : t -> Json.t
    (** [{count, p50, p99, p999, mean, max}]: the summary every JSON
        report prints for a distribution. *)
  end

  val create : unit -> t

  val observe : t -> string -> int -> unit
  (** Record one observation under [name] in its sketch, creating it on
      first use.  Values are clamped below at 0. *)

  type series = Sketch.t

  val series : t -> string -> series
  (** Resolve [name] to its sketch, creating it on first use.
      Scheduler hot paths observe once per slice; resolving the name
      once per run leaves one {!Sketch.observe} per observation. *)

  val find : t -> string -> Sketch.t option

  val sketches : t -> (string * Sketch.t) list
  (** All sketches, sorted by name. *)
end

(** {1 Handles} *)

type t
(** A trace handle: sequence counter, virtual clock, metrics, sinks. *)

type sink = {
  sink_event : seq:int -> ts:int -> Event.t -> unit;
  sink_close : unit -> unit;
}

val create : unit -> t
(** A fresh handle with no sinks, no sketches and a clock at 0. *)

val metrics : t -> Metrics.t

val attach : t -> sink -> unit
(** Add a sink; events fan out to sinks in attach order. *)

val has_sink : t -> bool

val emit : t -> Event.t -> unit
(** Stamp the event with the next sequence number and the current
    virtual time and hand it to every sink.  Call sites in the
    schedulers guard with a match on the [?obs] option, so a run
    without a handle never allocates an event.

    Fan-out is hardened: a sink whose [sink_event] raises cannot
    corrupt the stream.  The exception is captured, every other sink
    still receives the event, the faulty sink is detached, and a
    {!Event.Crash} warning event ([pid = -1],
    [fault = "sink: <exn>"]) is emitted to the survivors.  The
    sequence counter advances exactly once per event either way, so
    seqs stay dense. *)

val advance : t -> int -> unit
(** Advance the virtual clock by [d] (ignored when [d <= 0]).  Only the
    schedulers call this, with deterministic quantities (fuel charged,
    slices run). *)

val now : t -> int

val seq : t -> int
(** Events emitted so far. *)

val close : t -> unit
(** Close every sink (flushing any trailer, e.g. the Chrome JSON array's
    closing bracket) and detach them.  Idempotent. *)

(** {1 Causal spans}

    Begin/end annotations over the event stream.  Ids are allocated
    per handle, dense in allocation order, so span numbering — and the
    trace bytes — stay deterministic per seed.  The schedulers carry
    the {e current span} as fiber context (inherited at spawn and
    graft, carried by channel messages); use
    [Pcont_sched.Sched.Span.with_] (native) or the [span-begin] /
    [span-end] primitives (pstack) rather than calling these
    directly. *)

module Span : sig
  val begin_ : t -> pid:int -> ?parent:int -> string -> int
  (** Allocate a span id and emit {!Event.Span_begin}; [parent]
      defaults to [-1] (top level). *)

  val end_ : t -> pid:int -> int -> unit
  (** Emit {!Event.Span_end}; durations are folded from the events. *)
end

(** {1:sinks Sinks} *)

module Sink : sig
  val of_channel : out_channel -> string -> unit
  (** A writer appending to the channel. *)

  val human : ?prefix:string -> (string -> unit) -> sink
  (** One line per event: [<prefix>[<ts>] <event>].  [psi --trace] uses
      [~prefix:";; "] to stderr, preserving the historical stream. *)

  val jsonl : (string -> unit) -> sink
  (** One JSON object per line
      ([Json.to_string (Event.to_json ...)]):
      [{"seq":4,"ts":17,"ev":"park","pid":3,"resource":"future"}].
      Field order is fixed, so equal event streams produce byte-equal
      output.  [Pcont_obs.Trace.parse_string] reads this format back. *)

  val chrome : (string -> unit) -> sink
  (** Chrome trace-event JSON (array form), loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Every
      process becomes a named track ([tid] = pid): run slices are
      ["B"]/["E"] duration pairs, spans ["b"]/["e"] async pairs,
      everything else an instant event whose args are its
      {!Event.fields} minus [pid], each array shown as its [count];
      park gaps show as the space between slices.  The sink emits the
      closing bracket on {!close}. *)

  val memory : (int * int * Event.t -> unit) -> sink
  (** Feed [(seq, ts, event)] triples to a callback (tests,
      [psi --summary]). *)

  (** {2 Flight recorder} *)

  type ring
  (** A fixed-size ring buffer of the last [capacity] stamped events,
      stored {e unboxed} (tag + int fields in int arrays) so recording
      costs a handful of barrier-free array stores — no I/O, no
      allocation, nothing for the GC to promote on the hot path —
      dumped on demand (or automatically on failure) as ordinary JSONL
      that the whole [ptrace] toolchain accepts. *)

  val ring : ?capacity:int -> ?flight:(string -> unit) -> unit -> ring
  (** A fresh ring holding the last [capacity] events (default 4096).
      With [flight] installed, the ring dumps itself to it — one call,
      the whole window as a JSONL string — the moment a
      {!Event.Deadlock} or {!Event.Crash} event passes through (the
      supervisor emits a Crash marker when it gives up, so supervision
      collapse triggers a dump too). *)

  val ring_sink : ring -> sink
  (** The sink recording into [ring]; attach it like any other sink. *)

  val ring_dump : ring -> (string -> unit) -> unit
  (** Write the buffered window, oldest first, as JSONL with the
      {e original} seq/ts stamps — the dump is byte-for-byte a
      contiguous window of the full trace, so an unwrapped dump
      replays byte-identically and a wrapped one still diffs cleanly
      against the replayed full trace. *)

  val ring_stored : ring -> int
  (** Events currently buffered (≤ capacity). *)

  val ring_dropped : ring -> int
  (** Events overwritten since attach (total seen − capacity, ≥ 0). *)

  val ring_dumps : ring -> int
  (** Automatic flight dumps written so far. *)

  (** {2 Sampling} *)

  val sampled : seed:int64 -> rate:float -> sink -> sink
  (** Deterministic per-fiber head sampling in front of [sink]: each
      pid is kept with probability [rate] (clamped to [0,1]), decided
      once per fiber by a splitmix hash of [(seed, pid)] — a stream
      derived from the run seed but independent of the scheduler's own
      PRNG draws, so attaching a sampler never perturbs scheduling and
      the sampled trace is byte-identical for a given seed + rate.
      Structural events (spawn, exit, capture, reinstate, cancel,
      crash, restart, timeout, deadlock, …) always pass; per-fiber
      detail (slices, parks, wakes, sends, recvs, spans) passes only
      for sampled fibers.  Original seq stamps are preserved, so gaps
      are visible to consumers. *)
end
