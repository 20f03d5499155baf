(** Deterministic record/replay and DPOR-style schedule exploration.

    The paper's point is that scheduling is a program-level object; this
    library makes it a {e file}.  Both schedulers already route every
    scheduling decision through their policy ([Driven_pids]) and
    stamp traces with a deterministic virtual clock, so:

    - {b record}: run a program once under any policy with a JSONL sink
      attached; the trace's [slice-begin] stream {e is} the schedule (one
      decision per slice under a driven policy, and exactly the same
      per-round stepping order under the round-based ones);
    - {b replay}: feed the recorded pid sequence back through
      [Driven_pids]; because all remaining nondeterminism lives behind
      the decision function, the replayed trace is byte-identical to the
      recording;
    - {b explore}: instead of a blind seed sweep, compute per executed
      schedule which decisions {e race} — send/recv on the same channel,
      park/wake order within a waitset, capture-vs-run of an entry the
      capture prunes — and re-run with the racing decision flipped at
      the earliest point where it was enabled (dynamic partial-order
      reduction in the style of Flanagan–Godefroid 2005).  Every
      explored run is checked against all {!Pcont_obs.Analysis.Check}
      invariants plus an optional user assertion; the first violation is
      minimized and emitted as a replayable schedule file.

    The unit both halves share is the {!Schedule.t}: the flat sequence
    of pids in slice-begin order, across every run of the trace (a psi
    session traces one run per top-level form; a faithful replay consumes
    exactly each run's slice count before the next run starts, so a flat
    sequence needs no run boundaries). *)

module Trace := Pcont_obs.Trace
module Obs := Pcont_obs.Obs

(** {1 Faults}

    Deterministic fault injection treats a fault as one more schedule
    decision: a fault is pinned to a global slice index, the scheduler
    emits an in-trace marker when it fires, and a schedule re-extracted
    from the trace re-injects at the same index — so faulty runs replay
    byte-identically like any other. *)

module Fault : sig
  type kind = Pcont_sched.Sched.fault =
    | Crash  (** deliver {!Pcont_sched.Sched.Injected_crash} *)
    | Wake of string  (** spurious wake of a waitset, by name *)
    | Drop of int  (** drop one buffered message from a channel, by id *)

  type t = { at : int; kind : kind }
  (** Fire [kind] just before global slice [at] (counted across every
      run of the trace, like schedule decisions). *)

  val kind_to_string : kind -> string
  (** ["crash"], ["wake:<resource>"], ["drop:<chan>"]. *)

  val to_string : t -> string
  (** ["<kind>@<at>"]. *)

  val kind_of_marker : string -> kind option
  (** Parse the scheduler's in-trace [Crash] marker faults
      (["inject:crash"], ["inject:wake:<r>"], ["inject:drop:<c>"]). *)
end

(** {1 Schedules} *)

module Schedule : sig
  type t = { decisions : int array; faults : Fault.t list }
  (** The pid stepped at each scheduling decision, in decision order,
      plus the faults injected along the way. *)

  val of_trace : Trace.stamped array -> t
  (** Concatenate {!Trace.schedule} over the trace's runs and re-extract
      the injected faults from their in-trace markers. *)

  val to_json : t -> Obs.Json.t
  (** [{"version":1,"kind":"pcont-schedule","decisions":[...]}], plus a
      ["faults"] array when faults were injected. *)

  val of_json : Obs.Json.t -> (t, string) result
  (** Decisions and fault slices must pass {!Obs.Json.int}. *)

  val save : string -> t -> unit

  val load : string -> (t, string) result
  (** Accepts either a schedule file ({!to_json} on one line) or a JSONL
      trace, whose schedule is extracted with {!of_trace}. *)
end

(** {1 Targets}

    A target is a runnable program: the exploration engine and the
    replay harness both need to run the same program many times under
    different policies, so the program is packaged with its policy
    plumbing.  [tg_run] must be self-contained and deterministic modulo
    the policy — every call starts from fresh state. *)

type target = {
  tg_name : string;
  tg_run : Pcont_sched.Sched.policy -> Fault.t list -> Obs.t option -> string;
      (** Run once, injecting the given faults; the result is a
          human-readable outcome string (value, error, or deadlock
          diagnosis). *)
}

val native_target : string -> (unit -> string) -> target
(** Package a program against [Pcont_sched.Sched].  [Sched.Deadlock] —
    and any other exception, injected crashes included — is caught and
    rendered into the outcome. *)

val pstack_target : string -> string -> target
(** [pstack_target name src] packages a Scheme program evaluated by a
    fresh [Pcont_syntax.Interp] per call (multi-form programs trace one
    run per form; the flat schedule spans them).  Fault injection is a
    native-scheduler feature: a pstack target run with faults reports an
    error outcome instead of silently ignoring them. *)

(** {1 Record / replay} *)

module Replay : sig
  type divergence = {
    d_decision : int;  (** index of the first diverging decision *)
    d_wanted : int;  (** recorded pid; [-1] = schedule exhausted early *)
    d_candidates : int array;  (** pids actually runnable at that point *)
  }

  val driver : Schedule.t -> (int array -> int) * (unit -> divergence option)
  (** A [Driven_pids] decision function that follows the schedule,
      plus a probe for the first divergence (recorded pid not runnable,
      or schedule exhausted before the run finished).  On divergence the
      driver falls back to index 0 and keeps going, so a diverged replay
      still terminates and can be diagnosed. *)

  val pp_divergence : divergence -> string
  (** ["decision N: schedule exhausted (runnable: …)"] or
      ["decision N: recorded pid P not runnable (runnable: …)"]. *)

  val first_diff : string -> string -> string
  (** [first_diff recorded replayed] names the first differing line of
      two traces, counting lines from 1. *)

  type recording = {
    rec_trace : string;  (** JSONL bytes *)
    rec_outcome : string;
    rec_schedule : Schedule.t;
  }

  val record :
    ?policy:Pcont_sched.Sched.policy ->
    ?faults:Fault.t list ->
    ?attach:(Obs.t -> unit) ->
    target ->
    recording
  (** [?attach] is called with the recording's fresh [Obs] handle after
      the JSONL sink is installed and before the run starts — the hook
      for extra sinks (e.g. a flight-recorder ring).  Extra sinks see
      the same stream; they cannot perturb the recorded bytes. *)

  val replay : target -> Schedule.t -> recording * divergence option
  (** Re-run pinned to the schedule, re-injecting its faults. *)

  val check_roundtrip :
    ?policy:Pcont_sched.Sched.policy ->
    ?faults:Fault.t list ->
    target ->
    (recording, string) result
  (** Record, replay, and require byte-identical traces, identical
      outcomes and no divergence; the error says what differed first. *)
end

(** {1 DPOR exploration} *)

module Dpor : sig
  type witness = {
    w_kind : string;
        (** ["deadlock"], ["check:<rule>"] or ["assert:<msg>"] *)
    w_outcome : string;
    w_schedule : Schedule.t;  (** minimized, complete, replayable *)
    w_runs_to_find : int;  (** runs executed when the bug first showed *)
    w_forced : int;
        (** length of the forced decision prefix after minimization
            (decisions beyond it are the default fallback's) *)
  }

  type stats = {
    s_runs : int;  (** schedules executed (excluding minimization probes) *)
    s_probes : int;  (** extra runs spent minimizing the witness *)
    s_schedules : int;  (** distinct complete schedules *)
    s_skeletons : int;
        (** distinct causal skeletons among them: equal
            {!Pcont_obs.Analysis.Diff.project}ions, resource orders
            included — one per Mazurkiewicz class *)
    s_races : int;  (** backtrack points seeded *)
    s_witness : witness option;
  }

  val explore :
    ?max_runs:int ->
    ?deadlock_is_bug:bool ->
    ?fault_menu:Fault.kind list ->
    ?max_fault_slices:int ->
    ?check:(Trace.stamped array -> string -> string option) ->
    target ->
    stats
  (** Explore interleavings of the target, starting from the default
      driven schedule and backtracking on races, until a bug is found,
      the frontier is exhausted, or [max_runs] (default 200) schedules
      have run.  A bug is a {!Pcont_obs.Analysis.Check} violation, a
      deadlock (unless [deadlock_is_bug] is [false]), or [check trace
      outcome] returning [Some msg].  The first bug is minimized by
      bisecting the forced-prefix length (extra runs are counted in
      [s_probes], and the minimized schedule is re-verified; the faults,
      being part of the schedule, are kept).

      With a non-empty [fault_menu], fault placements are explored too:
      after the fault-free root run, one single-fault schedule is queued
      per (menu kind, slice index) pair over the root run's slices
      (capped at [max_fault_slices], default 200), and each placement
      then grows its own backtrack tree — schedule races and fault
      timing compose.  The witness schedule carries its faults, so
      [ptrace replay] reproduces the faulty run byte for byte. *)

  type sweep = {
    sw_seeds : int;
    sw_skeletons : int;  (** distinct skeletons across the sweep *)
    sw_found : (int * string) option;
        (** (1-based index of the first seed that hit a bug, kind) *)
  }

  val seed_sweep :
    ?seeds:int ->
    ?deadlock_is_bug:bool ->
    ?fault_menu:Fault.kind list ->
    ?check:(Trace.stamped array -> string -> string option) ->
    target ->
    sweep
  (** The baseline the exploration displaces: run [seeds] (default 100)
      [Randomized] schedules with seeds 1..n and look for the same bugs.
      With a non-empty [fault_menu], each seed additionally runs once
      with a single seed-derived fault placement (kind and slice index
      hashed from the seed over the clean run's slice count) — the
      randomized analogue of [explore]'s systematic placement
      enumeration.  Used by bench e13 for the redundancy comparison and
      by the tests to show exploration finds what the sweep misses. *)
end

(** {1 Built-in workloads} *)

module Workloads : sig
  val gen_native : target
  (** The [ptrace gen --scheduler native] workload (a future plus a
      4-way pcall touching it). *)

  val gen_pstack : target
  (** The mirrored Scheme workload ([ptrace gen --scheduler pstack]). *)

  val racing : int -> target
  (** [racing n]: n producers and n consumers racing on one capacity-1
      channel — many send/recv races, no bug; the e13 exploration
      benchmark. *)

  val lost_wakeup : target
  (** An injected lost-wakeup: the waiter re-checks its condition, then
      yields {e before} parking, so a signal delivered entirely inside
      that window is lost and the run deadlocks.  Round-based policies
      (including every [Randomized] seed) step each runnable fiber once
      per round and can never fit the signaler's two slices inside the
      window; only a driven schedule can. *)

  val stolen_relay : target
  (** An injected deadlock: worker 1 relays the token it expects; worker
      2 consumes a token without relaying, but only reaches its receive
      on its third slice.  Under any round-based schedule the token is
      consumed (and relayed) by worker 1 first, so the bug needs a
      driven schedule that delays worker 1 until worker 2's receive is
      pending. *)

  val timeout_race : target
  (** Two [Resil.with_timeout] scopes on the native timer wheel, one on
      each side of its deadline: pins the sleep/clock-jump/Timeout/Cancel
      trace under record/replay. *)

  val timer_pstack : target
  (** The pstack mirror: a timer branch [sleep]s, then cancels the slow
      branch by capturing it with [control] and declining to reinstate —
      the paper's timeout idiom, on the interpreter's virtual clock. *)

  val sup_relay : target
  (** A one-for-one supervisor over a single-fiber channel relay.  Built
      to be crashed: an injected crash at any of the child's suspension
      points surfaces as a scope failure, the supervisor restarts it,
      and the run still ends in a value (the CI fault-injection smoke
      workload). *)

  val sup_leak : target
  (** A supervised worker with a planted leak: it parks a helper in an
      independent [future] tree and only signals it after one more
      yield.  A crash injected inside that window is contained by the
      scope, but the abort cannot reach the helper's tree — the helper
      stays parked forever under a cancelled ancestor, tripping the
      [no-orphan-waiters] invariant.  Padding fibers dilute the window
      so a 100-seed randomized sweep (even with random fault
      placements) misses it; [Dpor.explore] with [fault_menu = [Crash]]
      enumerates placements and finds it deterministically. *)

  val find : string -> target option
  (** Look up by name ([gen], [gen-pstack], [racing], [lost-wakeup],
      [stolen-relay], [timeout-race], [timer-pstack], [sup-relay],
      [sup-leak]). *)

  val names : string list
end
