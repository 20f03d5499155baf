(** Deterministic open-loop load generation over the process-tree
    scheduler.

    The repo's workloads were all microbenchmarks; this module points
    the telemetry at server-shaped traffic.  A load run schedules
    request arrivals on the {e virtual clock} from a seeded PRNG —
    Poisson inter-arrivals modulated by on/off bursts — and measures
    every request from its {e scheduled} arrival time, not from
    admission.  That is the open-loop discipline: when the system falls
    behind, the lag lands in the measured queue-wait instead of
    silently slowing the arrival process down, so coordinated omission
    is impossible by construction.

    Each request runs one of four scenarios (the wasmfx Explainer's
    example catalogue as patterns over process continuations): a
    worker {e pool} fed through a shared channel, an {e actor
    mailbox ring}, an async/await fan-out {e pipeline} of futures, and
    a {e generator-backed stream} consumed to exhaustion.  Service
    demand is bounded-Pareto (heavy-tailed, clamped), deadlines are
    absolute virtual times enforced by
    {!Pcont_resil.Resil.with_deadline}, and every request is a causal
    {!Pcont_obs.Obs.Span} named after its scenario, with a
    [<scenario>/service] child span and zero-length
    [<scenario>/timedout] / [/cancelled] / [/crashed] markers — the
    conventions [Analysis.Slo] folds back out of a trace.

    Latency decomposes through four chained virtual timestamps
    [arrival <= t1 <= t2 <= t3 <= t4]:
    queue-wait [t1 - arrival] (admission lag + time to pickup),
    service [t2 - t1] (handler work, fan-out max),
    wake-to-run [t3 - t2] (reply delivered until the client actually
    ran again — per-request scheduler latency), and
    fan-in-join [t4 - t3] (joining and scope teardown).  The stamps
    are clamped monotone, so the four components sum {e exactly} to
    the end-to-end latency [t4 - arrival].

    Everything — arrivals, service times, scheduling — is a pure
    function of [(profile, seed, scenario)]: traces are byte-identical
    per seed and pass every [Analysis.Check] rule. *)

type profile = {
  requests : int;  (** arrivals to schedule *)
  mean_iat : float;  (** mean inter-arrival gap, virtual ticks *)
  burst_on : int;  (** arrivals per burst before an off-phase gap *)
  burst_off : float;  (** mean off-phase gap, virtual ticks (0 = no bursts) *)
  service_lo : int;  (** bounded-Pareto service floor, ticks *)
  service_cap : int;  (** bounded-Pareto clamp, ticks *)
  deadline : int;  (** per-request budget from scheduled arrival; 0 = none *)
  workers : int;  (** pool workers / ring actors *)
  hops : int;  (** ring forwarding hops per request *)
  fanout : int;  (** pipeline branches per request *)
  items : int;  (** stream items per request *)
}

val default : profile
(** The [quick] profile (CI-sized). *)

val quick : profile
(** ~10^4 peak concurrent fibers per scenario. *)

val full : profile
(** ~10^5 peak concurrent fibers per scenario ([pload --full]). *)

val arrivals : profile -> seed:int64 -> int array
(** The scheduled arrival ticks [T_0 <= T_1 <= ...], a pure function
    of [(profile, seed)] — independent of scenario choice and handler
    execution order.  Exponential inter-arrival gaps with mean
    [mean_iat]; after every [burst_on] arrivals an extra exponential
    gap with mean [burst_off] opens (the off-phase of the on/off
    modulation). *)

type scenario = Pool | Ring | Pipeline | Stream

val scenarios : scenario list
(** All four, in fixed order. *)

val scenario_name : scenario -> string
(** ["pool"], ["ring"], ["pipeline"], ["stream"] — also the request
    span names. *)

val scenario_of_name : string -> scenario option

type stats = {
  st_scenario : string;
  st_requests : int;
  st_completed : int;
  st_timedout : int;  (** deadline fired (cancel reason named a timeout) *)
  st_cancelled : int;  (** cancelled for any other reason *)
  st_crashed : int;
  st_peak_live : int;  (** peak concurrent process-tree nodes *)
  st_duration : int;  (** virtual clock at run end *)
  st_goodput : float;  (** completed requests per 1000 virtual ticks *)
  st_fairness : float;
      (** Jain's index over completed requests' end-to-end latencies:
          1 = every request saw the same latency *)
  st_latency : Pcont_obs.Obs.Metrics.Sketch.t;  (** completed, end-to-end *)
  st_queue : Pcont_obs.Obs.Metrics.Sketch.t;
  st_service : Pcont_obs.Obs.Metrics.Sketch.t;
  st_wake : Pcont_obs.Obs.Metrics.Sketch.t;
  st_join : Pcont_obs.Obs.Metrics.Sketch.t;
  st_tlat : Pcont_obs.Obs.Metrics.Sketch.t;
      (** timed-out requests: arrival to observed cancellation *)
  st_attr_residual : int;
      (** max |queue + service + wake + join - latency| over completed
          requests — 0 by construction (the stamps are clamped into a
          telescoping chain) *)
}

val run :
  ?obs:Pcont_obs.Obs.t ->
  ?policy:Pcont_sched.Sched.policy ->
  profile ->
  seed:int64 ->
  scenario ->
  stats
(** Run one scenario to completion (every request finished, timed out
    or crashed; handlers drained).  [?obs] goes to
    {!Pcont_sched.Sched.run} as given: the run's events flow to its
    sinks, and nothing is attached to it.  Peak fibers are the
    scheduler's own count ({!Pcont_sched.Sched.peak}), so the [stats]
    are the same with or without a handle.  The latency distributions
    live only in the returned [stats].  Default policy: [Round_robin]. *)

val stats_to_json : stats -> Pcont_obs.Obs.Json.t
(** Deterministic field order; quantiles rendered at p50/p99/p999. *)

val pp_stats : Format.formatter -> stats -> unit
(** One table row set per scenario: counts, fates, and the latency
    decomposition p50/p99/p999. *)
