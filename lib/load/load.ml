(* Deterministic open-loop load generation.  See load.mli for the
   methodology; the short version: arrival times are a pure function of
   (profile, seed), requests are measured from their *scheduled*
   arrival, and the four latency components are clamped into a
   telescoping chain so they sum exactly to the end-to-end latency. *)

module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Obs = Pcont_obs.Obs
module Resil = Pcont_resil.Resil
module Xorshift = Pcont_util.Xorshift
module E = Obs.Event
module Sketch = Obs.Metrics.Sketch

type profile = {
  requests : int;
  mean_iat : float;
  burst_on : int;
  burst_off : float;
  service_lo : int;
  service_cap : int;
  deadline : int;
  workers : int;
  hops : int;
  fanout : int;
  items : int;
}

let quick =
  {
    requests = 3_000;
    mean_iat = 2.0;
    burst_on = 64;
    burst_off = 256.0;
    service_lo = 20;
    service_cap = 2_000;
    deadline = 60_000;
    workers = 32;
    hops = 4;
    fanout = 3;
    items = 4;
  }

let full =
  {
    quick with
    requests = 24_000;
    burst_on = 256;
    burst_off = 1_024.0;
    service_lo = 50;
    service_cap = 5_000;
    deadline = 500_000;
    workers = 128;
  }

let default = quick

(* ------------------------------------------------------------------ *)
(* PRNG streams.                                                       *)
(* ------------------------------------------------------------------ *)

(* Uniform in (0, 1], 53 bits — the inverse-transform input for the
   exponential and bounded-Pareto draws (never 0, so log/div are safe). *)
let uniform g =
  (Int64.to_float (Int64.shift_right_logical (Xorshift.next g) 11) +. 1.)
  /. 9007199254740992.

let exponential g mean = -.mean *. log (uniform g)

(* Per-request generator, independent of every other request and of
   execution order: a splitmix stream keyed by (seed, index). *)
let req_rng seed i =
  Xorshift.create
    (Int64.logxor seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (i + 81))))

let service_draw p seed i =
  let u = uniform (req_rng seed i) in
  let s = int_of_float (float_of_int p.service_lo /. u) in
  max p.service_lo (min p.service_cap s)

let arrivals p ~seed =
  let g = Xorshift.create seed in
  let t = ref 0.0 in
  Array.init p.requests (fun i ->
      if i > 0 && p.burst_off > 0. && p.burst_on > 0 && i mod p.burst_on = 0
      then t := !t +. exponential g p.burst_off;
      t := !t +. exponential g p.mean_iat;
      int_of_float !t)

(* ------------------------------------------------------------------ *)
(* Scenarios.                                                          *)
(* ------------------------------------------------------------------ *)

type scenario = Pool | Ring | Pipeline | Stream

let scenarios = [ Pool; Ring; Pipeline; Stream ]

let scenario_name = function
  | Pool -> "pool"
  | Ring -> "ring"
  | Pipeline -> "pipeline"
  | Stream -> "stream"

let scenario_of_name = function
  | "pool" -> Some Pool
  | "ring" -> Some Ring
  | "pipeline" -> Some Pipeline
  | "stream" -> Some Stream
  | _ -> None

(* One in-flight request.  The stamps t1..t3 chain between arrival and
   completion; they start at the arrival tick so an unset stamp clamps
   away instead of poisoning the decomposition. *)
type req = {
  idx : int;
  t_arr : int;
  service : int;
  mutable t1 : int;  (* pickup: a handler first touched the request *)
  mutable t2 : int;  (* service done: the last unit of work finished *)
  mutable t3 : int;  (* client resumed after the reply/join *)
  mutable dead : bool;  (* deadline fired; laggard handlers shed the work *)
}

(* [setup] returns the per-request handler plus a teardown that closes
   the scenario's channels; long-lived or orphanable futures land in
   [leftovers] so the main fiber can drain them before the run ends
   (keeping end-of-trace state clean for the no-orphan-waiters rule). *)
let setup_pool p name leftovers =
  let jobs = Channel.create ~capacity:(max 16 p.requests) () in
  let svc = name ^ "/service" in
  let worker () =
    let rec loop () =
      match Channel.recv_opt jobs with
      | None -> ()
      | Some (req, reply) ->
          req.t1 <- Sched.now ();
          if not req.dead then
            Sched.Span.with_ svc (fun () -> Sched.sleep req.service);
          req.t2 <- Sched.now ();
          (try Channel.send reply () with Channel.Closed -> ());
          loop ()
    in
    loop ()
  in
  for _ = 1 to p.workers do
    leftovers := Sched.future worker :: !leftovers
  done;
  let handle req =
    let reply = Channel.create ~capacity:1 () in
    Channel.send jobs (req, reply);
    (match Channel.recv_opt reply with Some () | None -> ());
    req.t3 <- Sched.now ()
  in
  (handle, fun () -> Channel.close jobs)

let setup_ring p name leftovers =
  let k = max 1 p.workers in
  let mbs =
    Array.init k (fun _ -> Channel.create ~capacity:(max 16 p.requests) ())
  in
  let svc = name ^ "/service" in
  let actor i () =
    let rec loop () =
      match Channel.recv_opt mbs.(i) with
      | None -> ()
      | Some (req, hops, reply) ->
          if hops = p.hops then req.t1 <- Sched.now ();
          (if hops = 0 then begin
             if not req.dead then
               Sched.Span.with_ svc (fun () -> Sched.sleep req.service);
             req.t2 <- Sched.now ();
             try Channel.send reply () with Channel.Closed -> ()
           end
           else
             try Channel.send mbs.((i + 1) mod k) (req, hops - 1, reply)
             with Channel.Closed -> ());
          loop ()
    in
    loop ()
  in
  for i = 0 to k - 1 do
    leftovers := Sched.future (actor i) :: !leftovers
  done;
  let handle req =
    let reply = Channel.create ~capacity:1 () in
    Channel.send mbs.(req.idx mod k) (req, p.hops, reply);
    (match Channel.recv_opt reply with Some () | None -> ());
    req.t3 <- Sched.now ()
  in
  (handle, fun () -> Array.iter Channel.close mbs)

let setup_pipeline p name leftovers =
  let svc = name ^ "/service" in
  let f = max 1 p.fanout in
  let handle req =
    req.t1 <- Sched.now ();
    let futs =
      List.init f (fun j ->
          Sched.future (fun () ->
              (if not req.dead then
                 Sched.Span.with_ svc (fun () ->
                     Sched.sleep (max 1 ((req.service + j) / f))));
              req.t2 <- max req.t2 (Sched.now ())))
    in
    List.iter (fun fu -> leftovers := fu :: !leftovers) futs;
    List.iter Sched.touch futs;
    req.t3 <- Sched.now ()
  in
  (handle, fun () -> ())

let setup_stream p name leftovers =
  let svc = name ^ "/service" in
  let b = max 1 p.items in
  let handle req =
    (* capacity = items: the producer never parks on send, so it always
       terminates even when its consumer was cancelled mid-stream *)
    let ch = Channel.create ~capacity:b () in
    let chunk = max 1 (req.service / b) in
    let prod =
      Sched.future (fun () ->
          try
            Sched.Span.with_ svc (fun () ->
                for _ = 1 to b do
                  if not req.dead then Sched.sleep chunk;
                  Channel.send ch ()
                done;
                req.t2 <- Sched.now ());
            Channel.close ch
          with Channel.Closed -> ())
    in
    leftovers := prod :: !leftovers;
    let first = ref true in
    let rec consume () =
      match Channel.recv_opt ch with
      | Some () ->
          if !first then begin
            first := false;
            req.t1 <- Sched.now ()
          end;
          consume ()
      | None -> ()
    in
    consume ();
    req.t3 <- Sched.now ()
  in
  (handle, fun () -> ())

let setup p name leftovers = function
  | Pool -> setup_pool p name leftovers
  | Ring -> setup_ring p name leftovers
  | Pipeline -> setup_pipeline p name leftovers
  | Stream -> setup_stream p name leftovers

(* ------------------------------------------------------------------ *)
(* Measurement.                                                        *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_scenario : string;
  st_requests : int;
  st_completed : int;
  st_timedout : int;
  st_cancelled : int;
  st_crashed : int;
  st_peak_live : int;
  st_duration : int;
  st_goodput : float;
  st_fairness : float;
  st_latency : Sketch.t;
  st_queue : Sketch.t;
  st_service : Sketch.t;
  st_wake : Sketch.t;
  st_join : Sketch.t;
  st_tlat : Sketch.t;
  st_attr_residual : int;
}

type acc = {
  mutable a_completed : int;
  mutable a_timedout : int;
  mutable a_cancelled : int;
  mutable a_crashed : int;
  a_lat : Sketch.t;
  a_q : Sketch.t;
  a_sv : Sketch.t;
  a_wk : Sketch.t;
  a_jn : Sketch.t;
  a_tl : Sketch.t;
  mutable a_jain_s : float;
  mutable a_jain_s2 : float;
  mutable a_resid : int;
  se_lat : Obs.Metrics.series;
  se_q : Obs.Metrics.series;
  se_sv : Obs.Metrics.series;
  se_wk : Obs.Metrics.series;
  se_jn : Obs.Metrics.series;
}

let contains_timeout r =
  let n = String.length r in
  let rec go i = i + 7 <= n && (String.sub r i 7 = "timeout" || go (i + 1)) in
  go 0

let record acc req t4 =
  let t1 = max req.t1 req.t_arr in
  let t2 = max req.t2 t1 in
  let t3 = max req.t3 t2 in
  let t4 = max t4 t3 in
  let q = t1 - req.t_arr
  and sv = t2 - t1
  and wk = t3 - t2
  and jn = t4 - t3 in
  let l = t4 - req.t_arr in
  acc.a_completed <- acc.a_completed + 1;
  Sketch.observe acc.a_lat l;
  Sketch.observe acc.a_q q;
  Sketch.observe acc.a_sv sv;
  Sketch.observe acc.a_wk wk;
  Sketch.observe acc.a_jn jn;
  Obs.Metrics.observe_series acc.se_lat l;
  Obs.Metrics.observe_series acc.se_q q;
  Obs.Metrics.observe_series acc.se_sv sv;
  Obs.Metrics.observe_series acc.se_wk wk;
  Obs.Metrics.observe_series acc.se_jn jn;
  let fl = float_of_int l in
  acc.a_jain_s <- acc.a_jain_s +. fl;
  acc.a_jain_s2 <- acc.a_jain_s2 +. (fl *. fl);
  let r = abs (q + sv + wk + jn - l) in
  if r > acc.a_resid then acc.a_resid <- r

let marker name suffix = Sched.Span.with_ (name ^ suffix) (fun () -> ())

let finish acc name req outcome t4 =
  match outcome with
  | Ok () -> record acc req t4
  | Error (Resil.Cancelled r) ->
      req.dead <- true;
      if contains_timeout r then begin
        acc.a_timedout <- acc.a_timedout + 1;
        Sketch.observe acc.a_tl (t4 - req.t_arr);
        marker name "/timedout"
      end
      else begin
        acc.a_cancelled <- acc.a_cancelled + 1;
        marker name "/cancelled"
      end
  | Error (Resil.Crashed _) ->
      acc.a_crashed <- acc.a_crashed + 1;
      marker name "/crashed"

let run ?obs ?(policy = Sched.Round_robin) p ~seed scen =
  let o = match obs with Some o -> o | None -> Obs.create () in
  (* Live process-tree node census: every spawn (individually or
     batched) adds a node, exits and cancel sweeps remove them.  The
     peak is the "concurrent fibers" figure the scenarios are sized
     by. *)
  let live = ref 0 and peak = ref 0 in
  Obs.attach o
    {
      Obs.sink_event =
        (fun ~seq:_ ~ts:_ ev ->
          (match ev with
          | E.Spawn _ -> incr live
          | E.Spawn_batch { nodes; _ } -> live := !live + Array.length nodes
          | E.Exit _ -> decr live
          | E.Cancel { pids; _ } -> live := !live - Array.length pids
          | _ -> ());
          if !live > !peak then peak := !live);
      Obs.sink_close = (fun () -> ());
    };
  let name = scenario_name scen in
  let m = Obs.metrics o in
  let series suffix = Obs.Metrics.series m ("load." ^ name ^ suffix) in
  let acc =
    {
      a_completed = 0;
      a_timedout = 0;
      a_cancelled = 0;
      a_crashed = 0;
      a_lat = Sketch.create ();
      a_q = Sketch.create ();
      a_sv = Sketch.create ();
      a_wk = Sketch.create ();
      a_jn = Sketch.create ();
      a_tl = Sketch.create ();
      a_jain_s = 0.;
      a_jain_s2 = 0.;
      a_resid = 0;
      se_lat = series ".latency";
      se_q = series ".queue";
      se_sv = series ".service";
      se_wk = series ".wake";
      se_jn = series ".join";
    }
  in
  let arr = arrivals p ~seed in
  let n = Array.length arr in
  let duration = ref 0 in
  Sched.run ~policy ~obs:o (fun () ->
      let leftovers : unit Sched.future list ref = ref [] in
      let handle, teardown = setup p name leftovers scen in
      (* Every client exists up front — one pcall creates all of them
         in a single suspension — and sleeps on the virtual clock until
         its own scheduled arrival: admission comes from the timer
         wheel in batches, never serialized through a generator fiber,
         so the arrival process cannot be slowed down by the system
         under test (the open-loop property).  A client that starts
         late anyway — run-queue backlog after its timer fired — is
         still measured from its scheduled tick; the lag is
         queue-wait.  The pcall doubles as the join: it returns when
         every request has completed, timed out or crashed. *)
      let client i t () =
        let req =
          {
            idx = i;
            t_arr = t;
            service = service_draw p seed i;
            t1 = t;
            t2 = t;
            t3 = t;
            dead = false;
          }
        in
        let d = t - Sched.now () in
        if d > 0 then Sched.sleep d;
        Sched.Span.with_ name (fun () ->
            let outcome =
              if p.deadline > 0 then
                Resil.with_deadline ~at:(t + p.deadline) (fun () -> handle req)
              else
                match handle req with
                | () -> Ok ()
                | exception e -> Error (Resil.Crashed (Printexc.to_string e))
            in
            finish acc name req outcome (Sched.now ()))
      in
      let thunks = Array.to_list (Array.mapi client arr) in
      if thunks <> [] then ignore (Sched.pcall thunks);
      teardown ();
      List.iter Sched.touch !leftovers;
      duration := Sched.now ());
  let jain =
    let c = float_of_int acc.a_completed in
    if acc.a_completed = 0 || acc.a_jain_s2 <= 0. then 1.
    else acc.a_jain_s *. acc.a_jain_s /. (c *. acc.a_jain_s2)
  in
  {
    st_scenario = name;
    st_requests = n;
    st_completed = acc.a_completed;
    st_timedout = acc.a_timedout;
    st_cancelled = acc.a_cancelled;
    st_crashed = acc.a_crashed;
    st_peak_live = !peak;
    st_duration = !duration;
    st_goodput =
      (if !duration > 0 then
         float_of_int acc.a_completed *. 1000. /. float_of_int !duration
       else 0.);
    st_fairness = jain;
    st_latency = acc.a_lat;
    st_queue = acc.a_q;
    st_service = acc.a_sv;
    st_wake = acc.a_wk;
    st_join = acc.a_jn;
    st_tlat = acc.a_tl;
    st_attr_residual = acc.a_resid;
  }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let sketch_json s =
  Obs.Json.Obj
    [
      ("count", Obs.Json.Num (float_of_int (Sketch.count s)));
      ("p50", Obs.Json.Num (Sketch.quantile s 0.5));
      ("p99", Obs.Json.Num (Sketch.quantile s 0.99));
      ("p999", Obs.Json.Num (Sketch.quantile s 0.999));
      ("mean", Obs.Json.Num (Sketch.mean s));
      ("max", Obs.Json.Num (float_of_int (Sketch.max s)));
    ]

let stats_to_json st =
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str st.st_scenario);
      ("requests", Obs.Json.Num (float_of_int st.st_requests));
      ("completed", Obs.Json.Num (float_of_int st.st_completed));
      ("timedout", Obs.Json.Num (float_of_int st.st_timedout));
      ("cancelled", Obs.Json.Num (float_of_int st.st_cancelled));
      ("crashed", Obs.Json.Num (float_of_int st.st_crashed));
      ("peak_fibers", Obs.Json.Num (float_of_int st.st_peak_live));
      ("duration", Obs.Json.Num (float_of_int st.st_duration));
      ("goodput_per_ktick", Obs.Json.Num st.st_goodput);
      ("fairness", Obs.Json.Num st.st_fairness);
      ("attr_residual", Obs.Json.Num (float_of_int st.st_attr_residual));
      ("latency", sketch_json st.st_latency);
      ("queue", sketch_json st.st_queue);
      ("service", sketch_json st.st_service);
      ("wake", sketch_json st.st_wake);
      ("join", sketch_json st.st_join);
      ("timedout_latency", sketch_json st.st_tlat);
    ]

let pp_stats ppf st =
  let q s p = Sketch.quantile s p in
  Format.fprintf ppf "@[<v>%-9s %d requests: %d ok, %d timed-out" st.st_scenario
    st.st_requests st.st_completed st.st_timedout;
  if st.st_cancelled > 0 then Format.fprintf ppf ", %d cancelled" st.st_cancelled;
  if st.st_crashed > 0 then Format.fprintf ppf ", %d crashed" st.st_crashed;
  Format.fprintf ppf "@,  peak %d fibers, %d vticks, %.2f req/ktick, fairness %.3f"
    st.st_peak_live st.st_duration st.st_goodput st.st_fairness;
  Format.fprintf ppf "@,  %-8s %10s %10s %10s %10s" "phase" "p50" "p99" "p999"
    "mean";
  List.iter
    (fun (label, s) ->
      Format.fprintf ppf "@,  %-8s %10.0f %10.0f %10.0f %10.1f" label (q s 0.5)
        (q s 0.99) (q s 0.999) (Sketch.mean s))
    [
      ("e2e", st.st_latency);
      ("queue", st.st_queue);
      ("service", st.st_service);
      ("wake", st.st_wake);
      ("join", st.st_join);
    ];
  Format.fprintf ppf "@]"
