(* The layer ladder: one rung per public operation, each run a fixed
   number of times, giving host ns/op and minor words/op.  Every rung
   also runs once under the counting sink, so the cost model can take
   out of a rung the cheaper operations it performs besides its own. *)

module Obs = Pcont_obs.Obs
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Resil = Pcont_resil.Resil
module Load = Pcont_load.Load
module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack

type rung = {
  name : string;  (** metric prefix *)
  iters : int;  (** iterations per timed rep *)
  per_step : bool;  (** an op is one machine step, not one iteration *)
  run : Traced.t option -> int -> unit;
      (** perform [n] ops; under [Some tr] the counting pass, which may
          attach [tr]'s sink or count machine steps into it *)
}

type result = {
  rung : string;
  ns : float;  (** host ns per op, median over the timed reps *)
  words : float;  (** minor-heap words per op *)
  per_op : Traced.t;  (** the counting pass *)
  n : int;
}

let sched tr f = ignore (Sched.run ?obs:(Option.map Traced.handle tr) f)

let repeat n f =
  for _ = 1 to n do
    f ()
  done

(* A ping-pong between two fibers over [block]/[wake]: each side parks
   and is woken once per round. *)
let park_wake tr n =
  let a = Sched.Waitset.create "a" and b = Sched.Waitset.create "b" in
  let turn = ref 0 in
  let side me mine other () =
    repeat (n / 2) (fun () ->
        while !turn <> me do
          Sched.block mine
        done;
        turn := 1 - me;
        Sched.wake other)
  in
  sched tr (fun () -> ignore (Sched.pcall2 (side 0 a b) (side 1 b a)))

(* Two fibers handing values back and forth through one-slot channels:
   the receiver is parked at every send. *)
let handoff tr n =
  let c1 = Channel.create ~capacity:1 () and c2 = Channel.create ~capacity:1 () in
  sched tr (fun () ->
      ignore
        (Sched.pcall2
           (fun () ->
             repeat (n / 2) (fun () ->
                 Channel.send c1 ();
                 Channel.recv c2))
           (fun () ->
             repeat (n / 2) (fun () ->
                 Channel.recv c1;
                 Channel.send c2 ()))))

let scheme_defs =
  {|
(define (repeat n thunk)
  (if (zero? n) 0 (begin (thunk) (repeat (- n 1) thunk))))
|}

(* Pstack rungs are timed through the sequential driver's public entry
   and counted with the benchmark's own step loop. *)
let scheme_rung ?(mode = Interp.Sequential) it src tr n =
  let src = src n in
  match (tr, mode) with
  | None, _ ->
      ignore (Interp.eval_value ~mode ~quantum:256 ~fuel:Workloads.fuel it src)
  | Some tr, Interp.Concurrent _ ->
      ignore
        (Interp.eval_value ~mode ~quantum:256 ~fuel:Workloads.fuel
           ~obs:(Traced.handle tr) it src)
  | Some tr, Interp.Sequential -> ignore (Workloads.eval_steps tr it src)

let rung ?(per_step = false) name iters run = { name; iters; per_step; run }

let rungs () =
  let it = Interp.create () in
  Workloads.load_defs it scheme_defs;
  let capture body n =
    Printf.sprintf "(spawn (lambda (c) (repeat %d (lambda () (c (lambda (k) %s))))))" n body
  in
  let in_sched f tr n = sched tr (fun () -> repeat n f) in
  [
    rung "load.arrival" 200_000 (fun _ n ->
        ignore (Load.arrivals { Load.full with requests = n } ~seed:1L));
    rung "sched.yield" 200_000 (in_sched Sched.yield);
    rung "sched.pcall2" 50_000 (in_sched (fun () -> ignore (Sched.pcall2 ignore ignore)));
    rung "sched.future_touch" 50_000 (in_sched (fun () -> Sched.touch (Sched.future ignore)));
    rung "sched.park_wake" 100_000 park_wake;
    rung "sched.sleep" 100_000 (in_sched (fun () -> Sched.sleep 1));
    rung "channel.buffered" 200_000 (fun tr n ->
        let c = Channel.create ~capacity:1 () in
        in_sched
          (fun () ->
            Channel.send c ();
            Channel.recv c)
          tr n);
    rung "channel.handoff" 100_000 handoff;
    rung "resil.deadline_scope" 20_000
      (in_sched (fun () -> ignore (Resil.with_deadline ~at:(Sched.now () + 1_000_000) ignore)));
    rung "obs.emit" 1_000_000 (fun _ n ->
        let o = Obs.create () and count = ref 0 in
        Obs.attach o { Obs.sink_event = (fun ~seq:_ ~ts:_ _ -> incr count); sink_close = ignore };
        let ev = Obs.Event.Send { pid = 0; chan = 1 } in
        repeat n (fun () -> Obs.emit o ev));
    rung "obs.span" 40_000 (fun tr n ->
        (* always under a handle: with none, [Span.with_] only calls
           its thunk *)
        let tr = match tr with Some tr -> tr | None -> Traced.create () in
        in_sched (fun () -> Sched.Span.with_ "rung" ignore) (Some tr) n);
    rung ~per_step:true "pstack.step" 20_000
      (scheme_rung it (Printf.sprintf "(let loop ([i 0]) (if (= i %d) i (loop (+ i 1))))"));
    rung "pstack.capture_oneshot" 20_000 (scheme_rung it (capture "(k 0)"));
    rung "pstack.capture_multishot" 20_000 (scheme_rung it (capture "(k (+ 0 0))"));
    rung "concur.fork_join" 10_000
      (scheme_rung ~mode:(Interp.Concurrent Pstack.Concur.Round_robin) it
         (Printf.sprintf "(repeat %d (lambda () (pcall + 1 2)))"));
    rung "syntax.prelude" 50 (fun _ n -> repeat n (fun () -> ignore (Interp.create ())));
  ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [scale] divides every iteration count (the tier-1 check runs the
   ladder small); [reps] timed reps follow the counting pass, which
   doubles as the warm-up. *)
let measure ?(scale = 1) ?(reps = 3) r =
  let n = max 2 (r.iters / scale) in
  let per_op = Traced.create () in
  r.run (Some per_op) n;
  let ops = if r.per_step then per_op.Traced.fuel else n in
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let (), dt = Traced.timed "rung" r.name ops (fun () -> r.run None n) in
        let w = Gc.minor_words () -. w0 in
        (float_of_int dt /. float_of_int ops, w /. float_of_int ops))
  in
  { rung = r.name; ns = median (List.map fst samples); words = median (List.map snd samples); per_op; n = ops }

let run ?scale ?reps () = List.map (measure ?scale ?reps) (rungs ())

(* ------------------------------------------------------------------ *)
(* The cost model.                                                     *)
(* ------------------------------------------------------------------ *)

(* Operations the model prices.  Each unit cost is solved from its rung
   in this order, net of the cheaper operations the rung's counting
   pass saw it perform. *)
type op = Slice | Spawn | Park | Timer_park | Send | Cancel | Event | Step | Oneshot | Multishot | Fork

let per r = float_of_int r.n

(* Per-op counts of a rung's counting pass, by priced operation. *)
let rung_counts r = function
  | Slice -> float_of_int (Traced.slices r.per_op) /. per r
  | Spawn -> float_of_int r.per_op.Traced.spawned /. per r
  | Park ->
      float_of_int (Traced.all_parks r.per_op - Traced.parks r.per_op "timer") /. per r
  | Timer_park -> float_of_int (Traced.parks r.per_op "timer") /. per r
  | Send -> float_of_int (Traced.kind r.per_op "send") /. per r
  | Cancel -> float_of_int (Traced.kind r.per_op "cancel") /. per r
  | Step -> float_of_int r.per_op.Traced.fuel /. per r
  | Event | Oneshot | Multishot | Fork -> 0.

let solve_order =
  [ (Slice, "sched.yield"); (Spawn, "sched.pcall2"); (Park, "sched.park_wake");
    (Timer_park, "sched.sleep"); (Send, "channel.buffered"); (Cancel, "resil.deadline_scope");
    (Event, "obs.emit"); (Step, "pstack.step"); (Oneshot, "pstack.capture_oneshot");
    (Multishot, "pstack.capture_multishot"); (Fork, "concur.fork_join") ]

(* Unit cost of each priced operation, ns.  A capture or fork rung does
   one of its op per iteration and is net of machine steps only: the
   pstack scheduler's slices and spawns are not the native ones. *)
let unit_costs results =
  let find name = List.find (fun r -> r.rung = name) results in
  List.fold_left
    (fun units (op, name) ->
      let r = find name in
      let priced, own =
        match op with
        | Step -> ([], rung_counts r Step)
        | Oneshot | Multishot | Fork -> ([ (Step, List.assoc Step units) ], 1.)
        | Event -> (units, 1.)
        | _ -> (units, rung_counts r op)
      in
      let others =
        List.fold_left (fun acc (o, u) -> acc +. (rung_counts r o *. u)) 0. priced
      in
      let u = if own > 0. then Float.max 0. ((r.ns -. others) /. own) else 0. in
      units @ [ (op, u) ])
    [] solve_order

(* The value reported for a rung: a Scheme loop drives the capture and
   fork rungs, so they report their cost beyond the steps they take. *)
let reported units r =
  match List.find_opt (fun (_, name) -> name = r.rung) solve_order with
  | Some (((Oneshot | Multishot | Fork) as op), _) -> List.assoc op units
  | _ -> r.ns

(** Model ns/op: [counts] are a workload's per-op counts of each priced
    operation. *)
let explained units counts = List.fold_left (fun acc (op, u) -> acc +. (counts op *. u)) 0. units
