open Effect
open Effect.Deep
module Core = Pcont_sched_core.Sched_core
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

exception Dead_controller

exception Expired_pk

exception Not_in_scheduler

exception Deadlock of string

exception Injected_crash
(* delivered at a fiber's suspension point by the [Crash] fault *)

type policy = Core.policy =
  | Round_robin
  | Randomized of int64
  | Driven_pids of (int array -> int)

(* Deterministic fault injection: [run ?inject] consults the hook with
   the global slice index before every slice.  Faults are scheduler
   decisions — same schedule + same fault plan = byte-identical trace —
   and each one emits an [E.Crash "inject:..."] marker so the plan can
   be re-extracted from the trace. *)
type fault =
  | Crash  (* raise [Injected_crash] at the target fiber's suspension point *)
  | Wake of string  (* spurious wake: wake everything parked on the resource *)
  | Drop of int  (* silently drop one buffered element from the channel *)

(* ------------------------------------------------------------------ *)
(* Fibers and typed result cells.                                      *)
(*                                                                     *)
(* Every fiber's body returns unit.  A value travels in a typed cell:  *)
(* the fiber fills it just before it returns, and the return resumes   *)
(* the waiting fiber, which reads it.  A continuation's type fixes     *)
(* what it is resumed with, so no projection can fail.                 *)
(* ------------------------------------------------------------------ *)

(* A suspended fiber waiting for an ['a]. *)
type 'a fiber = ('a, unit) continuation

(* A controller names its process's root: its label, unique within the
   run [c_run] that spawned it.  Its cell carries the value of whatever
   runs in the root's place — the process body, a controller body, a
   cancel replacement — to the fiber that waits on the root. *)
type 'r controller = { c_label : int; c_run : int; mutable c_result : 'r option }

(* A runnable leaf: a body not yet started, a process body to apply to
   its controller, a process body that forks the process's branches, a
   step before or after its first park, or a suspended fiber to
   continue with a value or to raise an exception into.  A step is no
   fiber: its function runs inside the node's slice and answers what
   the node does next. *)
type leaf =
  | Start : (unit -> unit) -> leaf
  | Spawned : 'r controller * ('r controller -> 'r) -> leaf
  | Forking : 'r controller * ('r controller -> leaf list) -> leaf
  | Step : ('a -> cause -> answer) * 'a -> leaf
  | Stepped : ('a -> cause -> answer) * 'a -> leaf
  | Resume : 'a fiber * 'a -> leaf
  | Raise : 'a fiber * exn -> leaf

and cause = Started | Woken | Crashed of exn

and answer = Park of (leaf, wx, unit) Core.waitset | Sleep of int | Fiber of (unit -> unit)

(* A wait node's suspended fiber and the cell it resumes from: a
   process root (a spawn, or a grafted continuation), a controller body
   or cancel replacement running in a root's place, or pcall branches
   combined by the join.  Forked branches wait under [Wbranches], which
   no fiber waits on: the process ends only by an abort of its root. *)
and wx =
  | Wroot : 'r controller * 'r fiber -> wx
  | Wbody : 'r controller * 'r fiber -> wx
  | Wfork : 'a fiber * (unit -> 'a) -> wx
  | Wbranches : wx

(* The live process tree: fibers at the leaves. *)
type node = (leaf, wx, unit) Core.node

type waitset = (leaf, wx, unit) Core.waitset

(* A process continuation: the captured subtree below the root, with
   the fiber that invoked the controller kept typed here as its hole. *)
type ('a, 'r) pk = {
  p_ctl : 'r controller;
  p_tree : (leaf, wx, unit, unit) Core.ptree;
  p_hole : 'a fiber;
  mutable p_taken : bool;
}

type _ request =
  | Rspawn : 'r controller * leaf -> 'r request
  | Rcontrol : 'r controller * (('a, 'r) pk -> 'r) -> 'a request
  | Rgraft : ('a, 'r) pk * 'a -> 'r request
  | Rpcall : (unit -> unit) list * (unit -> 'a) -> 'a request
  | Rfuture : (unit -> unit) * waitset -> unit request
      (* an INDEPENDENT process tree (Section 8's forest): its body
         fills the future's cell; control operations cannot cross into
         it *)
  | Ryield : unit request
  | Rsleep : int -> unit request
      (* park the fiber until the run's virtual clock reaches now+d; the
         timer heap wakes due sleepers in deadline order, and quiescence
         jumps the clock to the earliest pending deadline instead of
         declaring deadlock *)
  | Rabort : 'r controller * string * (unit -> unit) -> 'a request
      (* cancellation as declined reinstatement: capture the subtree
         delimited by the controller's root — releasing parked entries —
         and discard it (the invoking fiber included), running the
         replacement body in the root's place.  The string is the
         cancel reason recorded in the trace. *)
  | Rblock : waitset -> unit request
      (* park the fiber on the waitset until a matching Rwake (or the
         delivery of the owning future); parked fibers leave the run
         queue entirely, so rounds cost O(runnable), not O(blocked) *)
  | Rwake : waitset -> unit request  (* make every fiber parked on the waitset runnable *)

type _ Effect.t += Sched : 'a request -> 'a Effect.t

(* Read a root's cell, filled by the fiber whose return resumes the
   root's waiter, and empty it so it keeps nothing alive. *)
let take ctl =
  let v = Option.get ctl.c_result in
  ctl.c_result <- None;
  v

(* Runs started so far.  Labels restart in every run, so a controller
   from an enclosing run is told apart by its run's generation. *)
let runs = ref 0

(* ------------------------------------------------------------------ *)
(* The run context.                                                    *)
(*                                                                     *)
(* The scheduler is cooperative and single-threaded, so the state of   *)
(* the innermost running [run] can live behind one global that [run]   *)
(* saves and restores.  User-level code running inside a fiber         *)
(* (channels, user blocking abstractions) reads it for the handle, and *)
(* through the core for the clock and the stepping fiber's id and span *)
(* (its innermost open span, which channels carry across sends).       *)
(* ------------------------------------------------------------------ *)

type context = {
  x_core : (leaf, wx, unit) Core.t option;  (* None outside every run *)
  x_obs : Obs.t option;
  x_run : int;  (* the run's generation *)
  x_inject : bool;  (* the run injects faults *)
  (* Controller labels and channel (and other user-resource) ids:
     allocated per run so traces of identical runs are identical. *)
  mutable x_labels : int;
  mutable x_chans : int;
  (* Channel-drop fault hooks: channels register how to discard one
     buffered element (returning the waitset to wake, since dropping
     frees capacity).  Kept only while the run injects faults: a hook
     holds its channel until the run ends. *)
  mutable x_droppers : (int * (unit -> waitset option)) list;
}

let context ?core ?obs ~run ~inject () =
  {
    x_core = core;
    x_obs = obs;
    x_run = run;
    x_inject = inject;
    x_labels = 0;
    x_chans = 0;
    x_droppers = [];
  }

(* The innermost run's context; outside every run, one without a core. *)
let cur = ref (context ~run:0 ~inject:false ())

let obs () = !cur.x_obs

let self_pid () = match !cur.x_core with Some c -> (Core.stepping c).nid | None -> 0

let now () = match !cur.x_core with Some c -> Core.now c | None -> 0

let peak () = match !cur.x_core with Some c -> Core.peak c | None -> 0

let fresh_chan_id () =
  let x = !cur in
  x.x_chans <- x.x_chans + 1;
  x.x_chans

let register_dropper id f =
  let x = !cur in
  if x.x_inject then x.x_droppers <- (id, f) :: x.x_droppers

(* Control points (labels and forks) and node count of a captured
   subtree — the quantities the paper's complexity claim is stated in. *)
let ptree_control_points =
  Core.ptree_sum ~leaf:(fun _ -> 0) ~hole:(fun () -> 0) ~done_:0 ~wait:(function
    | Wroot _ -> 2
    | Wbody _ | Wfork _ | Wbranches -> 1)

let ptree_size = Core.ptree_sum ~leaf:(fun _ -> 1) ~hole:(fun () -> 1) ~done_:1 ~wait:(fun _ -> 1)

let start body = Start body

let run ?(policy = Round_robin) ?obs ?inject main =
  (* The main fiber's result cell. *)
  let result = ref None in
  (* An injected crash for the fiber about to step, this slice only:
     [run_leaf] raises it at the fiber's suspension point (catchable by
     its own try/with); a fiber that has never run yet crashes before
     its body — spawn-failure semantics. *)
  let pending_crash : exn option ref = ref None in
  (* A wait resumes its fiber from the cell its last child filled. *)
  let resume x (_ : unit array) =
    match x with
    | Wroot (ctl, k) -> Resume (k, take ctl)
    | Wbody (ctl, k) -> Resume (k, take ctl)
    | Wfork (k, join) -> Resume (k, join ())
    | Wbranches -> invalid_arg "Sched.spawn_branches: every branch returned"
  in
  (* The native scheduler does not meter fiber work: a slice runs the
     fiber to its next request and is charged one unit of virtual
     time. *)
  let c =
    Core.create ?obs ~prefix:"sched" ~nouns:("fibers", "fiber(s)") ~resume policy
      (Start (fun () -> result := Some (main ())))
  in
  incr runs;
  let ctx = context ~core:c ?obs ~run:!runs ~inject:(Option.is_some inject) () in
  let failure = ref None in
  (* Global slice index, the unit fault placements are expressed in. *)
  let nslices = ref 0 in

  (* The root of the controller [ctl] above [n], as the wait a body run
     in its place takes, or else a dead controller: raised inside the
     invoking fiber so user code can observe Dead_controller, mirroring
     the direct-style embedding. *)
  let root_of (n : node) k ctl =
    let found =
      Core.find_root c n ctl.c_label (function
        | Wroot (r, rk) when r.c_label = ctl.c_label && r.c_run = ctl.c_run ->
            Some (Wbody (r, rk))
        | _ -> None)
    in
    if Option.is_none found then n.body <- Nleaf (Raise (k, Dead_controller));
    found
  in

  (* Prune the subtree delimited by the controller's root above the
     invoking fiber and hand it, as a process continuation, to the
     controller's body, which runs in the root's former position. *)
  let do_capture n k ctl body =
    match root_of n k ctl with
    | None -> ()
    | Some (p, w, wbody) ->
        let tree = Core.capture c n () w.children.(0) in
        (match obs with
        | None -> ()
        | Some o ->
            let cp = ptree_control_points tree in
            let size = ptree_size tree in
            Obs.emit o
              (E.Capture
                 {
                   pid = n.nid;
                   label = ctl.c_label;
                   root_pid = p.nid;
                   control_points = cp;
                   size;
                 }));
        let pk = { p_ctl = ctl; p_tree = tree; p_hole = k; p_taken = false } in
        Core.fork c p wbody "controller" start [ (fun () -> ctl.c_result <- Some (body pk)) ]
  in

  (* Graft a captured subtree onto the invoking fiber: the fiber waits (as
     a reinstated root) for the subtree's result; the capture point inside
     receives [v]; every captured branch becomes runnable. *)
  let do_graft (n : node) k pk v =
    if pk.p_taken then n.body <- Nleaf (Raise (k, Expired_pk))
    else begin
      pk.p_taken <- true;
      (match obs with
      | None -> ()
      | Some o ->
          Obs.emit o
            (E.Reinstate
               { pid = n.nid; label = pk.p_ctl.c_label; size = ptree_size pk.p_tree }));
      Core.graft c n (Wroot (pk.p_ctl, k)) [| pk.p_tree |] [| None |] (fun () ->
          Resume (pk.p_hole, v))
    end
  in

  (* Apply one injected fault just before the slice it targets.  The
     marker event precedes the slice's begin event, so a schedule
     re-extracted from the trace re-injects at the same slice index. *)
  let apply_fault (n : node) fault =
    match fault with
    | Crash ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Crash { pid = n.nid; fault = "inject:crash" }));
        pending_crash := Some Injected_crash
    | Wake res ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Crash { pid = -1; fault = "inject:wake:" ^ res }));
        (* Parking is a re-check loop, so correct waiters re-park;
           anything that stays woken revealed a missing re-check. *)
        Core.wake_resource c res
    | Drop chan -> (
        (match obs with
        | None -> ()
        | Some o ->
            Obs.emit o
              (E.Crash { pid = -1; fault = "inject:drop:" ^ string_of_int chan }));
        match List.assoc_opt chan ctx.x_droppers with
        | None -> ()
        | Some drop -> Option.iter (Core.wake_all c) (drop ()))
  in

  (* Serve one request of the stepping fiber [n], suspended as [k]. *)
  let dispatch : type b. node -> b fiber -> b request -> unit =
   fun n k req ->
    match req with
    | Ryield -> n.body <- Nleaf (Resume (k, ()))
    | Rsleep d ->
        (* Timers are never woken collectively, only by expiry (or
           discarded by capture/cancel, like any park). *)
        Core.sleep c n (Resume (k, ())) d
    | Rabort (ctl, reason, replacement) -> (
        (* The invoking fiber is part of the discarded subtree: its
           continuation is dropped, and the replacement's value becomes
           the root's. *)
        match root_of n k ctl with
        | None -> ()
        | Some (p, _, wbody) ->
            Core.discard c n p ~reason;
            Core.fork c p wbody "cancel" start [ replacement ])
    | Rspawn (ctl, leaf) -> Core.fork c n (Wroot (ctl, k)) "process" Fun.id [ leaf ]
    | Rpcall (bodies, join) -> Core.fork c n (Wfork (k, join)) "branch" start bodies
    | Rblock ws -> Core.block c ws n (Resume (k, ()))
    | Rwake ws ->
        Core.wake_all c ws;
        n.body <- Nleaf (Resume (k, ()))
    | Rfuture (body, ws) ->
        Core.plant c n (Start body) (fun () -> Core.wake_all c ws);
        n.body <- Nleaf (Resume (k, ()))
    | Rcontrol (ctl, body) -> do_capture n k ctl body
    | Rgraft (pk, v) -> do_graft n k pk v
  in
  (* The stepping node's fiber's return delivers it, and its requests
     are served as the fiber suspends. *)
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> Core.deliver c (Core.stepping c) ());
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sched req -> Some (fun (k : b fiber) -> dispatch (Core.stepping c) k req)
          | _ -> None);
    }
  in
  (* A fiber's first slice.  A process body's result goes to its
     controller's cell, read from the leaf, so the running fiber keeps
     the controller and not the body. *)
  let started leaf =
    Option.iter raise !pending_crash;
    match leaf with
    | Start body -> body ()
    | Spawned (ctl, f) -> ctl.c_result <- Some (f ctl)
    | Forking _ | Step _ | Stepped _ | Resume _ | Raise _ -> assert false
  in
  (* A step's answer; a parked step is stepped again as [leaf]. *)
  let answer n leaf = function
    | Park ws -> Core.block c ws n leaf
    | Sleep d -> Core.sleep c n leaf d
    | Fiber body -> match_with body () handler
  in
  (* Forking and first steps run no fiber, but an injected crash fails
     them as it fails a fiber that has not started; a step that has
     parked takes the crash as its cause. *)
  let run_leaf n = function
    | (Start _ | Spawned _) as leaf -> match_with started leaf handler
    | Forking (ctl, f) ->
        Option.iter raise !pending_crash;
        Core.fork c n Wbranches "branch" Fun.id (f ctl)
    | Step (f, x) ->
        Option.iter raise !pending_crash;
        answer n (Stepped (f, x)) (f x Started)
    | Stepped (f, x) as leaf ->
        answer n leaf (f x (match !pending_crash with None -> Woken | Some e -> Crashed e))
    | Resume (k, v) -> ( match !pending_crash with None -> continue k v | Some e -> discontinue k e)
    | Raise (k, exn) -> discontinue k exn
  in
  let step (n : node) leaf =
    (match inject with
    | None -> ()
    | Some f -> (
        match f !nslices with None -> () | Some fault -> apply_fault n fault));
    incr nslices;
    Core.slice_begin c n;
    (try run_leaf n leaf with e -> failure := Some e);
    Core.slice_end c 1;
    pending_crash := None;
    if Option.is_some (Core.final c) || Option.is_some !failure then Core.halt c
  in

  let rec drive () =
    match (!result, !failure) with
    | Some a, _ -> a
    | None, Some e -> raise e
    | None, None ->
        if Core.advance c step then drive ()
        else raise (Deadlock ("deadlock: " ^ Core.deadlock_msg c))
  in
  (* Install the run's context; restored on every exit path so nested
     runs and exceptions leave the outer context intact. *)
  let saved = !cur in
  cur := ctx;
  Fun.protect ~finally:(fun () -> cur := saved) drive

(* ------------------------------------------------------------------ *)
(* Typed front end.                                                    *)
(* ------------------------------------------------------------------ *)

let perform_sched req =
  try perform (Sched req) with Effect.Unhandled (Sched _) -> raise Not_in_scheduler

let controller () =
  let x = !cur in
  x.x_labels <- x.x_labels + 1;
  { c_label = x.x_labels; c_run = x.x_run; c_result = None }

let spawn f =
  let c = controller () in
  perform_sched (Rspawn (c, Spawned (c, f)))

let control c body = perform_sched (Rcontrol (c, body))

let resume pk v = perform_sched (Rgraft (pk, v))

type branch = leaf

let fiber body = Start body

let step f x = Step (f, x)

let spawn_branches f =
  let c = controller () in
  perform_sched (Rspawn (c, Forking (c, f)))

(* One result array for all branches: a branch's cell holds only its
   value, never its thunk, so nothing else of a finished branch stays
   alive until the join. *)
let pcall thunks =
  match thunks with
  | [] -> []
  | _ ->
      let results = Array.make (List.length thunks) None in
      let bodies = List.mapi (fun i t () -> results.(i) <- Some (t ())) thunks in
      perform_sched
        (Rpcall (bodies, fun () -> Array.fold_right (fun r vs -> Option.get r :: vs) results []))

let pcall2 ta tb =
  let a = ref None and b = ref None in
  perform_sched
    (Rpcall
       ( [ (fun () -> a := Some (ta ())); (fun () -> b := Some (tb ())) ],
         fun () -> (Option.get !a, Option.get !b) ))

let yield () = perform_sched Ryield

let sleep d = perform_sched (Rsleep d)

(* The scheduler discards this fiber's continuation: the replacement
   body runs at the controller root instead, so control never returns
   here.  (A dead controller raises Dead_controller into the fiber.) *)
let abort c ~reason f = perform_sched (Rabort (c, reason, fun () -> c.c_result <- Some (f ())))

(* ------------------------------------------------------------------ *)
(* Causal spans.                                                       *)
(* ------------------------------------------------------------------ *)

(* A fiber's span context is its stepping node's. *)
module Span = struct
  let current () = match !cur.x_core with Some c -> (Core.stepping c).span | None -> -1

  let set s = match !cur.x_core with Some c -> (Core.stepping c).span <- s | None -> ()

  let adopt s = if s >= 0 then set s

  let with_ name f =
    match !cur.x_obs with
    | None -> f ()
    | Some o ->
        let parent = current () in
        let id = Obs.Span.begin_ o ~pid:(self_pid ()) ~parent name in
        set id;
        Fun.protect
          ~finally:(fun () ->
            (* runs on exception unwind too, so a crashing fiber still
               closes its span before the crash propagates.  A capture
               and graft may have moved the fiber to a fresh node since
               the span opened, so read the stepping node again. *)
            Obs.Span.end_ o ~pid:(self_pid ()) id;
            set parent)
          f
end

(* ------------------------------------------------------------------ *)
(* Parked waiters.                                                     *)
(* ------------------------------------------------------------------ *)

module Waitset = struct
  type t = waitset

  let create name = { Core.ws_name = name; ws_parked = [] }

  let name ws = ws.Core.ws_name

  let parked = Core.parked
end

let block ws = perform_sched (Rblock ws)

let wake ws =
  (* Performing the effect costs a suspension, so skip it when nothing is
     parked — the common uncontended case stays effect-free. *)
  if ws.Core.ws_parked <> [] then perform_sched (Rwake ws)

(* ------------------------------------------------------------------ *)
(* Futures: independent trees in the forest (Section 8).               *)
(* ------------------------------------------------------------------ *)

type 'a future = { mutable f_value : 'a option; f_ws : waitset }

let future thunk =
  let fut = { f_value = None; f_ws = Waitset.create "future" } in
  perform_sched (Rfuture ((fun () -> fut.f_value <- Some (thunk ())), fut.f_ws));
  fut

let poll fut = fut.f_value

(* Touch parks on the future's waitset; the scheduler wakes the parked
   fibers when the future's tree delivers its value.  A parked toucher is
   still capturable: pruning it into a process continuation invalidates
   its waitset entry and re-captures it as a runnable leaf, so on graft
   it resumes here and re-checks the cell. *)
let rec touch fut =
  match fut.f_value with
  | Some v -> v
  | None ->
      block fut.f_ws;
      touch fut
