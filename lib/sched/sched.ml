open Effect
open Effect.Deep
module Core = Pcont_sched_core.Sched_core
module Univ = Pcont_util.Univ
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

exception Dead_controller

exception Expired_pk

exception Not_in_scheduler

exception Deadlock of string

exception Injected_crash
(* delivered at a fiber's suspension point by the [Fcrash] fault *)

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
  | Fcrash  (* raise [Injected_crash] at the target fiber's suspension point *)
  | Fwake of string  (* spurious wake: wake everything parked on the resource *)
  | Fdrop of int  (* silently drop one buffered element from the channel *)

(* ------------------------------------------------------------------ *)
(* Untyped scheduler: every fiber computes a Univ.t.                   *)
(* ------------------------------------------------------------------ *)

type step_result = Sdone of Univ.t | Ssuspended

type fiber_k = (Univ.t, step_result) continuation

(* A runnable fiber: a body not yet started, or a suspended fiber to
   continue with a value or to raise an exception into. *)
type leaf =
  | Start of (unit -> Univ.t)
  | Resume of fiber_k * Univ.t
  | Raise of fiber_k * exn

(* A wait node's suspended fiber and what it waits for: the return of a
   spawned process (a labeled root), the completion of pcall branches
   (combined by the join), or the value of a controller body evaluated
   after a capture. *)
type wx =
  | Wroot of int * fiber_k
  | Wfork of fiber_k * (Univ.t array -> Univ.t)
  | Wbody of fiber_k

(* The live process tree: fibers at the leaves. *)
type node = (leaf, wx, Univ.t) Core.node

type entry = (leaf, wx, Univ.t) Core.entry

(* A waitset owns the fibers parked on one blocking resource (a future
   cell, a channel's senders, a channel's receivers).  Entries are
   invalidated — never removed eagerly — when a capture prunes the
   parked node into a process continuation; the wake sweep skips dead
   entries. *)
type waitset = { ws_name : string; mutable ws_parked : entry list }

type request =
  | Rspawn of int * (unit -> Univ.t)  (* root label, process body *)
  | Rcontrol of int * (upk -> Univ.t)  (* root label, controller argument *)
  | Rgraft of upk * Univ.t
  | Rpcall of (unit -> Univ.t) list * (Univ.t array -> Univ.t)
  | Rfuture of (unit -> Univ.t) * Univ.t option ref * waitset
      (* an INDEPENDENT process tree (Section 8's forest): its result is
         stored in the cell; control operations cannot cross into it *)
  | Ryield
  | Rsleep of int
      (* park the fiber until the run's virtual clock reaches now+d; the
         timer heap wakes due sleepers in deadline order, and quiescence
         jumps the clock to the earliest pending deadline instead of
         declaring deadlock *)
  | Rabort of int * string * (unit -> Univ.t)
      (* cancellation as declined reinstatement: capture the subtree
         delimited by the labeled root — releasing parked entries — and
         discard it (the invoking fiber included), running the
         replacement body in the root's place.  The string is the
         cancel reason recorded in the trace. *)
  | Rblock of waitset
      (* park the fiber on the waitset until a matching Rwake (or the
         delivery of the owning future); parked fibers leave the run
         queue entirely, so rounds cost O(runnable), not O(blocked) *)
  | Rwake of waitset  (* make every fiber parked on the waitset runnable *)

(* A captured subtree.  [PHole] marks the fiber that invoked the
   controller; it receives the process continuation's argument on graft.
   [PWait] keeps a wait's state, children and results so far. *)
and upk = { upk_label : int; upk_tree : ptree; mutable upk_taken : bool }

and ptree =
  | PLeaf of leaf
  | PHole of fiber_k
  | PDone
  | PWait of wx * ptree array * Univ.t option array

type _ Effect.t += Sched : request -> Univ.t Effect.t

let inj_unit, _ = Univ.embed ()

let u_unit = inj_unit ()

let label_counter = ref 0

(* ------------------------------------------------------------------ *)
(* Observability context.                                              *)
(*                                                                     *)
(* The scheduler is cooperative and single-threaded, so the handle of  *)
(* the innermost running [run] can live in globals that [run] saves    *)
(* and restores.  User-level code running inside a fiber (channels,    *)
(* user blocking abstractions) reads them to tag its events with the   *)
(* stepping fiber's id.                                                *)
(* ------------------------------------------------------------------ *)

let cur_obs : Obs.t option ref = ref None

let cur_pid = ref 0

(* The stepping fiber's innermost open span (-1 = none): user-level
   code (channels) reads it to propagate request context across sends;
   the scheduler saves/loads it around every slice so each fiber keeps
   its own context. *)
let cur_span = ref (-1)

(* The innermost run's virtual clock: slices since the run started, plus
   any quiescence jumps to pending timer deadlines.  Advances whether or
   not an obs handle is installed, so timer behavior never depends on
   tracing. *)
let cur_clock = ref 0

(* The innermost run's scheduling core, for its live-node census. *)
let cur_core : (leaf, wx, Univ.t) Core.t option ref = ref None

(* Channel (and other user-resource) ids: allocated per run so traces
   of identical runs are identical. *)
let chan_ids = ref 0

(* Channel-drop fault hooks: channels register how to discard one
   buffered element (returning the waitset to wake, since dropping frees
   capacity).  Per run, like [chan_ids]. *)
let droppers : (int * (unit -> waitset option)) list ref = ref []

let obs () = !cur_obs

let self_pid () = !cur_pid

let now () = !cur_clock

let peak () = match !cur_core with Some c -> Core.peak c | None -> 0

let fresh_chan_id () =
  incr chan_ids;
  !chan_ids

let register_dropper id f = droppers := (id, f) :: !droppers

(* Control points (labels and forks) and node count of a captured
   subtree — the quantities the paper's complexity claim is stated in. *)
let rec ptree_control_points = function
  | PLeaf _ | PHole _ | PDone -> 0
  | PWait (x, children, _) ->
      (match x with Wroot _ -> 2 | Wfork _ | Wbody _ -> 1)
      + Array.fold_left (fun n t -> n + ptree_control_points t) 0 children

let rec ptree_size = function
  | PLeaf _ | PHole _ | PDone -> 1
  | PWait (_, children, _) -> 1 + Array.fold_left (fun n t -> n + ptree_size t) 0 children

let start body = Start body

let run ?(policy = Round_robin) ?obs:obs_arg ?inject (type a) (main : unit -> a) : a
    =
  let obs = obs_arg in
  (* Install the observability context; restored on every exit path so
     nested runs and exceptions leave the outer context intact.  Labels
     and channel ids restart per run, which keeps traces of identical
     runs byte-identical. *)
  let saved_obs = !cur_obs and saved_pid = !cur_pid in
  let saved_chans = !chan_ids and saved_labels = !label_counter in
  let saved_clock = !cur_clock and saved_droppers = !droppers in
  let saved_span = !cur_span and saved_core = !cur_core in
  cur_obs := obs;
  chan_ids := 0;
  label_counter := 0;
  cur_clock := 0;
  cur_span := -1;
  droppers := [];
  let restore () =
    cur_obs := saved_obs;
    cur_pid := saved_pid;
    chan_ids := saved_chans;
    label_counter := saved_labels;
    cur_clock := saved_clock;
    cur_span := saved_span;
    cur_core := saved_core;
    droppers := saved_droppers
  in
  let inj_a, prj_a = Univ.embed () in
  let pending_request : (request * fiber_k) option ref = ref None in
  (* An injected crash for the fiber about to step: consumed by
     [run_leaf] below, so the exception materializes at the fiber's
     suspension point (catchable by its own try/with); a fiber that has
     never run yet crashes before its body — spawn-failure semantics. *)
  let pending_crash : exn option ref = ref None in
  let handler : (Univ.t, step_result) handler =
    {
      retc = (fun v -> Sdone v);
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sched req ->
              Some
                (fun (k : (b, step_result) continuation) ->
                  pending_request := Some (req, k);
                  Ssuspended)
          | _ -> None);
    }
  in
  let run_leaf = function
    | Start body ->
        match_with
          (fun () ->
            (match !pending_crash with
            | Some e ->
                pending_crash := None;
                raise e
            | None -> ());
            body ())
          () handler
    | Resume (k, v) -> (
        match !pending_crash with
        | None -> continue k v
        | Some e ->
            pending_crash := None;
            discontinue k e)
    | Raise (k, exn) -> discontinue k exn
  in
  let resume x vs =
    match x with
    | Wroot (_, k) | Wbody k -> Resume (k, vs.(0))
    | Wfork (k, join) -> Resume (k, join vs)
  in
  (* The native scheduler does not meter fiber work: a slice runs the
     fiber to its next request and is charged one unit of virtual
     time. *)
  let c =
    Core.create ?obs ~prefix:"sched" ~nouns:("fibers", "fiber(s)") ~clock:cur_clock
      ~span:cur_span ~resume policy
      (Start (fun () -> inj_a (main ())))
  in
  cur_core := Some c;
  let failure = ref None in
  (* Global slice index, the unit fault placements are expressed in. *)
  let nslices = ref 0 in

  (* Re-enqueue every live fiber parked on [ws], in park (FIFO) order:
     [ws_parked] is newest-first. *)
  let wake_ws ws =
    match ws.ws_parked with
    | [] -> ()
    | entries ->
        ws.ws_parked <- [];
        List.iter (Core.wake c) (List.rev entries);
        Core.flush_woken c
  in

  (* The nearest root labeled [label] above [n] with its wait and
     waiting fiber, or else a dead controller: raised inside the invoking
     fiber so user code can observe Dead_controller, mirroring the
     direct-style embedding. *)
  let find_root (n : node) k label =
    let rec climb (cur : node) =
      match cur.parent with
      | Ptop | Pfut _ -> None
      | Pchild (p, _) -> (
          match p.body with
          | Nwait ({ wx = Wroot (l, root_k); _ } as w) when l = label -> Some (p, w, root_k)
          | _ -> climb p)
    in
    match climb n with
    | Some _ as r -> r
    | None ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Invalid_controller { pid = n.nid; label }));
        n.body <- Nleaf (Raise (k, Dead_controller));
        None
  in

  (* Prune the subtree delimited by the nearest root labeled [label] above
     the invoking fiber and hand it, as a process continuation, to the
     controller's body, which runs in the root's former position. *)
  let do_capture n k label body_fn =
    let rec ptree_of (m : node) =
      if m == n then PHole k
      else
        match m.body with
        | Nleaf s -> PLeaf s
        | Nparked e ->
            (* Pruning a parked waiter: invalidate its waitset entry (the
               resource may be woken while the subtree is captured) and
               capture it as a runnable leaf, so that on graft it resumes
               and re-checks its blocking condition — parking is always a
               re-check loop, so a spurious wake-up is harmless. *)
            Core.release c e;
            PLeaf e.e_leaf
        | Ndone -> PDone
        | Nwait w -> PWait (w.wx, Array.map ptree_of w.children, Array.copy w.results)
    in
    match find_root n k label with
    | None -> ()
    | Some (p, w, root_k) ->
        Core.prune c;
        let tree = ptree_of w.children.(0) in
        (match obs with
        | None -> ()
        | Some o ->
            let cp = ptree_control_points tree in
            let size = ptree_size tree in
            Obs.emit o
              (E.Capture
                 { pid = n.nid; label; root_pid = p.nid; control_points = cp; size }));
        let upk = { upk_label = label; upk_tree = tree; upk_taken = false } in
        Core.fork c p (Wbody root_k) "controller" start [ (fun () -> body_fn upk) ]
  in

  (* Cancellation as declined reinstatement: capture the subtree under
     the nearest root labeled [label] exactly as [do_capture] would —
     invalidating parked entries — but discard it instead of handing it
     to a controller body.  The invoking fiber is part of the discarded
     subtree (its continuation is dropped; [abort] never returns); the
     replacement body runs in the root's former position and its value
     becomes the root's. *)
  let do_abort n k label reason replacement =
    match find_root n k label with
    | None -> ()
    | Some (p, _, root_k) ->
        Core.discard c n p ~reason;
        Core.fork c p (Wbody root_k) "cancel" start [ replacement ]
  in

  (* Graft a captured subtree onto the invoking fiber: the fiber waits (as
     a reinstated root) for the subtree's result; the capture point inside
     receives [v]; every captured branch becomes runnable. *)
  let do_graft (n : node) k upk v =
    if upk.upk_taken then n.body <- Nleaf (Raise (k, Expired_pk))
    else begin
      upk.upk_taken <- true;
      (match obs with
      | None -> ()
      | Some o ->
          Obs.emit o
            (E.Reinstate
               { pid = n.nid; label = upk.upk_label; size = ptree_size upk.upk_tree }));
      Core.graft c n (Wroot (upk.upk_label, k)) [| upk.upk_tree |] [| None |]
        (function
          | PHole hole_k -> Core.Sleaf (Resume (hole_k, v))
          | PLeaf s -> Sleaf s
          | PDone -> Sdone
          | PWait (x, children, results) -> Swait (x, children, results))
    end
  in

  (* Apply one injected fault just before the slice it targets.  The
     marker event precedes the slice's begin event, so a schedule
     re-extracted from the trace re-injects at the same slice index. *)
  let apply_fault (n : node) fault =
    match fault with
    | Fcrash ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Crash { pid = n.nid; fault = "inject:crash" }));
        pending_crash := Some Injected_crash
    | Fwake res ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Crash { pid = -1; fault = "inject:wake:" ^ res }));
        (* Parking is a re-check loop, so correct waiters re-park;
           anything that stays woken revealed a missing re-check. *)
        Core.wake_resource c res
    | Fdrop chan -> (
        (match obs with
        | None -> ()
        | Some o ->
            Obs.emit o
              (E.Crash { pid = -1; fault = "inject:drop:" ^ string_of_int chan }));
        match List.assoc_opt chan !droppers with
        | None -> ()
        | Some drop -> (
            match drop () with
            | None -> ()
            | Some ws -> wake_ws ws))
  in
  let step (n : node) leaf =
    pending_request := None;
    cur_pid := n.nid;
    (match inject with
    | None -> ()
    | Some f -> (
        match f !nslices with None -> () | Some fault -> apply_fault n fault));
    incr nslices;
    Core.slice_begin c n;
    (match run_leaf leaf with
    | Sdone v -> Core.deliver c n v
    | Ssuspended -> (
        match !pending_request with
        | None -> assert false
        | Some (req, k) -> (
            match req with
            | Ryield -> n.body <- Nleaf (Resume (k, u_unit))
            | Rsleep d ->
                (* Timers are never woken collectively, only by expiry
                   (or discarded by capture/cancel, like any park). *)
                Core.sleep c n (Resume (k, u_unit)) d
            | Rabort (label, reason, replacement) ->
                do_abort n k label reason replacement
            | Rspawn (label, body) -> Core.fork c n (Wroot (label, k)) "process" start [ body ]
            | Rpcall ([], join) -> n.body <- Nleaf (Resume (k, join [||]))
            | Rpcall (thunks, join) -> Core.fork c n (Wfork (k, join)) "branch" start thunks
            | Rblock ws ->
                let e = Core.park c n ~res:ws.ws_name (Resume (k, u_unit)) in
                ws.ws_parked <- e :: ws.ws_parked
            | Rwake ws ->
                wake_ws ws;
                n.body <- Nleaf (Resume (k, u_unit))
            | Rfuture (body, cell, ws) ->
                Core.plant c n (Start body) (fun v ->
                    cell := Some v;
                    wake_ws ws);
                n.body <- Nleaf (Resume (k, u_unit))
            | Rcontrol (label, body_fn) -> do_capture n k label body_fn
            | Rgraft (upk, v) -> do_graft n k upk v))
    | exception e -> failure := Some e);
    Core.slice_end c n 1;
    (* an unconsumed crash (the target delivered or raised before its
       suspension point was resumed) must not leak to the next slice *)
    pending_crash := None;
    if Option.is_some (Core.final c) || Option.is_some !failure then Core.halt c
  in

  let rec drive () =
    match (Core.final c, !failure) with
    | Some v, _ -> (
        match prj_a v with Some a -> a | None -> assert false)
    | None, Some e -> raise e
    | None, None ->
        if Core.advance c step then drive ()
        else raise (Deadlock ("deadlock: " ^ Core.deadlock_msg c))
  in
  Fun.protect ~finally:restore drive

(* ------------------------------------------------------------------ *)
(* Typed front end.                                                    *)
(* ------------------------------------------------------------------ *)

type 'r controller = {
  c_label : int;
  c_inj : 'r -> Univ.t;
  c_prj : Univ.t -> 'r option;
}

type ('a, 'r) pk = {
  p_upk : upk;
  p_inj_a : 'a -> Univ.t;
  p_prj_r : Univ.t -> 'r option;
}

let perform_sched req =
  try perform (Sched req)
  with Effect.Unhandled (Sched _) -> raise Not_in_scheduler

let get_exn prj u = match prj u with Some v -> v | None -> assert false

let spawn (type r) (f : r controller -> r) : r =
  let c_inj, c_prj = Univ.embed () in
  incr label_counter;
  let c = { c_label = !label_counter; c_inj; c_prj } in
  get_exn c_prj (perform_sched (Rspawn (c.c_label, fun () -> c_inj (f c))))

let control (type a) c (body : (a, _) pk -> _) : a =
  let p_inj_a, prj_a = Univ.embed () in
  let body_u upk = c.c_inj (body { p_upk = upk; p_inj_a; p_prj_r = c.c_prj }) in
  get_exn prj_a (perform_sched (Rcontrol (c.c_label, body_u)))

let resume pk v =
  get_exn pk.p_prj_r (perform_sched (Rgraft (pk.p_upk, pk.p_inj_a v)))

let pcall (type a) (thunks : (unit -> a) list) : a list =
  match thunks with
  | [] -> []
  | _ ->
      let inj, prj = Univ.embed () in
      let inj_l, prj_l = Univ.embed () in
      let bodies = List.map (fun t () -> inj (t ())) thunks in
      let join vs = inj_l (List.map (get_exn prj) (Array.to_list vs)) in
      get_exn prj_l (perform_sched (Rpcall (bodies, join)))

let pcall2 (type a b) (ta : unit -> a) (tb : unit -> b) : a * b =
  let inj_a, prj_a = Univ.embed () in
  let inj_b, prj_b = Univ.embed () in
  let inj_p, prj_p = Univ.embed () in
  let join vs = inj_p (get_exn prj_a vs.(0), get_exn prj_b vs.(1)) in
  get_exn prj_p
    (perform_sched (Rpcall ([ (fun () -> inj_a (ta ())); (fun () -> inj_b (tb ())) ], join)))

let yield () = ignore (perform_sched Ryield)

let sleep d = ignore (perform_sched (Rsleep d))

let abort (type r) (c : r controller) ~reason (f : unit -> r) : 'a =
  ignore (perform_sched (Rabort (c.c_label, reason, fun () -> c.c_inj (f ()))));
  (* The scheduler discards this fiber's continuation: the replacement
     body runs at the controller root instead, so control never returns
     here.  (A dead controller label raises via [discontinue] above.) *)
  assert false

(* ------------------------------------------------------------------ *)
(* Causal spans.                                                       *)
(* ------------------------------------------------------------------ *)

module Span = struct
  let current () = !cur_span

  let adopt s = if s >= 0 then cur_span := s

  let with_ name f =
    match !cur_obs with
    | None -> f ()
    | Some o ->
        let parent = !cur_span in
        let id = Obs.Span.begin_ o ~pid:!cur_pid ~parent name in
        cur_span := id;
        Fun.protect
          ~finally:(fun () ->
            (* runs on exception unwind too, so a crashing fiber still
               closes its span before the crash propagates *)
            Obs.Span.end_ o ~pid:!cur_pid id;
            cur_span := parent)
          f
end

(* ------------------------------------------------------------------ *)
(* Parked waiters.                                                     *)
(* ------------------------------------------------------------------ *)

module Waitset = struct
  type t = waitset

  let create name = { ws_name = name; ws_parked = [] }

  let name ws = ws.ws_name

  let parked ws = List.length (List.filter (fun (e : entry) -> e.e_live) ws.ws_parked)
end

let block ws = ignore (perform_sched (Rblock ws))

let wake ws =
  (* Performing the effect costs a suspension, so skip it when nothing is
     parked — the common uncontended case stays effect-free. *)
  if ws.ws_parked <> [] then ignore (perform_sched (Rwake ws))

(* ------------------------------------------------------------------ *)
(* Futures: independent trees in the forest (Section 8).               *)
(* ------------------------------------------------------------------ *)

type 'a future = {
  f_cell : Univ.t option ref;
  f_prj : Univ.t -> 'a option;
  f_ws : waitset;
}

let future (type a) (thunk : unit -> a) : a future =
  let inj, prj = Univ.embed () in
  let cell = ref None in
  let ws = Waitset.create "future" in
  ignore (perform_sched (Rfuture ((fun () -> inj (thunk ())), cell, ws)));
  { f_cell = cell; f_prj = prj; f_ws = ws }

let poll fut =
  match !(fut.f_cell) with
  | None -> None
  | Some u -> Some (get_exn fut.f_prj u)

(* Touch parks on the future's waitset; the scheduler wakes the parked
   fibers when the future's tree delivers its value.  A parked toucher is
   still capturable: pruning it into a process continuation invalidates
   its waitset entry and re-captures it as a runnable leaf, so on graft
   it resumes here and re-checks the cell. *)
let rec touch fut =
  match poll fut with
  | Some v -> v
  | None ->
      block fut.f_ws;
      touch fut
