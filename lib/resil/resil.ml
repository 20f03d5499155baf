(* Fault tolerance over the native scheduler: structured cancellation
   scopes, virtual-time timeouts, and supervision trees.

   Everything here is built from the paper's control operations — a
   scope is a [spawn] root, and every way a scope can end (completion,
   crash, cancellation, timeout) is an [abort]: the subtree is captured
   back to the root exactly as [control] would capture it, and then
   discarded instead of reinstated.  Cancellation is thus "declined
   reinstatement": the scheduler releases parked descendants, the
   replacement body runs the scope's finalizers, and the scope's result
   becomes an ['a outcome]. *)

module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

type failure = Cancelled of string | Crashed of string

let failure_to_string = function
  | Cancelled r -> "cancelled: " ^ r
  | Crashed r -> "crashed: " ^ r

type 'a outcome = ('a, failure) result

(* ------------------------------------------------------------------ *)
(* Scopes.                                                             *)
(* ------------------------------------------------------------------ *)

module Scope = struct
  type state = Running | Cancel_requested of string | Finished

  type t = {
    ws : Sched.Waitset.t;  (* the scope's watchdog parks here *)
    mutable state : state;
    mutable finalizers : (unit -> unit) list;  (* run LIFO on any exit *)
    mutable children : t list;  (* nested scopes: cancellation flows down *)
    mutable prune_in : int;  (* children to add before finished ones are pruned *)
  }

  (* The unfinished scopes of a list of children, each finished one
     replaced by its own unfinished descendants: a cancel walking the
     result reaches every scope it reached before, in the same order. *)
  let rec unfinished cs =
    List.concat_map (fun c -> if c.state = Finished then unfinished c.children else [ c ]) cs

  (* A parent prunes its finished children once the list has doubled
     since the last prune, so each child costs amortised O(1). *)
  let make ?parent () =
    let sc =
      {
        ws = Sched.Waitset.create "resil.scope";
        state = Running;
        finalizers = [];
        children = [];
        prune_in = 1;
      }
    in
    (match parent with
    | None -> ()
    | Some p ->
        p.prune_in <- p.prune_in - 1;
        if p.prune_in = 0 then begin
          p.children <- unfinished p.children;
          p.prune_in <- List.length p.children + 1
        end;
        p.children <- sc :: p.children);
    sc

  let on_exit sc f = sc.finalizers <- f :: sc.finalizers

  let own_channel sc ch = on_exit sc (fun () -> Channel.close ch)

  let cancelled sc =
    match sc.state with Cancel_requested _ -> true | Running | Finished -> false

  (* Request cancellation: flag the scope and every nested scope, then
     wake each watchdog.  The request is asynchronous — the watchdog
     starts a fiber that performs the abort from inside the scope's own
     tree, so [cancel] is safe to call from anywhere (another tree, a
     supervisor, a timer). *)
  let rec cancel sc ~reason =
    (match sc.state with
    | Running ->
        sc.state <- Cancel_requested reason;
        Sched.wake sc.ws
    | Cancel_requested _ | Finished -> ());
    List.iter (fun c -> cancel c ~reason) sc.children

  (* Finalizers run exactly once, inside the abort replacement body (a
     fresh fiber at the scope root), newest first.  A finalizer that
     raises must not mask the scope's outcome. *)
  let finalize sc =
    let fs = sc.finalizers in
    sc.finalizers <- [];
    List.iter (fun f -> try f () with _ -> ()) fs

  (* A scope's timer: none, or a deadline relative to the timer's first
     slice or absolute in virtual time. *)
  type timer = Untimed | After of int | At of int

  (* One run of a scope, shared by its branches: they are top-level
     functions over this record, so a run allocates it, the main
     branch's thunk and the branch leaves. *)
  type 'a run = {
    sc : t;
    ctl : 'a outcome Sched.controller;
    body : unit -> 'a;
    timer : timer;
  }

  let abort_with r reason result =
    Sched.abort r.ctl ~reason (fun () ->
        finalize r.sc;
        result)

  let crash r e =
    let msg = Printexc.to_string e in
    (match Sched.obs () with
    | None -> ()
    | Some o -> Obs.emit o (E.Crash { pid = Sched.self_pid (); fault = msg }));
    r.sc.state <- Finished;
    abort_with r ("crash: " ^ msg) (Error (Crashed msg))

  let main r =
    match r.body () with
    | v ->
        r.sc.state <- Finished;
        abort_with r "complete" (Ok v)
    | exception e -> crash r e

  (* The watchdog, a step: parked on the scope's waitset until it
     observes a cancellation request, re-checking on every wake. *)
  let watch r : Sched.cause -> Sched.answer = function
    | Crashed e -> Fiber (fun () -> crash r e)
    | Started | Woken -> (
        match r.sc.state with
        | Cancel_requested reason ->
            r.sc.state <- Finished;
            Fiber (fun () -> abort_with r ("cancel: " ^ reason) (Error (Cancelled reason)))
        | Running -> Park r.sc.ws
        | Finished ->
            (* unreachable: the branch that set [Finished] aborted in the
               same slice, discarding this watchdog *)
            assert false)

  (* The timer once its sleep is over: cancel the scope if it is still
     running, then park until whichever branch is aborting it discards
     this timer. *)
  let fire r =
    try
      (match r.sc.state with
      | Running ->
          (match Sched.obs () with
          | None -> ()
          | Some o -> Obs.emit o (E.Timeout { pid = Sched.self_pid (); deadline = Sched.now () }));
          (* the watchdog is parked on the scope's waitset; [cancel]
             wakes it, and it will abort the scope *)
          cancel r.sc ~reason:"timeout"
      | Cancel_requested _ | Finished -> ());
      Sched.block (Sched.Waitset.create "resil.discard");
      assert false
    with e -> crash r e

  (* The timer, a step: it sleeps to its deadline (not at all if an
     absolute one has passed), and any wake ends the sleep. *)
  let timer r : Sched.cause -> Sched.answer = function
    | Crashed e -> Fiber (fun () -> crash r e)
    | Woken -> Fiber (fun () -> fire r)
    | Started -> (
        match r.timer with
        | After d -> Sleep d
        | At at ->
            let d = at - Sched.now () in
            if d > 0 then Sleep d else Fiber (fun () -> fire r)
        | Untimed -> assert false)

  (* Run [body] under the scope.  The spawn root holds two or three
     concurrent branches, and every one of them exits by aborting the
     root:

     - the main branch, a fiber, runs [body]; completion aborts with
       [Ok v], an escaped exception aborts with [Error (Crashed _)];
     - the watchdog, a step, parks on the scope's waitset and starts a
       fiber to abort with [Error (Cancelled _)] when it observes a
       cancellation request (a spurious wake re-parks);
     - with a timer, a step sleeps to the deadline and then starts a
       fiber that cancels the scope if it is still running.

     An injected crash delivered to a parked watchdog or timer fails
     the scope like a crash of the body.  Whichever branch aborts first
     wins: the abort captures and discards the other branches — parked,
     sleeping or mid-compute at a yield point — so no branch outlives
     the scope. *)
  let run_with sc deadline body =
    Sched.spawn_branches (fun ctl ->
        let r = { sc; ctl; body; timer = deadline } in
        let main = Sched.fiber (fun () -> main r) and watchdog = Sched.step watch r in
        match deadline with
        | Untimed -> [ main; watchdog ]
        | After _ | At _ -> [ main; watchdog; Sched.step timer r ])

  let run sc body = run_with sc Untimed body

  let with_scope ?parent body =
    let sc = make ?parent () in
    run sc (fun () -> body sc)
end

(* ------------------------------------------------------------------ *)
(* Timeouts.                                                           *)
(* ------------------------------------------------------------------ *)

(* A timeout is a scope with one extra branch: a timer that waits on
   the scheduler's virtual clock and, if the scope is still running at
   the deadline, cancels it.  Because quiescence jumps the clock to the
   earliest pending deadline, the timer fires even when every fiber in
   the system is blocked — the timeout doubles as a deadlock backstop. *)
let with_timeout ?parent d body = Scope.run_with (Scope.make ?parent ()) (After d) body

(* Absolute deadline: the timer sleeps until virtual time [at] (no sleep
   at all if [at] has already passed — the request is dead on arrival
   and times out before the body runs a slice).  This is the open-loop
   load generator's per-request deadline: the budget counts from the
   *scheduled arrival*, not from whenever the scope got around to
   starting, so admission lag eats into it. *)
let with_deadline ?parent ~at body = Scope.run_with (Scope.make ?parent ()) (At at) body

(* ------------------------------------------------------------------ *)
(* Supervision.                                                        *)
(* ------------------------------------------------------------------ *)

module Supervisor = struct
  type strategy = One_for_one | One_for_all

  type child = { name : string; body : unit -> unit }

  let child ~name body = { name; body }

  type slot = {
    spec : child;
    mutable pid : int;  (* root fiber pid of the current incarnation *)
    mutable scope : Scope.t;
    mutable result : unit outcome option;  (* None while running *)
    mutable restarts : int list;  (* virtual times of past restarts *)
  }

  (* Run the children under supervision, each in its own scope inside
     its own independent tree ([Sched.future]), so a child crash is
     contained by its scope and control operations never cross between
     siblings.  The supervisor parks on its waitset; children wake it
     when they deliver an outcome.

     Restart intensity: a child's restart log is pruned to the sliding
     [window] of virtual time; when a failure arrives with [max_restarts]
     restarts already in the window, the supervisor gives up — it cancels
     every live child, waits for all of them to deliver, and returns the
     triggering failure.  Otherwise it backs off exponentially in virtual
     time ([backoff * 2^(attempt-1)]) before restarting. *)
  let supervise ?(strategy = One_for_one) ?(max_restarts = 3) ?(window = 1000)
      ?(backoff = 10) specs =
    if specs = [] then invalid_arg "Supervisor.supervise: no children";
    let sup_ws = Sched.Waitset.create "resil.supervisor" in
    let slots =
      List.map
        (fun spec ->
          { spec; pid = -1; scope = Scope.make (); result = None; restarts = [] })
        specs
    in
    let start slot =
      slot.result <- None;
      let sc = Scope.make () in
      slot.scope <- sc;
      let _ : unit Sched.future =
        Sched.future (fun () ->
            slot.pid <- Sched.self_pid ();
            let r = Scope.run sc slot.spec.body in
            slot.result <- Some r;
            Sched.wake sup_ws)
      in
      ()
    in
    (* Park until [p] holds.  The waitset is woken by child deliveries;
       re-check on every wake. *)
    let rec await p =
      if not (p ()) then begin
        Sched.block sup_ws;
        await p
      end
    in
    let cancel_live reason =
      List.iter
        (fun s ->
          if s.result = None then Scope.cancel s.scope ~reason)
        slots
    in
    let all_delivered () = List.for_all (fun s -> s.result <> None) slots in
    let rec loop () =
      match
        List.find_opt
          (fun s -> match s.result with Some (Error _) -> true | _ -> false)
          slots
      with
      | Some failed -> (
          let f =
            match failed.result with Some (Error f) -> f | _ -> assert false
          in
          let now = Sched.now () in
          failed.restarts <-
            List.filter (fun t -> t > now - window) failed.restarts;
          let attempt = List.length failed.restarts + 1 in
          if attempt > max_restarts then begin
            (* intensity exceeded: shut the whole supervisor down.  The
               Crash marker makes any attached flight recorder dump its
               window — a supervisor giving up is exactly the post-mortem
               moment.  (Non-"inject:" faults are ignored by schedule
               extraction, so replay is unaffected.) *)
            (match Sched.obs () with
            | None -> ()
            | Some o ->
                Obs.emit o
                  (E.Crash
                     { pid = Sched.self_pid (); fault = "supervisor-give-up" }));
            cancel_live "supervisor-giving-up";
            await all_delivered;
            Error f
          end
          else begin
            let delay = backoff * (1 lsl (attempt - 1)) in
            (match strategy with
            | One_for_one -> ()
            | One_for_all ->
                (* stop the siblings before the backoff so nothing runs
                   on a half-failed configuration *)
                List.iter
                  (fun s ->
                    if s != failed && s.result = None then
                      Scope.cancel s.scope ~reason:"sibling-crash")
                  slots;
                await all_delivered);
            Sched.sleep delay;
            failed.restarts <- Sched.now () :: failed.restarts;
            (match Sched.obs () with
            | None -> ()
            | Some o ->
                Obs.emit o
                  (E.Restart
                     {
                       pid = Sched.self_pid ();
                       child = failed.pid;
                       attempt;
                       backoff = delay;
                       limit = max_restarts;
                     }));
            (match strategy with
            | One_for_one -> start failed
            | One_for_all -> List.iter start slots);
            loop ()
          end)
      | None ->
          if all_delivered () then Ok ()
          else begin
            Sched.block sup_ws;
            loop ()
          end
    in
    List.iter start slots;
    loop ()
end
