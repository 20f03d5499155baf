open Types
module Core = Pcont_sched_core.Sched_core
module Counters = Pcont_util.Counters
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

type sched = Core.policy =
  | Round_robin
  | Randomized of int64
  | Driven_pids of (int array -> int)

type outcome =
  | Value of Types.value
  | Error of string
  | Out_of_fuel
  | Deadlock of string
      (* every remaining branch is parked on an unresolved future: the
         run queue is empty, so no branch can ever resolve one *)

let outcome_to_string = function
  | Value v -> "VALUE " ^ Value.to_string v
  | Error msg -> "ERROR " ^ msg
  | Out_of_fuel -> "OUT-OF-FUEL"
  | Deadlock msg -> "DEADLOCK " ^ msg

(* A process-tree node: a branch's leaf is its machine state, and a fork
   waits over its children with the trunk (the process stack below the
   pcall) as its extra state. *)
type node = (state, segment list, value) Core.node

let control_points ptree =
  let count_roots segs =
    List.length (List.filter (fun s -> match s.root with Rspawn _ -> true | _ -> false) segs)
  in
  let rec go = function
    | Pleaf st -> count_roots st.pstack
    | Phole segs -> count_roots segs
    | Pdone -> 0
    | Pfork pf ->
        1 + count_roots pf.pf_trunk + Array.fold_left (fun n t -> n + go t) 0 pf.pf_children
  in
  go ptree

(* Total segments in a captured subtree — the "size" reported by capture
   and reinstate events (what a copying implementation would touch). *)
let tree_segments ptree =
  let rec go = function
    | Pleaf st -> List.length st.pstack
    | Phole segs -> List.length segs
    | Pdone -> 0
    | Pfork pf ->
        List.length pf.pf_trunk
        + Array.fold_left (fun n t -> n + go t) 0 pf.pf_children
  in
  go ptree

let invalid_controller l =
  Printf.sprintf
    "invalid controller application: no process root labeled %d in the \
     current continuation"
    l

let run ?(fuel = 10_000_000) ?(quantum = 16) ?(sched = Round_robin)
    ?(drain_futures = true) ?obs ?cfg genv ir =
  let cfg = match cfg with Some c -> c | None -> Machine.config () in
  let counters = cfg.Machine.counters in
  (* Route the machine's per-operation size distributions into the
     handle's histograms for the duration of this run. *)
  let saved_metrics = cfg.Machine.metrics in
  (match obs with
  | None -> ()
  | Some o -> cfg.Machine.metrics <- Some (Obs.metrics o));
  (* Virtual time: advanced by the fuel each slice charges, with or
     without a trace handle, so [sleep] never depends on whether the run
     is observed. *)
  let vclock = ref 0 in
  (* Causal-span context: the span the branch being stepped is inside
     (-1 = none).  Span ids are program-visible ([span-begin] returns
     one), so without a trace handle they come from a local counter and
     the program behaves identically. *)
  let cur_span = ref (-1) in
  let span_parent : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let span_ctr = ref 0 in
  (* A fork resumes as a leaf applying the first child's value to the
     rest in the trunk. *)
  let resume trunk vs =
    match Array.to_list vs with
    | op :: args -> { control = Capply (op, args); pstack = trunk }
    | [] -> assert false
  in
  let c =
    Core.create ?obs ~counters ~prefix:"concur" ~nouns:("branches", "branch(es)")
      ~clock:vclock ~span:cur_span ~resume sched
      (Machine.initial (Resolve.toplevel genv ir))
  in
  let live_futures = ref 0 in
  let failure = ref None in
  let fuel_left = ref fuel in

  let fork_of (n : node) = match n.body with Core.Nwait f -> f | _ -> assert false in

  (* Wake the branches parked on a delivered future's cell, in park
     (FIFO) order: [fwaiters] is newest-first. *)
  let deliver_future cell v =
    cell.fvalue <- Some v;
    decr live_futures;
    match cell.fwaiters with
    | [] -> ()
    | ws ->
        cell.fwaiters <- [];
        List.iter (fun wake -> wake ()) (List.rev ws);
        Core.flush_woken c
  in

  (* pcall: turn this leaf into a fork; every subexpression becomes a child
     branch with a fresh local stack. *)
  let do_fork n st exprs env' =
    Counters.incr counters "concur.fork";
    Core.fork c n st.pstack "branch"
      (fun e -> { control = Ceval (e, env'); pstack = Machine.initial_pstack })
      exprs
  in

  (* Controller application whose root is not in the invoking branch's local
     stack: climb the tree for the nearest trunk containing the root, prune
     the subtree of stacks it delimits, and apply the controller's argument
     to the packaged process continuation in the remaining trunk. *)
  let do_capture (n : node) st l body_fn =
    (* Every stack that ends up aliased by the packaged [Pktree] must be
       pinned: segments are mutable records and a multi-shot continuation
       can graft the same records back twice, so the machine has to
       copy-on-write rather than mutate them (and never pool them). *)
    let rec ptree_of (m : node) =
      if m == n then (
        Machine.pin_segments st.pstack;
        Phole st.pstack)
      else
        match m.body with
        | Core.Nleaf s ->
            Machine.pin_segments s.pstack;
            Pleaf s
        | Nparked p ->
            (* Pruning a parked waiter: invalidate its entry (the cell
               may resolve while the subtree is captured) and capture it
               as an ordinary suspended leaf; on graft the rebuilt branch
               re-applies its pending touch, which either finds the cell
               resolved or parks again. *)
            Core.release c p;
            Machine.pin_segments p.e_leaf.pstack;
            Pleaf p.e_leaf
        | Ndone -> Pdone
        | Nwait f ->
            Machine.pin_segments f.wx;
            Pfork
              {
                pf_trunk = f.wx;
                pf_children = Array.map ptree_of f.children;
                pf_results = Array.copy f.results;
              }
    in
    let rec climb (cur : node) =
      match cur.parent with
      | Ptop | Pfut _ -> None
      | Pchild (p, _) -> (
          let f = fork_of p in
          match Machine.split_at_spawn_label l f.wx with
          | Some (above_incl, below) -> Some (p, f, above_incl, below)
          | None -> climb p)
    in
    match climb n with
    | None ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Invalid_controller { pid = n.nid; label = l }));
        failure := Some (invalid_controller l)
    | Some (p, f, above_incl, below) ->
        Core.prune c;
        Counters.incr counters "concur.capture";
        Counters.incr counters "sync.lock";
        Machine.pin_segments above_incl;
        let tree =
          Pfork
            {
              pf_trunk = above_incl;
              pf_children = Array.map ptree_of f.children;
              pf_results = Array.copy f.results;
            }
        in
        let cp = control_points tree in
        Counters.add counters "concur.capture.control-points" cp;
        (match obs with
        | None -> ()
        | Some o ->
            let size = tree_segments tree in
            Obs.observe o "concur.capture.control-points" cp;
            Obs.observe o "concur.capture.segments" size;
            Obs.emit o
              (E.Capture
                 { pid = n.nid; label = l; root_pid = p.nid; control_points = cp; size }));
        let pk = Pktree { pkt_label = l; pkt_tree = tree } in
        Core.become_leaf c p { control = Capply (body_fn, [ pk ]); pstack = below }
  in

  (* Invoke a tree-shaped process continuation: graft the saved subtree onto
     the invoking branch.  The saved trunk is spliced on top of the invoking
     branch's stack, every saved leaf is rebuilt as a fresh node, and the
     continuation's argument is returned at the saved hole. *)
  let do_graft (n : node) st pkt v =
    Counters.incr counters "concur.graft";
    (match obs with
    | None -> ()
    | Some o ->
        Obs.emit o
          (E.Reinstate
             { pid = n.nid; label = pkt.pkt_label; size = tree_segments pkt.pkt_tree }));
    match pkt.pkt_tree with
    | Pfork pf ->
        Core.graft c n (pf.pf_trunk @ st.pstack) pf.pf_children pf.pf_results (function
          | Phole segs -> Core.Sleaf { control = Creturn v; pstack = segs }
          | Pleaf s -> Sleaf s
          | Pdone -> Sdone
          | Pfork pf -> Swait (pf.pf_trunk, pf.pf_children, pf.pf_results))
    | Phole _ | Pleaf _ | Pdone ->
        (* Captures always package a fork at the top. *)
        assert false
  in

  (* Step one branch for up to [quantum] transitions, or until it blocks on
     a scheduler-level event.  Fork/future interceptions consume quantum
     but no fuel, as a fresh leaf takes their place. *)
  let step (n : node) st =
    let rec go st q =
      if q = 0 || !fuel_left <= 0 then n.body <- Nleaf st
      else
        match Machine.step_exn_conc cfg st with
        | st' ->
            decr fuel_left;
            go st' (q - 1)
        | exception Machine.Stop s -> (
            match s with
            | Machine.Esc_fork (exprs, env') -> do_fork n st exprs env'
            | Machine.Esc_future (e, env') ->
                (* Plant an independent tree in the forest; the current
                   branch continues immediately with the (pending)
                   future. *)
                Counters.incr counters "concur.future";
                let cell = { fvalue = None; fwaiters = [] } in
                Core.plant c n
                  { control = Ceval (e, env'); pstack = Machine.initial_pstack }
                  (deliver_future cell);
                incr live_futures;
                go { st with control = Creturn (Future cell) } (q - 1)
            | Machine.Esc_touch cell ->
                (* Still pending: park the branch on the cell.  Parking
                   consumes no fuel — a blocked branch takes no machine
                   transitions — and the branch keeps its state, so the
                   wake-up re-step re-applies the touch against the
                   now-resolved cell. *)
                let e = Core.park c n ~res:"future" st in
                cell.fwaiters <- (fun () -> Core.wake c e) :: cell.fwaiters
            | Machine.Esc_sleep d ->
                (* The saved state returns 0 from the sleep call, so a
                   woken — or captured-and-grafted — sleeper resumes past
                   it.  No fuel, like any park. *)
                Core.sleep c n { st with control = Creturn (Int 0) } d
            | Machine.Esc_span_begin name ->
                (* The id is program-visible, so it is allocated whether
                   or not a trace handle is attached (from the handle so
                   flight dumps and live traces agree, or from a local
                   counter).  No fuel: like fork/future, an interception
                   rather than a machine transition. *)
                let id =
                  match obs with
                  | Some o -> Obs.Span.begin_ o ~pid:n.nid ~parent:!cur_span name
                  | None ->
                      incr span_ctr;
                      !span_ctr
                in
                Hashtbl.replace span_parent id !cur_span;
                cur_span := id;
                go { st with control = Creturn (Int id) } (q - 1)
            | Machine.Esc_span_end id ->
                (match obs with
                | None -> ()
                | Some o -> Obs.Span.end_ o ~pid:n.nid id);
                if !cur_span = id then
                  cur_span :=
                    (match Hashtbl.find_opt span_parent id with
                    | Some parent -> parent
                    | None -> -1);
                Hashtbl.remove span_parent id;
                go { st with control = Creturn Unit } (q - 1)
            | _ -> (
                decr fuel_left;
                match s with
                | Machine.Final v -> Core.deliver c n v
                | Machine.Err msg -> failure := Some msg
                | Machine.Esc_control (l, body_fn) -> do_capture n st l body_fn
                | Machine.Esc_pktree (pkt, v) -> do_graft n st pkt v
                | Machine.Next _ | Machine.Esc_fork _ | Machine.Esc_future _
                | Machine.Esc_touch _ | Machine.Esc_sleep _
                | Machine.Esc_span_begin _ | Machine.Esc_span_end _ ->
                    assert false))
    in
    (* The slice is charged the fuel its machine transitions used, so
       Chrome-trace slice widths are proportional to machine work. *)
    Core.slice_begin c n;
    let fuel0 = !fuel_left in
    go st quantum;
    Core.slice_end c n (fuel0 - !fuel_left);
    if !failure <> None || !fuel_left <= 0 then Core.halt c
  in

  let rec drive () =
    match (Core.final c, !failure) with
    | _, Some msg -> Error msg
    | Some v, None ->
        (* Join-on-exit: finish the remaining independent trees so futures
           created by this program remain touchable afterwards (bounded by
           the remaining fuel).  Stop at quiescence: a future tree parked
           forever (e.g. on a cell nothing will resolve) empties the
           queue, and spinning on it would never terminate — but a tree
           that is merely sleeping is not quiescent: the clock jumps and
           the drain continues. *)
        if drain_futures && !live_futures > 0 && !fuel_left > 0 && Core.advance c step
        then drive ()
        else Value v
    | None, None ->
        if !fuel_left <= 0 then Out_of_fuel
        else if Core.advance c step then drive ()
        else Deadlock (Core.deadlock_msg c)
  in
  Fun.protect ~finally:(fun () -> cfg.Machine.metrics <- saved_metrics) drive
