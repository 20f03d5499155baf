module Json = Obs.Json
module Event = Obs.Event

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                  *)
(* ------------------------------------------------------------------ *)

module Check = struct
  type violation = { v_seq : int; v_rule : string; v_msg : string }

  let rules =
    [
      ("seq-dense", "sequence numbers are base,base+1,... in file order");
      ("ts-monotone", "timestamps never decrease");
      ("slice-balance", "slice begin/end pairs balance, one open at a time");
      ("slice-time", "a slice's extent equals max(fuel,1)");
      ("spawn-unique", "each pid is spawned once and referenced only after");
      ("exit-once", "a pid exits once and emits nothing after death");
      ("park-pairing", "parks and wakes alternate with matching resources");
      ("capture-consistency", "captures prune live ancestors; reinstates match");
      ("deadlock-count", "deadlock parked count matches live parked processes");
      ( "cancel-propagation-complete",
        "a cancel discards every live non-future descendant of its scope" );
      ( "restart-intensity-bounded",
        "restart attempts stay within the declared intensity limit" );
      ( "no-orphan-waiters",
        "no fiber ends the run parked under a cancelled or pruned ancestor" );
      ( "span-balance",
        "span ids begin once; ends match an open begin by a known pid" );
    ]

  type status = Live | Exited | Pruned | Cancelled

  type pstate = {
    ps_parent : int;
    ps_kind : string;
    mutable ps_children : int list;
    mutable ps_status : status;
    mutable ps_parked : string option;
    mutable ps_park_unknown : bool;
        (** pre-window node whose park state at the cut is unknowable:
            the first in-window park or wake just resolves it *)
  }

  let run (events : Trace.stamped array) =
    let out = ref [] in
    let violate seq rule msg = out := { v_seq = seq; v_rule = rule; v_msg = msg } :: !out in
    let prev_ts = ref min_int in
    (* A nonzero base seq marks a flight-recorder window into the middle
       of a run.  Everything the window can prove is still checked, but
       obligations that need pre-window state — references to pids
       spawned before the cut, the slice/park state at the cut,
       pre-window captures and span begins, the deadlock census, the
       end-of-run quiescence checks — are relaxed rather than reported
       as false positives. *)
    let window = Array.length events > 0 && events.(0).Trace.seq > 0 in
    (* per-run state, reset at each root spawn *)
    let nodes : (int, pstate) Hashtbl.t = Hashtbl.create 64 in
    let labels : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    let open_slice = ref None in
    let n_parked = ref 0 in
    (* one stray slice end is legitimate at the top of a window: the
       slice it closes began before the cut *)
    let stray_end_ok = ref window in
    let reset_run seq =
      (match !open_slice with
      | Some (pid, _) ->
          violate seq "slice-balance"
            (Printf.sprintf "slice of pid %d still open at run boundary" pid)
      | None -> ());
      open_slice := None;
      stray_end_ok := false;
      Hashtbl.reset nodes;
      Hashtbl.reset labels;
      n_parked := 0
    in
    (* a pid first referenced mid-window was spawned before the cut:
       parent, ancestry and park state are unknowable *)
    let register_pre pid =
      let ps =
        { ps_parent = -2; ps_kind = "pre-window"; ps_children = [];
          ps_status = Live; ps_parked = None; ps_park_unknown = true }
      in
      Hashtbl.add nodes pid ps;
      ps
    in
    let find pid = Hashtbl.find_opt nodes pid in
    let rec is_ancestor anc pid =
      (* strict: anc is a proper ancestor of pid *)
      match find pid with
      | None -> false
      | Some ps -> ps.ps_parent = anc || (ps.ps_parent >= 0 && is_ancestor anc ps.ps_parent)
    in
    let rec prune_descendants pid =
      match find pid with
      | None -> ()
      | Some ps ->
          List.iter
            (fun c ->
              match find c with
              (* futures are independent trees: control operations in the
                 planting tree never discard them *)
              | Some cs when cs.ps_status = Live && cs.ps_kind <> "future" ->
                  (match cs.ps_parked with
                  | Some _ ->
                      cs.ps_parked <- None;
                      decr n_parked
                  | None -> ());
                  cs.ps_status <- Pruned;
                  prune_descendants c
              | _ -> ())
            ps.ps_children
    in
    (* A fiber still parked while some ancestor was cancelled or
       capture-pruned can never be woken by its (discarded) tree: it is
       leaked.  Checked at every quiescence point — deadlock, run
       boundary, end of trace. *)
    let scan_orphans seq =
      let dead_above pid =
        let rec go p =
          match find p with
          | None -> None
          | Some ps -> (
              match ps.ps_status with
              | Cancelled | Pruned -> Some p
              | Live | Exited -> if ps.ps_parent >= 0 then go ps.ps_parent else None)
        in
        match find pid with
        | Some ps when ps.ps_parent >= 0 -> go ps.ps_parent
        | _ -> None
      in
      Hashtbl.fold (fun pid ps acc -> (pid, ps) :: acc) nodes []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (pid, ps) ->
             match (ps.ps_status, ps.ps_parked) with
             | Live, Some r -> (
                 match dead_above pid with
                 | Some anc ->
                     violate seq "no-orphan-waiters"
                       (Printf.sprintf
                          "pid %d still parked on %s under dead ancestor %d" pid r
                          anc)
                 | None -> ())
             | _ -> ())
    in
    (* A dead (exited or pruned) pid may still close the slice it had
       open when it died; anything else is a violation. *)
    let check_alive seq pid what =
      match find pid with
      | None ->
          if window then (
            ignore (register_pre pid);
            true)
          else begin
            violate seq "spawn-unique"
              (Printf.sprintf "%s references pid %d, never spawned in this run" what
                 pid);
            false
          end
      | Some ps -> (
          match ps.ps_status with
          | Live -> true
          | Exited ->
              violate seq "exit-once" (Printf.sprintf "%s by exited pid %d" what pid);
              false
          | Pruned ->
              violate seq "exit-once" (Printf.sprintf "%s by pruned pid %d" what pid);
              false
          | Cancelled ->
              violate seq "exit-once"
                (Printf.sprintf "%s by cancelled pid %d" what pid);
              false)
    in
    let check_not_parked seq pid what =
      match find pid with
      | Some { ps_parked = Some r; _ } ->
          violate seq "park-pairing"
            (Printf.sprintf "%s by pid %d while parked on %s" what pid r)
      | _ -> ()
    in
    (* span ids are allocated per handle, never reset across runs, so
       the begin/end bookkeeping is global rather than per-run state *)
    let span_seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let span_open : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    (* flight-recorder dumps are trace suffixes: seq numbers stay dense
       but start wherever the ring's oldest surviving event fell *)
    let seq_base = if Array.length events = 0 then 0 else events.(0).Trace.seq in
    Array.iteri
      (fun i s ->
        let seq = s.Trace.seq in
        if seq <> seq_base + i then
          violate seq "seq-dense"
            (Printf.sprintf "event %d carries seq %d (base %d)" i seq seq_base);
        if s.Trace.ts < !prev_ts then
          violate seq "ts-monotone"
            (Printf.sprintf "ts %d after ts %d" s.Trace.ts !prev_ts);
        prev_ts := max !prev_ts s.Trace.ts;
        (* One spawned node, whether announced individually or inside a
           batch: the same spawn-unique obligations apply to each. *)
        let spawn_node seq pid parent kind =
          match find pid with
          | Some _ ->
              violate seq "spawn-unique"
                (Printf.sprintf "pid %d spawned twice in one run" pid)
          | None ->
              if parent <> -1 then (
                match find parent with
                | None ->
                    if window then
                      (register_pre parent).ps_children <- [ pid ]
                    else
                      violate seq "spawn-unique"
                        (Printf.sprintf "pid %d spawned by unknown parent %d" pid parent)
                | Some ps ->
                    (match ps.ps_status with
                    | Live -> ()
                    | Exited | Pruned | Cancelled ->
                        violate seq "spawn-unique"
                          (Printf.sprintf "pid %d spawned by dead parent %d (%s)" pid
                             parent kind));
                    ps.ps_children <- ps.ps_children @ [ pid ]);
              Hashtbl.add nodes pid
                { ps_parent = parent; ps_kind = kind; ps_children = [];
                  ps_status = Live; ps_parked = None; ps_park_unknown = false }
        in
        match s.Trace.ev with
        | Event.Spawn { pid; parent; kind } ->
            if parent = -1 then begin
              (* the previous run is over: anything still parked under a
                 cancelled/pruned ancestor stayed parked forever *)
              scan_orphans seq;
              reset_run seq
            end;
            spawn_node seq pid parent kind
        | Event.Spawn_batch { kind; nodes = batch; _ } ->
            (* pre-order: parents must already be known (or earlier in the
               batch), so the per-node checks run in listed order *)
            Array.iter (fun (pid, parent) -> spawn_node seq pid parent kind) batch
        | Event.Exit { pid } ->
            if check_alive seq pid "exit" then begin
              check_not_parked seq pid "exit";
              (Option.get (find pid)).ps_status <- Exited
            end
        | Event.Slice_begin { pid } ->
            (match !open_slice with
            | Some (opid, _) ->
                violate seq "slice-balance"
                  (Printf.sprintf "slice begin for pid %d while pid %d's slice is open"
                     pid opid)
            | None -> ());
            if check_alive seq pid "slice begin" then
              check_not_parked seq pid "slice begin";
            stray_end_ok := false;
            open_slice := Some (pid, s.Trace.ts)
        | Event.Slice_end { pid; fuel } -> (
            match !open_slice with
            | None ->
                (* the begin (and its ts, so slice-time too) predates a
                   window's cut — legitimate exactly once, at the top *)
                if !stray_end_ok then stray_end_ok := false
                else
                  violate seq "slice-balance"
                    (Printf.sprintf "slice end for pid %d with no slice open" pid)
            | Some (opid, ots) ->
                if opid <> pid then
                  violate seq "slice-balance"
                    (Printf.sprintf "slice end for pid %d closes pid %d's slice" pid opid)
                else begin
                  let extent = s.Trace.ts - ots in
                  let want = max fuel 1 in
                  if extent <> want then
                    violate seq "slice-time"
                      (Printf.sprintf
                         "slice of pid %d spans %d virtual time for fuel %d (want %d)"
                         pid extent fuel want)
                end;
                open_slice := None)
        | Event.Park { pid; resource } ->
            if check_alive seq pid "park" then begin
              let ps = Option.get (find pid) in
              ps.ps_park_unknown <- false;
              match ps.ps_parked with
              | Some r ->
                  violate seq "park-pairing"
                    (Printf.sprintf "pid %d parked on %s while already parked on %s" pid
                       resource r)
              | None ->
                  ps.ps_parked <- Some resource;
                  incr n_parked
            end
        | Event.Wake { pid; resource } ->
            if check_alive seq pid "wake" then begin
              let ps = Option.get (find pid) in
              match ps.ps_parked with
              | None ->
                  (* a pre-window pid's first wake matches a park before
                     the cut; after that its state is tracked exactly *)
                  if ps.ps_park_unknown then ps.ps_park_unknown <- false
                  else
                    violate seq "park-pairing"
                      (Printf.sprintf
                         "wake for pid %d, which is not parked (double wake?)" pid)
              | Some r ->
                  if r <> resource then
                    violate seq "park-pairing"
                      (Printf.sprintf "pid %d parked on %s but woken on %s" pid r resource);
                  ps.ps_parked <- None;
                  decr n_parked
            end
        | Event.Capture { pid; label; root_pid; size; _ } ->
            if check_alive seq pid "capture" then begin
              check_not_parked seq pid "capture";
              (match find root_pid with
              | None ->
                  if window then ignore (register_pre root_pid)
                  else
                    violate seq "capture-consistency"
                      (Printf.sprintf "capture at unknown root pid %d" root_pid)
              | Some rs ->
                  if rs.ps_status <> Live then
                    violate seq "capture-consistency"
                      (Printf.sprintf "capture at dead root pid %d" root_pid)
                  else if not (is_ancestor root_pid pid) && not window then
                    (* in a window the ancestor chain can pass through
                       pre-window nodes whose parents are unknowable *)
                    violate seq "capture-consistency"
                      (Printf.sprintf "capture root pid %d is not an ancestor of pid %d"
                         root_pid pid));
              prune_descendants root_pid;
              let sizes =
                match Hashtbl.find_opt labels label with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add labels label r;
                    r
              in
              sizes := size :: !sizes
            end
        | Event.Reinstate { pid; label; size } ->
            if check_alive seq pid "reinstate" then begin
              check_not_parked seq pid "reinstate";
              match Hashtbl.find_opt labels label with
              | None ->
                  if not window then
                    violate seq "capture-consistency"
                      (Printf.sprintf "reinstate of label %d, never captured in this run"
                         label)
              | Some sizes ->
                  if not (List.mem size !sizes) then
                    violate seq "capture-consistency"
                      (Printf.sprintf
                         "reinstate of label %d with size %d, no matching capture" label
                         size)
            end
        | Event.Send { pid; _ } ->
            if check_alive seq pid "send" then check_not_parked seq pid "send"
        | Event.Recv { pid; _ } ->
            if check_alive seq pid "recv" then check_not_parked seq pid "recv"
        | Event.Cancel { pid; scope; reason = _; pids } ->
            ignore (check_alive seq pid "cancel");
            (match find scope with
            | None ->
                if window then ignore (register_pre scope)
                else
                  violate seq "cancel-propagation-complete"
                    (Printf.sprintf "cancel of unknown scope pid %d" scope)
            | Some ss ->
                if ss.ps_status <> Live then
                  violate seq "cancel-propagation-complete"
                    (Printf.sprintf "cancel of dead scope pid %d" scope));
            Array.iter
              (fun q ->
                if q <> scope && not (is_ancestor scope q) && not window then
                  violate seq "cancel-propagation-complete"
                    (Printf.sprintf
                       "cancel of scope %d lists pid %d, not a descendant" scope q);
                match find q with
                | Some qs when qs.ps_status = Live ->
                    (match qs.ps_parked with
                    | Some _ ->
                        qs.ps_parked <- None;
                        decr n_parked
                    | None -> ());
                    qs.ps_status <- Cancelled
                | Some _ ->
                    violate seq "cancel-propagation-complete"
                      (Printf.sprintf "cancel of scope %d lists dead pid %d" scope q)
                | None ->
                    if window then (register_pre q).ps_status <- Cancelled
                    else
                      violate seq "cancel-propagation-complete"
                        (Printf.sprintf "cancel of scope %d lists unknown pid %d" scope
                           q))
              pids;
            (* completeness: the whole scope subtree must now be dead,
               futures (independent trees) excepted *)
            let rec check_empty p =
              match find p with
              | None -> ()
              | Some ps ->
                  List.iter
                    (fun c ->
                      match find c with
                      | Some cs when cs.ps_kind <> "future" ->
                          if cs.ps_status = Live then
                            violate seq "cancel-propagation-complete"
                              (Printf.sprintf
                                 "pid %d still live after cancel of scope %d" c scope);
                          check_empty c
                      | _ -> ())
                    ps.ps_children
            in
            check_empty scope
        | Event.Timeout { pid; _ } -> ignore (check_alive seq pid "timeout")
        | Event.Crash { pid; _ } ->
            if pid >= 0 then ignore (check_alive seq pid "crash")
        | Event.Restart { pid; child; attempt; backoff = _; limit } ->
            ignore (check_alive seq pid "restart");
            if find child = None then
              if window then ignore (register_pre child)
              else
                violate seq "restart-intensity-bounded"
                  (Printf.sprintf "restart references unknown child pid %d" child);
            if attempt < 1 || attempt > limit then
              violate seq "restart-intensity-bounded"
                (Printf.sprintf "restart attempt %d outside window limit %d" attempt
                   limit)
        | Event.Invalid_controller { pid; _ } -> ignore (check_alive seq pid "controller")
        | Event.Span_begin { pid; span; _ } ->
            if pid >= 0 then ignore (check_alive seq pid "span begin");
            if Hashtbl.mem span_seen span then
              violate seq "span-balance"
                (Printf.sprintf "span id %d begun twice" span)
            else begin
              Hashtbl.add span_seen span ();
              Hashtbl.add span_open span ()
            end
        | Event.Span_end { pid; span } ->
            if pid >= 0 then ignore (check_alive seq pid "span end");
            if Hashtbl.mem span_open span then Hashtbl.remove span_open span
            else if window && not (Hashtbl.mem span_seen span) then
              (* begun before the cut; remember the id so an in-window
                 double end is still caught *)
              Hashtbl.add span_seen span ()
            else
              violate seq "span-balance"
                (Printf.sprintf "span end for id %d with no open begin" span)
        | Event.Deadlock { parked } ->
            (* a window's park census misses fibers parked at the cut *)
            if parked <> !n_parked && not window then
              violate seq "deadlock-count"
                (Printf.sprintf "deadlock reports %d parked, trace shows %d" parked
                   !n_parked))
      events;
    (* a window's last event is wherever the ring stopped — mid-run, so
       the end-of-trace quiescence obligations do not apply.  Likewise a
       trace that ends at a crash: that is a flight dump's cut point
       (the recorder dumps the moment the Crash passes through), and the
       interrupted slice is still open. *)
    let crash_cut =
      Array.length events > 0
      &&
      match events.(Array.length events - 1).Trace.ev with
      | Event.Crash _ -> true
      | _ -> false
    in
    if not (window || crash_cut) then begin
      (match !open_slice with
      | Some (pid, _) ->
          violate (-1) "slice-balance"
            (Printf.sprintf "slice of pid %d still open at end of trace" pid)
      | None -> ());
      scan_orphans (-1)
    end;
    List.rev !out

  let to_json vs =
    Json.Arr
      (List.map
         (fun v ->
           Json.Obj
             [
               ("seq", Json.Num (float_of_int v.v_seq));
               ("rule", Json.Str v.v_rule);
               ("msg", Json.Str v.v_msg);
             ])
         vs)

  let pp ppf vs =
    match vs with
    | [] -> Format.fprintf ppf "ok: no invariant violations@."
    | vs ->
        List.iter
          (fun v ->
            Format.fprintf ppf "violation [%s] seq=%d: %s@." v.v_rule v.v_seq v.v_msg)
          vs;
        Format.fprintf ppf "%d violation(s)@." (List.length vs)
end

(* ------------------------------------------------------------------ *)
(* Causal report                                                       *)
(* ------------------------------------------------------------------ *)

module Jain = struct
  (* All-float, so the record is flat and [add] allocates nothing. *)
  type t = { mutable n : float; mutable s : float; mutable s2 : float }

  let create () = { n = 0.; s = 0.; s2 = 0. }

  let add t x =
    t.n <- t.n +. 1.;
    t.s <- t.s +. x;
    t.s2 <- t.s2 +. (x *. x)

  let index t = if t.n = 0. || t.s2 <= 0. then 1. else t.s *. t.s /. (t.n *. t.s2)
end

module Report = struct
  type proc = {
    p_pid : int;
    p_kind : string;
    p_slices : int;
    p_fuel : int;
    p_run : int;
    p_blocked : int;
    p_util : float;
  }

  type hop = { h_pid : int; h_enter : int; h_leave : int; h_via : string }

  type span_row = {
    sp_name : string;
    sp_count : int;
    sp_open : int;
    sp_total : int;
    sp_mean : float;
    sp_max : int;
    sp_on_path : int;
  }

  type t = {
    r_events : int;
    r_span : int;
    r_procs : proc list;
    r_kinds : (string * int) list;
    r_fairness : float;
    r_blocked : (string * int) list;
    r_captures : int;
    r_cp_per_capture : float;
    r_size_per_capture : float;
    r_reinstates : int;
    r_critical : hop list;
    r_critical_time : int;
    r_spans : span_row list;
    r_deadlock : int option;
  }

  (* How a pid became runnable: the latest of its spawn, its wakes, its
     children's exits (a fork parent resumes when its last child
     delivers), the captures rooted at it (the controller body runs in
     the root's place) and its own previous slice ends (preemption)
     decides which earlier slice the critical path jumps to. *)
  type enabler =
    | En_spawn of string
    | En_wake of string
    | En_join
    | En_capture
    | En_end

  let critical_path (run : Trace.run) =
    let events = run.Trace.r_events in
    let slices = run.Trace.r_slices in
    let nslices = Array.length slices in
    if nslices = 0 then []
    else begin
      (* Per-pid enabling events, in index order. *)
      let enablers : (int, (int * enabler) list ref) Hashtbl.t = Hashtbl.create 64 in
      let parents : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let push pid i e =
        match Hashtbl.find_opt enablers pid with
        | Some r -> r := (i, e) :: !r
        | None -> Hashtbl.add enablers pid (ref [ (i, e) ])
      in
      Array.iteri
        (fun i s ->
          match s.Trace.ev with
          | Event.Spawn { pid; parent; kind } ->
              Hashtbl.replace parents pid parent;
              push pid i (En_spawn kind)
          | Event.Spawn_batch { kind; nodes; _ } ->
              Array.iter
                (fun (pid, parent) ->
                  Hashtbl.replace parents pid parent;
                  push pid i (En_spawn kind))
                nodes
          | Event.Wake { pid; resource } -> push pid i (En_wake resource)
          | Event.Exit { pid } -> (
              match Hashtbl.find_opt parents pid with
              | Some p when p >= 0 -> push p i En_join
              | _ -> ())
          | Event.Capture { root_pid; _ } -> push root_pid i En_capture
          | Event.Slice_end { pid; _ } -> push pid i En_end
          | _ -> ())
        events;
      let enablers =
        let t = Hashtbl.create (Hashtbl.length enablers) in
        Hashtbl.iter (fun pid r -> Hashtbl.add t pid (Array.of_list (List.rev !r))) enablers;
        t
      in
      (* Greatest enabling event of [pid] strictly before index [i]. *)
      let latest_before pid i =
        match Hashtbl.find_opt enablers pid with
        | None -> None
        | Some arr ->
            let lo = ref 0 and hi = ref (Array.length arr) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if fst arr.(mid) < i then lo := mid + 1 else hi := mid
            done;
            if !lo = 0 then None else Some arr.(!lo - 1)
      in
      let hops = ref [] in
      let rec walk sidx =
        let sl = slices.(sidx) in
        let enter = sl.Trace.sl_begin_ts and leave = sl.Trace.sl_end_ts in
        let continue via = hops := (sl.Trace.sl_pid, enter, leave, via) :: !hops in
        let hop via i =
          continue via;
          let prev = run.Trace.r_actor.(i) in
          if prev >= 0 && prev < sidx then walk prev
        in
        match latest_before sl.Trace.sl_pid sl.Trace.sl_begin with
        | None -> continue "start"
        | Some (i, En_end) -> hop "preempt" i
        | Some (i, En_spawn kind) -> hop ("spawn:" ^ kind) i
        | Some (i, En_wake resource) -> hop ("wake:" ^ resource) i
        | Some (i, En_join) -> hop "join" i
        | Some (i, En_capture) -> hop "capture" i
      in
      walk (nslices - 1);
      List.map
        (fun (h_pid, h_enter, h_leave, h_via) -> { h_pid; h_enter; h_leave; h_via })
        !hops
    end

  let of_run (run : Trace.run) =
    let span = run.Trace.r_span in
    let procs =
      Array.to_list run.Trace.r_nodes
      |> List.map (fun n ->
             let blocked =
               List.fold_left (fun a (_, d) -> a + d) 0 n.Trace.n_blocked
             in
             {
               p_pid = n.Trace.n_pid;
               p_kind = n.Trace.n_kind;
               p_slices = n.Trace.n_slices;
               p_fuel = n.Trace.n_fuel;
               p_run = n.Trace.n_run;
               p_blocked = blocked;
               p_util =
                 (if span = 0 then 0.
                  else float_of_int n.Trace.n_run /. float_of_int span);
             })
    in
    let kinds =
      let tbl = Hashtbl.create 8 in
      Array.iter
        (fun n ->
          let k = n.Trace.n_kind in
          Hashtbl.replace tbl k
            (1 + match Hashtbl.find_opt tbl k with Some c -> c | None -> 0))
        run.Trace.r_nodes;
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let captures = ref 0 and cps = ref 0 and sizes = ref 0 and reinstates = ref 0 in
    Array.iter
      (fun s ->
        match s.Trace.ev with
        | Event.Capture { control_points; size; _ } ->
            incr captures;
            cps := !cps + control_points;
            sizes := !sizes + size
        | Event.Reinstate _ -> incr reinstates
        | _ -> ())
      run.Trace.r_events;
    let mean total n = if n = 0 then 0. else float_of_int total /. float_of_int n in
    let critical = critical_path run in
    (* Fold spans against the critical path: per name, closed-span
       duration stats plus the virtual time a critical hop ran while
       the span was open (how much of the span was load-bearing). *)
    let spans =
      let open_tbl : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
      let rows : (string, span_row ref * (int * int) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let row name =
        match Hashtbl.find_opt rows name with
        | Some r -> r
        | None ->
            let r =
              ( ref
                  { sp_name = name; sp_count = 0; sp_open = 0; sp_total = 0;
                    sp_mean = 0.; sp_max = 0; sp_on_path = 0 },
                ref [] )
            in
            Hashtbl.add rows name r;
            r
      in
      Array.iter
        (fun s ->
          match s.Trace.ev with
          | Event.Span_begin { span; name; _ } ->
              Hashtbl.replace open_tbl span (name, s.Trace.ts);
              let r, _ = row name in
              r := { !r with sp_count = !r.sp_count + 1 }
          | Event.Span_end { span; _ } -> (
              match Hashtbl.find_opt open_tbl span with
              | None -> ()
              | Some (name, t0) ->
                  Hashtbl.remove open_tbl span;
                  let d = s.Trace.ts - t0 in
                  let r, ivals = row name in
                  ivals := (t0, s.Trace.ts) :: !ivals;
                  r := { !r with sp_total = !r.sp_total + d; sp_max = max !r.sp_max d })
          | _ -> ())
        run.Trace.r_events;
      Hashtbl.iter
        (fun _ (name, _) ->
          let r, _ = row name in
          r := { !r with sp_open = !r.sp_open + 1 })
        open_tbl;
      let overlap a b =
        List.fold_left
          (fun acc h ->
            let lo = max a h.h_enter and hi = min b h.h_leave in
            acc + max 0 (hi - lo))
          0 critical
      in
      Hashtbl.fold
        (fun _ (r, ivals) out ->
          let closed = List.length !ivals in
          let on_path =
            List.fold_left (fun acc (a, b) -> acc + overlap a b) 0 !ivals
          in
          { !r with
            sp_mean =
              (if closed = 0 then 0.
               else float_of_int !r.sp_total /. float_of_int closed);
            sp_on_path = on_path }
          :: out)
        rows []
      |> List.sort (fun a b -> String.compare a.sp_name b.sp_name)
    in
    {
      r_events = Array.length run.Trace.r_events;
      r_span = span;
      r_procs = procs;
      r_kinds = kinds;
      r_fairness =
        (let j = Jain.create () in
         List.iter
           (fun p -> if p.p_slices > 0 then Jain.add j (float_of_int p.p_run))
           procs;
         Jain.index j);
      r_blocked = Trace.blocked_total run;
      r_captures = !captures;
      r_cp_per_capture = mean !cps !captures;
      r_size_per_capture = mean !sizes !captures;
      r_reinstates = !reinstates;
      r_critical = critical;
      r_critical_time =
        List.fold_left (fun a h -> a + (h.h_leave - h.h_enter)) 0 critical;
      r_spans = spans;
      r_deadlock = run.Trace.r_deadlock;
    }

  let of_trace events = Trace.runs events |> Array.to_list |> List.map Trace.reconstruct
                        |> List.map of_run

  let to_json r =
    let num n = Json.Num (float_of_int n) in
    Json.Obj
      [
        ("events", num r.r_events);
        ("span", num r.r_span);
        ("processes", num (List.length r.r_procs));
        ("kinds", Json.Obj (List.map (fun (k, c) -> (k, num c)) r.r_kinds));
        ("fairness", Json.Num r.r_fairness);
        ( "utilization",
          Json.Arr
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("pid", num p.p_pid);
                     ("kind", Json.Str p.p_kind);
                     ("slices", num p.p_slices);
                     ("fuel", num p.p_fuel);
                     ("run", num p.p_run);
                     ("blocked", num p.p_blocked);
                     ("util", Json.Num p.p_util);
                   ])
               r.r_procs) );
        ("blocked", Json.Obj (List.map (fun (k, d) -> (k, num d)) r.r_blocked));
        ( "captures",
          Json.Obj
            [
              ("count", num r.r_captures);
              ("control_points_mean", Json.Num r.r_cp_per_capture);
              ("size_mean", Json.Num r.r_size_per_capture);
              ("reinstates", num r.r_reinstates);
            ] );
        ( "critical_path",
          Json.Obj
            [
              ("time", num r.r_critical_time);
              ("hops", num (List.length r.r_critical));
              ( "path",
                Json.Arr
                  (List.map
                     (fun h ->
                       Json.Obj
                         [
                           ("pid", num h.h_pid);
                           ("enter", num h.h_enter);
                           ("leave", num h.h_leave);
                           ("via", Json.Str h.h_via);
                         ])
                     r.r_critical) );
            ] );
        ( "spans",
          Json.Arr
            (List.map
               (fun sp ->
                 Json.Obj
                   [
                     ("name", Json.Str sp.sp_name);
                     ("count", num sp.sp_count);
                     ("open", num sp.sp_open);
                     ("total", num sp.sp_total);
                     ("mean", Json.Num sp.sp_mean);
                     ("max", num sp.sp_max);
                     ("on_path", num sp.sp_on_path);
                   ])
               r.r_spans) );
        ( "deadlock",
          match r.r_deadlock with None -> Json.Null | Some p -> num p );
      ]

  let pp ?top ppf r =
    let pct part whole =
      if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole
    in
    Format.fprintf ppf "@[<v>run: %d events, span %d, %d processes (" r.r_events
      r.r_span (List.length r.r_procs);
    List.iteri
      (fun i (k, c) -> Format.fprintf ppf "%s%s %d" (if i > 0 then ", " else "") k c)
      r.r_kinds;
    Format.fprintf ppf ")@,fairness (Jain): %.3f" r.r_fairness;
    (match r.r_deadlock with
    | None -> ()
    | Some p -> Format.fprintf ppf "@,deadlock: %d process(es) left parked" p);
    Format.fprintf ppf "@,@,%8s %-10s %7s %9s %8s %8s %6s" "pid" "kind" "slices"
      "fuel" "run" "blocked" "util%";
    let shown, omitted =
      match top with
      | Some n when n >= 0 && List.length r.r_procs > n ->
          (* biggest consumers of virtual time first; ties by pid *)
          let sorted =
            List.stable_sort (fun a b -> compare (b.p_run, a.p_pid) (a.p_run, b.p_pid))
              r.r_procs
          in
          let rec take k = function
            | x :: rest when k > 0 -> x :: take (k - 1) rest
            | _ -> []
          in
          (take n sorted, List.length r.r_procs - n)
      | _ -> (r.r_procs, 0)
    in
    List.iter
      (fun p ->
        Format.fprintf ppf "@,%8d %-10s %7d %9d %8d %8d %6.1f" p.p_pid p.p_kind
          p.p_slices p.p_fuel p.p_run p.p_blocked (100. *. p.p_util))
      shown;
    if omitted > 0 then Format.fprintf ppf "@,  ... (%d more processes)" omitted;
    (match r.r_blocked with
    | [] -> ()
    | blocked ->
        Format.fprintf ppf "@,@,blocked time by resource:";
        List.iter
          (fun (res, d) ->
            Format.fprintf ppf "@,  %-14s %8d (%.1f%% of span)" res d (pct d r.r_span))
          blocked);
    if r.r_captures > 0 then
      Format.fprintf ppf
        "@,@,captures: %d (control points/capture %.1f, size/capture %.1f), \
         reinstates %d"
        r.r_captures r.r_cp_per_capture r.r_size_per_capture r.r_reinstates;
    (match r.r_spans with
    | [] -> ()
    | spans ->
        Format.fprintf ppf "@,@,spans: %-14s %6s %5s %8s %8s %8s %8s" "name" "count"
          "open" "total" "mean" "max" "on-path";
        List.iter
          (fun sp ->
            Format.fprintf ppf "@,       %-14s %6d %5d %8d %8.1f %8d %8d" sp.sp_name
              sp.sp_count sp.sp_open sp.sp_total sp.sp_mean sp.sp_max sp.sp_on_path)
          spans);
    Format.fprintf ppf "@,@,critical path: %d/%d of span on path (%.1f%%), %d hop(s)"
      r.r_critical_time r.r_span
      (pct r.r_critical_time r.r_span)
      (List.length r.r_critical);
    let hops = r.r_critical in
    let nh = List.length hops in
    List.iteri
      (fun i h ->
        if i < 12 || i >= nh - 4 then
          Format.fprintf ppf "@,  [ts %6d..%6d] pid %-5d %s" h.h_enter h.h_leave
            h.h_pid h.h_via
        else if i = 12 then Format.fprintf ppf "@,  ... (%d more hops)" (nh - 16))
      hops;
    Format.fprintf ppf "@]@."
end

(* ------------------------------------------------------------------ *)
(* Trace diff                                                          *)
(* ------------------------------------------------------------------ *)

module Diff = struct
  type divergence = {
    d_run : int;
    d_cpid : int;
    d_index : int;
    d_left : string option;
    d_right : string option;
  }

  type projection = {
    pr_global : string array;
    pr_pids : string array array;
    pr_resources : (string * string array) list;
  }

  (* The causal projection of one run: for each canonical pid (spawn
     order), its own sequence of scheduler-independent facts, a global
     stream for deadlock and pid-less crashes, and for each channel and
     waitset the global order of the operations on it. *)
  let project (events : Trace.stamped array) =
    let canon : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let streams : (int, string list ref) Hashtbl.t = Hashtbl.create 64 in
    let resources : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
    (* span ids are allocation-order artifacts; only names are
       scheduler-independent, so skeleton facts carry the name *)
    let span_names : (int, string) Hashtbl.t = Hashtbl.create 16 in
    let next = ref 0 in
    let cpid pid =
      match Hashtbl.find_opt canon pid with Some c -> c | None -> -2
    in
    let add tbl k item =
      match Hashtbl.find_opt tbl k with
      | Some r -> r := item :: !r
      | None -> Hashtbl.add tbl k (ref [ item ])
    in
    let push c item = add streams c item in
    let touch key op pid = add resources key (op ^ string_of_int (cpid pid)) in
    (* batched spawns expand exactly as the equivalent individual spawns
       would: same canonical-pid assignment order, same facts — so a
       batched trace and its unbatched twin have equal skeletons *)
    let spawn kind (pid, parent) =
      let c = !next in
      incr next;
      Hashtbl.replace canon pid c;
      push c
        (Printf.sprintf "spawn kind=%s parent=%d" kind
           (if parent = -1 then -1 else cpid parent))
    in
    Array.iter
      (fun s ->
        match s.Trace.ev with
        | Event.Spawn { pid; parent; kind } -> spawn kind (pid, parent)
        | Event.Spawn_batch { kind; nodes; _ } -> Array.iter (spawn kind) nodes
        | Event.Exit { pid } -> push (cpid pid) "exit"
        | Event.Capture { pid; label; _ } ->
            push (cpid pid) (Printf.sprintf "capture label=%d" label)
        | Event.Reinstate { pid; label; _ } ->
            push (cpid pid) (Printf.sprintf "reinstate label=%d" label)
        | Event.Send { pid; chan } ->
            push (cpid pid) (Printf.sprintf "send chan=%d" chan);
            touch (Printf.sprintf "c%d" chan) "!" pid
        | Event.Recv { pid; chan } ->
            push (cpid pid) (Printf.sprintf "recv chan=%d" chan);
            touch (Printf.sprintf "c%d" chan) "?" pid
        | Event.Cancel { pid; scope; reason; pids } ->
            (* canonical pids; virtual-time-free, so mirrored workloads on
               the two schedulers keep aligned skeletons *)
            push (cpid pid)
              (Printf.sprintf "cancel scope=%d reason=%s pids=[%s]" (cpid scope)
                 reason
                 (String.concat ";"
                    (Array.to_list
                       (Array.map (fun p -> string_of_int (cpid p)) pids))))
        | Event.Timeout { pid; _ } -> push (cpid pid) "timeout"
        | Event.Crash { pid; fault } ->
            push (if pid >= 0 then cpid pid else -1)
              (Printf.sprintf "crash fault=%s" fault)
        | Event.Restart { pid; child; attempt; backoff = _; limit } ->
            push (cpid pid)
              (Printf.sprintf "restart child=%d attempt=%d limit=%d" (cpid child)
                 attempt limit)
        | Event.Invalid_controller { pid; label } ->
            push (cpid pid) (Printf.sprintf "invalid-controller label=%d" label)
        | Event.Span_begin { pid; span; name; _ } ->
            Hashtbl.replace span_names span name;
            push (cpid pid) (Printf.sprintf "sb:%s" name)
        | Event.Span_end { pid; span } ->
            let name =
              match Hashtbl.find_opt span_names span with
              | Some n -> n
              | None -> "span"
            in
            push (cpid pid) (Printf.sprintf "se:%s" name)
        | Event.Deadlock { parked } -> push (-1) (Printf.sprintf "deadlock parked=%d" parked)
        | Event.Park { pid; resource } -> touch ("w" ^ resource) "p" pid
        | Event.Wake { pid; resource } -> touch ("w" ^ resource) "w" pid
        | Event.Slice_begin _ | Event.Slice_end _ -> ())
      events;
    let in_order r = Array.of_list (List.rev !r) in
    let stream c =
      match Hashtbl.find_opt streams c with Some r -> in_order r | None -> [||]
    in
    {
      pr_global = stream (-1);
      pr_pids = Array.init !next stream;
      pr_resources =
        Hashtbl.fold (fun k r acc -> (k, in_order r) :: acc) resources []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    }

  let diff_run d_run left right =
    let pl = project left and pr = project right in
    let stream p c =
      if c < 0 then p.pr_global
      else if c < Array.length p.pr_pids then p.pr_pids.(c)
      else [||]
    in
    let diverged = ref None in
    let cmp_stream c =
      if !diverged = None then begin
        let a = stream pl c and b = stream pr c in
        let la = Array.length a and lb = Array.length b in
        let i = ref 0 in
        while
          !diverged = None && (!i < la || !i < lb)
        do
          let get arr l = if !i < l then Some arr.(!i) else None in
          let x = get a la and y = get b lb in
          if x <> y then
            diverged :=
              Some { d_run; d_cpid = c; d_index = !i; d_left = x; d_right = y };
          incr i
        done
      end
    in
    cmp_stream (-1);
    for c = 0 to max (Array.length pl.pr_pids) (Array.length pr.pr_pids) - 1 do
      cmp_stream c
    done;
    !diverged

  let diff left right =
    let lruns = Trace.runs left and rruns = Trace.runs right in
    let nl = Array.length lruns and nr = Array.length rruns in
    let diverged = ref None in
    for r = 0 to max nl nr - 1 do
      if !diverged = None then
        if r >= nl then
          diverged :=
            Some
              { d_run = r; d_cpid = -1; d_index = 0; d_left = None;
                d_right = Some "run" }
        else if r >= nr then
          diverged :=
            Some
              { d_run = r; d_cpid = -1; d_index = 0; d_left = Some "run";
                d_right = None }
        else diverged := diff_run r lruns.(r) rruns.(r)
    done;
    !diverged

  let to_json = function
    | None -> Json.Obj [ ("aligned", Json.Bool true) ]
    | Some d ->
        let side = function None -> Json.Null | Some s -> Json.Str s in
        Json.Obj
          [
            ("aligned", Json.Bool false);
            ("run", Json.Num (float_of_int d.d_run));
            ("pid", Json.Num (float_of_int d.d_cpid));
            ("index", Json.Num (float_of_int d.d_index));
            ("left", side d.d_left);
            ("right", side d.d_right);
          ]

  let pp ppf = function
    | None -> Format.fprintf ppf "aligned: no causal divergence@."
    | Some d ->
        let side = function None -> "<absent>" | Some s -> s in
        Format.fprintf ppf
          "diverged at run %d, canonical pid %d, event %d:@,  left:  %s@,  right: %s@."
          d.d_run d.d_cpid d.d_index (side d.d_left) (side d.d_right)
end

(* ------------------------------------------------------------------ *)
(* Live snapshot (ptrace top)                                          *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  (* Incremental fold over a (possibly still growing) event stream:
     feed events as they arrive, render the current state at any time.
     Everything here is derived from events alone, so it works on a
     flight-recorder dump or a live tail equally, and it is the one
     derivation of every distribution the events carry. *)
  type t = {
    mutable sn_events : int;
    mutable sn_clock : int;
    mutable sn_spawned : int;
    mutable sn_exited : int;
    mutable sn_cancelled : int;
    mutable sn_crashes : int;
    mutable sn_parked : int;
    mutable sn_deadlock : int option;
    mutable sn_last_pid : int;
    parked_by : (string, int) Hashtbl.t;
    blocked_by : (string, int) Hashtbl.t;
    park_since : (int, string * int) Hashtbl.t;
    wake_at : (int, int) Hashtbl.t;
    open_spans : (int, string * int) Hashtbl.t;
    sn_mx : Obs.Metrics.t;
  }

  let create () =
    {
      sn_events = 0;
      sn_clock = 0;
      sn_spawned = 0;
      sn_exited = 0;
      sn_cancelled = 0;
      sn_crashes = 0;
      sn_parked = 0;
      sn_deadlock = None;
      sn_last_pid = -1;
      parked_by = Hashtbl.create 8;
      blocked_by = Hashtbl.create 8;
      park_since = Hashtbl.create 64;
      wake_at = Hashtbl.create 64;
      open_spans = Hashtbl.create 16;
      sn_mx = Obs.Metrics.create ();
    }

  let bump tbl k d =
    Hashtbl.replace tbl k
      (d + match Hashtbl.find_opt tbl k with Some v -> v | None -> 0)

  let feed t (s : Trace.stamped) =
    t.sn_events <- t.sn_events + 1;
    t.sn_clock <- max t.sn_clock s.Trace.ts;
    match s.Trace.ev with
    | Event.Spawn { parent; _ } ->
        t.sn_spawned <- t.sn_spawned + 1;
        (* A root spawn starts a run, whose pids are fresh: forget the
           last run's per-pid state.  Span ids belong to the handle and
           carry across runs. *)
        if parent = -1 then begin
          Hashtbl.reset t.park_since;
          Hashtbl.reset t.wake_at
        end
    | Event.Spawn_batch { nodes; _ } -> t.sn_spawned <- t.sn_spawned + Array.length nodes
    | Event.Exit _ -> t.sn_exited <- t.sn_exited + 1
    | Event.Slice_begin { pid } ->
        t.sn_last_pid <- pid;
        (match Hashtbl.find_opt t.wake_at pid with
        | Some wts ->
            Hashtbl.remove t.wake_at pid;
            Obs.Metrics.observe t.sn_mx "wake.to.run" (s.Trace.ts - wts)
        | None -> ())
    | Event.Slice_end { fuel; _ } -> Obs.Metrics.observe t.sn_mx "slice.fuel" fuel
    | Event.Park { pid; resource } ->
        t.sn_parked <- t.sn_parked + 1;
        bump t.parked_by resource 1;
        Hashtbl.replace t.park_since pid (resource, s.Trace.ts)
    | Event.Wake { pid; resource } ->
        t.sn_parked <- max 0 (t.sn_parked - 1);
        bump t.parked_by resource (-1);
        Hashtbl.replace t.wake_at pid s.Trace.ts;
        (match Hashtbl.find_opt t.park_since pid with
        | Some (r, since) ->
            Hashtbl.remove t.park_since pid;
            bump t.blocked_by r (s.Trace.ts - since)
        | None -> ())
    | Event.Cancel { pids; _ } ->
        t.sn_cancelled <- t.sn_cancelled + Array.length pids;
        Obs.Metrics.observe t.sn_mx "cancel.pids" (Array.length pids);
        Array.iter
          (fun pid ->
            match Hashtbl.find_opt t.park_since pid with
            | Some (r, since) ->
                Hashtbl.remove t.park_since pid;
                t.sn_parked <- max 0 (t.sn_parked - 1);
                bump t.parked_by r (-1);
                bump t.blocked_by r (s.Trace.ts - since)
            | None -> ())
          pids
    | Event.Crash _ -> t.sn_crashes <- t.sn_crashes + 1
    | Event.Deadlock { parked } -> t.sn_deadlock <- Some parked
    | Event.Span_begin { span; name; _ } ->
        Hashtbl.replace t.open_spans span (name, s.Trace.ts)
    | Event.Span_end { span; _ } -> (
        match Hashtbl.find_opt t.open_spans span with
        | Some (_, t0) ->
            Hashtbl.remove t.open_spans span;
            Obs.Metrics.observe t.sn_mx "span.duration" (s.Trace.ts - t0)
        | None -> ())
    | Event.Capture { control_points; size; _ } ->
        Obs.Metrics.observe t.sn_mx "capture.control-points" control_points;
        Obs.Metrics.observe t.sn_mx "capture.size" size
    | Event.Reinstate _ | Event.Send _ | Event.Recv _ | Event.Timeout _
    | Event.Restart _ | Event.Invalid_controller _ ->
        ()

  let sink t =
    Obs.Sink.memory (fun (seq, ts, ev) -> feed t { Trace.seq; ts; ev })

  let metrics t = t.sn_mx

  let runnable t =
    max 0 (t.sn_spawned - t.sn_exited - t.sn_cancelled - t.sn_parked)

  let top_blocked ?(n = 5) t =
    Hashtbl.fold
      (fun r d acc ->
        let now = match Hashtbl.find_opt t.parked_by r with Some c -> c | None -> 0 in
        (r, d, now) :: acc)
      t.blocked_by []
    |> fun base ->
    (* resources currently parked on but never yet woken *)
    Hashtbl.fold
      (fun r c acc ->
        if c > 0 && not (Hashtbl.mem t.blocked_by r) then (r, 0, c) :: acc else acc)
      t.parked_by base
    |> List.sort (fun (ra, da, ca) (rb, db, cb) ->
           compare (db, cb, ra) (da, ca, rb))
    |> fun l ->
    let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> [] in
    take n l

  let pp ppf t =
    let q name p =
      match Obs.Metrics.find t.sn_mx name with
      | None -> Format.asprintf "%8s" "-"
      | Some sk -> Format.asprintf "%8.0f" (Obs.Metrics.Sketch.quantile sk p)
    in
    let qline name =
      Format.asprintf "p50 %s  p99 %s  p999 %s  (n=%d)" (q name 0.5) (q name 0.99)
        (q name 0.999)
        (match Obs.Metrics.find t.sn_mx name with
        | Some sk -> Obs.Metrics.Sketch.count sk
        | None -> 0)
    in
    Format.fprintf ppf "@[<v>clock %d  events %d  last pid %d%s@,"
      t.sn_clock t.sn_events t.sn_last_pid
      (match t.sn_deadlock with
      | Some p -> Printf.sprintf "  DEADLOCK(%d parked)" p
      | None -> "");
    Format.fprintf ppf
      "fibers: %d spawned  %d exited  %d cancelled  %d crashes  %d parked  ~%d runnable@,"
      t.sn_spawned t.sn_exited t.sn_cancelled t.sn_crashes t.sn_parked (runnable t);
    Format.fprintf ppf "slice fuel:    %s@," (qline "slice.fuel");
    Format.fprintf ppf "wake-to-run:   %s@," (qline "wake.to.run");
    Format.fprintf ppf "span duration: %s  (%d open)@," (qline "span.duration")
      (Hashtbl.length t.open_spans);
    (match top_blocked t with
    | [] -> ()
    | top ->
        Format.fprintf ppf "blocked resources (cumulative vt, now parked):@,";
        List.iter
          (fun (r, d, now) -> Format.fprintf ppf "  %-16s %10d %6d@," r d now)
          top);
    Format.fprintf ppf "@]"
end

(* ------------------------------------------------------------------ *)
(* SLO rollup.                                                         *)
(* ------------------------------------------------------------------ *)

module Slo = struct
  type scen = {
    sc_name : string;
    mutable sc_requests : int;
    mutable sc_completed : int;
    mutable sc_timedout : int;
    mutable sc_cancelled : int;
    mutable sc_crashed : int;
    mutable sc_open : int;
    sc_latency : Obs.Metrics.Sketch.t;
    sc_service : Obs.Metrics.Sketch.t;
  }

  type t = {
    slo_events : int;
    slo_span : int;
    slo_fairness : float;
    slo_scens : scen list;
  }

  (* The load generator's span conventions (see Pcont_load.Load): a
     request span is named after its scenario (no '/'); a
     "<scenario>/service" child covers the handler work; zero-length
     "<scenario>/timedout" / "/cancelled" / "/crashed" children mark
     the request's fate.  Everything else in the trace is ignored. *)

  let of_trace (events : Trace.stamped array) =
    let scens : (string, scen) Hashtbl.t = Hashtbl.create 8 in
    let scen name =
      match Hashtbl.find_opt scens name with
      | Some s -> s
      | None ->
          let s =
            {
              sc_name = name;
              sc_requests = 0;
              sc_completed = 0;
              sc_timedout = 0;
              sc_cancelled = 0;
              sc_crashed = 0;
              sc_open = 0;
              sc_latency = Obs.Metrics.Sketch.create ();
              sc_service = Obs.Metrics.Sketch.create ();
            }
          in
          Hashtbl.add scens name s;
          s
    in
    (* open span id -> (name, begin ts); request ids additionally map to
       their fate once a marker child lands *)
    let open_spans : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
    let fates : (int, string) Hashtbl.t = Hashtbl.create 64 in
    (* per-pid on-CPU virtual time for the fairness index *)
    let slice_open : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let on_cpu : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let first_ts = ref max_int and last_ts = ref min_int in
    Array.iter
      (fun s ->
        let ts = s.Trace.ts in
        if ts < !first_ts then first_ts := ts;
        if ts > !last_ts then last_ts := ts;
        match s.Trace.ev with
        | Obs.Event.Span_begin { span; parent; name; _ } -> (
            Hashtbl.replace open_spans span (name, ts);
            match String.index_opt name '/' with
            | None -> (scen name).sc_requests <- (scen name).sc_requests + 1
            | Some i -> (
                match String.sub name (i + 1) (String.length name - i - 1) with
                | ("timedout" | "cancelled" | "crashed") as fate ->
                    if parent >= 0 then Hashtbl.replace fates parent fate
                | _ -> ()))
        | Obs.Event.Span_end { span; _ } -> (
            match Hashtbl.find_opt open_spans span with
            | None -> ()
            | Some (name, t0) -> (
                Hashtbl.remove open_spans span;
                let d = ts - t0 in
                match String.index_opt name '/' with
                | None -> (
                    let sc = scen name in
                    match Hashtbl.find_opt fates span with
                    | None ->
                        sc.sc_completed <- sc.sc_completed + 1;
                        Obs.Metrics.Sketch.observe sc.sc_latency d
                    | Some "timedout" -> sc.sc_timedout <- sc.sc_timedout + 1
                    | Some "cancelled" -> sc.sc_cancelled <- sc.sc_cancelled + 1
                    | Some _ -> sc.sc_crashed <- sc.sc_crashed + 1)
                | Some i ->
                    if
                      String.sub name (i + 1) (String.length name - i - 1)
                      = "service"
                    then
                      Obs.Metrics.Sketch.observe
                        (scen (String.sub name 0 i)).sc_service d))
        | Obs.Event.Slice_begin { pid } -> Hashtbl.replace slice_open pid ts
        | Obs.Event.Slice_end { pid; _ } -> (
            match Hashtbl.find_opt slice_open pid with
            | None -> ()
            | Some t0 ->
                Hashtbl.remove slice_open pid;
                let prev =
                  Option.value ~default:0 (Hashtbl.find_opt on_cpu pid)
                in
                Hashtbl.replace on_cpu pid (prev + Stdlib.max (ts - t0) 1))
        | _ -> ())
      events;
    (* spans still open at end of trace: cancelled fibers never close
       theirs; count them per scenario *)
    Hashtbl.iter
      (fun span (name, _) ->
        if not (String.contains name '/') && not (Hashtbl.mem fates span) then begin
          let sc = scen name in
          sc.sc_open <- sc.sc_open + 1
        end)
      open_spans;
    let fairness = Jain.create () in
    Hashtbl.iter
      (fun _ v -> if v > 0 then Jain.add fairness (float_of_int v))
      on_cpu;
    {
      slo_events = Array.length events;
      slo_span =
        (if !last_ts >= !first_ts then !last_ts - !first_ts else 0);
      slo_fairness = Jain.index fairness;
      slo_scens =
        Hashtbl.fold (fun _ s acc -> s :: acc) scens []
        |> List.sort (fun a b -> compare a.sc_name b.sc_name);
    }

  let goodput t sc =
    if t.slo_span > 0 then
      float_of_int sc.sc_completed *. 1000. /. float_of_int t.slo_span
    else 0.

  type assertion = { a_scen : string option; a_q : float; a_limit : float }

  let parse_assert s =
    let scen, rest =
      match String.index_opt s ':' with
      | Some i ->
          ( Some (String.sub s 0 i),
            String.sub s (i + 1) (String.length s - i - 1) )
      | None -> (None, s)
    in
    if scen = Some "" then
      Error (Printf.sprintf "empty scenario prefix in %S" s)
    else
    match String.index_opt rest '<' with
    | Some i
      when i + 1 < String.length rest
           && rest.[i + 1] = '='
           && (String.sub rest 0 i = "p50"
              || String.sub rest 0 i = "p99"
              || String.sub rest 0 i = "p999") -> (
        let q =
          match String.sub rest 0 i with
          | "p50" -> 0.5
          | "p99" -> 0.99
          | _ -> 0.999
        in
        match
          float_of_string_opt (String.sub rest (i + 2) (String.length rest - i - 2))
        with
        | Some limit -> Ok { a_scen = scen; a_q = q; a_limit = limit }
        | None -> Error (Printf.sprintf "bad assertion limit in %S" s))
    | _ ->
        Error
          (Printf.sprintf
             "bad assertion %S (expected [scenario:]p50|p99|p999<=N)" s)

  let quantile_name q = if q = 0.5 then "p50" else if q = 0.99 then "p99" else "p999"

  let check latencies a =
    let applicable =
      List.filter
        (fun (name, _) -> match a.a_scen with Some n -> name = n | None -> true)
        latencies
    in
    if applicable = [] then
      [
        (match a.a_scen with
        | Some n -> Printf.sprintf "assert: no scenario %S in trace" n
        | None -> "assert: no request spans in trace");
      ]
    else
      List.filter_map
        (fun (name, sk) ->
          let v = Obs.Metrics.Sketch.quantile sk a.a_q in
          if v > a.a_limit then
            Some
              (Printf.sprintf "assert failed: %s %s = %.0f > %.0f" name
                 (quantile_name a.a_q) v a.a_limit)
          else None)
        applicable

  let scen_json t sc =
    Json.Obj
      [
        ("scenario", Json.Str sc.sc_name);
        ("requests", Json.Num (float_of_int sc.sc_requests));
        ("completed", Json.Num (float_of_int sc.sc_completed));
        ("timedout", Json.Num (float_of_int sc.sc_timedout));
        ("cancelled", Json.Num (float_of_int sc.sc_cancelled));
        ("crashed", Json.Num (float_of_int sc.sc_crashed));
        ("open", Json.Num (float_of_int sc.sc_open));
        ("goodput_per_ktick", Json.Num (goodput t sc));
        ("latency", Obs.Metrics.Sketch.to_json sc.sc_latency);
        ("service", Obs.Metrics.Sketch.to_json sc.sc_service);
      ]

  let to_json t =
    Json.Obj
      [
        ("events", Json.Num (float_of_int t.slo_events));
        ("span", Json.Num (float_of_int t.slo_span));
        ("fairness", Json.Num t.slo_fairness);
        ("scenarios", Json.Arr (List.map (scen_json t) t.slo_scens));
      ]

  let pp ppf t =
    Format.fprintf ppf "@[<v>%d events over %d vticks, cpu fairness %.3f@,"
      t.slo_events t.slo_span t.slo_fairness;
    if t.slo_scens = [] then Format.fprintf ppf "no request spans@,"
    else begin
      Format.fprintf ppf "%-10s %8s %8s %8s %6s %9s %9s %9s %9s@," "scenario"
        "requests" "ok" "timedout" "open" "p50" "p99" "p999" "req/ktick";
      List.iter
        (fun sc ->
          let q p = Obs.Metrics.Sketch.quantile sc.sc_latency p in
          Format.fprintf ppf "%-10s %8d %8d %8d %6d %9.0f %9.0f %9.0f %9.2f@,"
            sc.sc_name sc.sc_requests sc.sc_completed sc.sc_timedout sc.sc_open
            (q 0.5) (q 0.99) (q 0.999) (goodput t sc))
        t.slo_scens
    end;
    Format.fprintf ppf "@]"
end
