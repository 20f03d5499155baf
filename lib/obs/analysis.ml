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

  (* The rules are assertions on the state each event meets, read from
     the model before it applies the event.  A window relaxes what needs
     pre-window state: references to pids spawned before the cut, the
     slice and park state at the cut, pre-window captures and span
     begins, the deadlock census, the end-of-run quiescence checks. *)
  let attach (m : Trace.model) =
    let out = ref [] in
    let violate seq rule msg = out := { v_seq = seq; v_rule = rule; v_msg = msg } :: !out in
    let find = Trace.Pids.find_opt m.m_nodes in
    (* per-run capture sizes by label, for reinstates to match *)
    let labels : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    (* one stray slice end is legitimate at the top of a window: the
       slice it closes began before the cut *)
    let stray_ok = ref true in
    let crash_cut = ref false in
    let rec is_ancestor anc pid =
      (* strict: anc is a proper ancestor of pid *)
      match find pid with
      | None -> false
      | Some n -> n.n_parent = anc || (n.n_parent >= 0 && is_ancestor anc n.n_parent)
    in
    (* A fiber still parked while some ancestor was cancelled or
       capture-pruned can never be woken by its (discarded) tree: it is
       leaked.  Checked at every quiescence point — deadlock, run
       boundary, end of trace. *)
    let scan_orphans seq =
      let rec dead_above p =
        match find p with
        | None -> None
        | Some a -> (
            match a.n_status with
            | Cancelled | Pruned -> Some p
            | Live | Exited -> if a.n_parent >= 0 then dead_above a.n_parent else None)
      in
      Trace.Pids.fold (fun pid n acc -> (pid, n) :: acc) m.m_nodes []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (pid, (n : Trace.node)) ->
             match (n.n_status, n.n_parked) with
             | Live, Some r when n.n_parent >= 0 -> (
                 match dead_above n.n_parent with
                 | Some anc ->
                     violate seq "no-orphan-waiters"
                       (Printf.sprintf "pid %d still parked on %s under dead ancestor %d" pid
                          r anc)
                 | None -> ())
             | _ -> ())
    in
    let open_slice_violation seq where =
      if m.m_open then
        violate seq "slice-balance"
          (Printf.sprintf "slice of pid %d still open at %s" m.m_open_pid where)
    in
    (* the event being checked: its seq, and whether the trace is a window *)
    let cur = ref 0 and win = ref false in
    (* A dead (exited or pruned) pid may still close the slice it had
       open when it died; anything else is a violation. *)
    let dead what how pid =
      violate !cur "exit-once" (Printf.sprintf "%s by %s pid %d" what how pid);
      false
    in
    let alive pid what =
      match find pid with
      | None ->
          !win
          || begin
               violate !cur "spawn-unique"
                 (Printf.sprintf "%s references pid %d, never spawned in this run" what pid);
               false
             end
      | Some n -> (
          match n.n_status with
          | Live -> true
          | Exited -> dead what "exited" pid
          | Pruned -> dead what "pruned" pid
          | Cancelled -> dead what "cancelled" pid)
    in
    let not_parked pid what =
      match find pid with
      | Some { n_parked = Some r; _ } ->
          violate !cur "park-pairing"
            (Printf.sprintf "%s by pid %d while parked on %s" what pid r)
      | _ -> ()
    in
    (* One spawned node, whether announced individually or inside a
       batch ([earlier]: the pids the batch spawned before it). *)
    let spawn_node kind earlier (pid, parent) =
      if find pid <> None || List.mem pid earlier then begin
        violate !cur "spawn-unique" (Printf.sprintf "pid %d spawned twice in one run" pid);
        earlier
      end
      else begin
        (if parent <> -1 && not (List.mem parent earlier) then
           match find parent with
           | None ->
               if not !win then
                 violate !cur "spawn-unique"
                   (Printf.sprintf "pid %d spawned by unknown parent %d" pid parent)
           | Some p ->
               if p.n_status <> Live then
                 violate !cur "spawn-unique"
                   (Printf.sprintf "pid %d spawned by dead parent %d (%s)" pid parent kind));
        pid :: earlier
      end
    in
    let observe (s : Trace.stamped) =
      let seq = s.seq and i = m.m_events in
      let window = if i = 0 then seq > 0 else m.m_window in
      cur := seq;
      win := window;
      (* flight-recorder dumps are trace suffixes: seq numbers stay dense
         but start wherever the ring's oldest surviving event fell *)
      let base = if i = 0 then seq else m.m_base in
      if seq <> base + i then
        violate seq "seq-dense" (Printf.sprintf "event %d carries seq %d (base %d)" i seq base);
      if s.ts < m.m_clock then
        violate seq "ts-monotone" (Printf.sprintf "ts %d after ts %d" s.ts m.m_clock);
      (match s.ev with
      | Event.Spawn { pid; parent; kind } ->
          if parent = -1 then begin
            (* the previous run is over: anything still parked under a
               cancelled/pruned ancestor stayed parked forever *)
            scan_orphans seq;
            open_slice_violation seq "run boundary";
            stray_ok := false;
            Hashtbl.reset labels
          end
          else ignore (spawn_node kind [] (pid, parent))
      | Event.Spawn_batch { kind; nodes; _ } ->
          (* pre-order: parents must already be known (or earlier in the
             batch) *)
          ignore (Array.fold_left (spawn_node kind) [] nodes)
      | Event.Exit { pid } -> if alive pid "exit" then not_parked pid "exit"
      | Event.Slice_begin { pid } ->
          if m.m_open then
            violate seq "slice-balance"
              (Printf.sprintf "slice begin for pid %d while pid %d's slice is open" pid
                 m.m_open_pid);
          if alive pid "slice begin" then not_parked pid "slice begin";
          stray_ok := false
      | Event.Slice_end { pid; fuel } ->
          if not m.m_open then
            (* the begin (and its ts, so slice-time too) predates a
               window's cut — legitimate exactly once, at the top *)
            if window && !stray_ok then stray_ok := false
            else
              violate seq "slice-balance"
                (Printf.sprintf "slice end for pid %d with no slice open" pid)
          else if m.m_open_pid <> pid then
            violate seq "slice-balance"
              (Printf.sprintf "slice end for pid %d closes pid %d's slice" pid m.m_open_pid)
          else if s.ts - m.m_open_ts <> max fuel 1 then
            violate seq "slice-time"
              (Printf.sprintf "slice of pid %d spans %d virtual time for fuel %d (want %d)" pid
                 (s.ts - m.m_open_ts) fuel (max fuel 1))
      | Event.Park { pid; resource } -> (
          if alive pid "park" then
            match find pid with
            | Some { n_parked = Some r; _ } ->
                violate seq "park-pairing"
                  (Printf.sprintf "pid %d parked on %s while already parked on %s" pid
                     resource r)
            | _ -> ())
      | Event.Wake { pid; resource } -> (
          if alive pid "wake" then
            match find pid with
            | Some { n_parked = Some r; _ } ->
                if r <> resource then
                  violate seq "park-pairing"
                    (Printf.sprintf "pid %d parked on %s but woken on %s" pid r resource)
            (* a pre-window pid's first wake matches a park before the
               cut; after that its state is tracked exactly *)
            | None | Some { n_park_unknown = true; _ } -> ()
            | Some _ ->
                violate seq "park-pairing"
                  (Printf.sprintf "wake for pid %d, which is not parked (double wake?)" pid))
      | Event.Capture { pid; label; root_pid; size; _ } ->
          if alive pid "capture" then begin
            not_parked pid "capture";
            (match find root_pid with
            | None ->
                if not window then
                  violate seq "capture-consistency"
                    (Printf.sprintf "capture at unknown root pid %d" root_pid)
            | Some r ->
                if r.n_status <> Live then
                  violate seq "capture-consistency"
                    (Printf.sprintf "capture at dead root pid %d" root_pid)
                else if not (is_ancestor root_pid pid) && not window then
                  (* in a window the ancestor chain can pass through
                     pre-window nodes whose parents are unknowable *)
                  violate seq "capture-consistency"
                    (Printf.sprintf "capture root pid %d is not an ancestor of pid %d"
                       root_pid pid));
            match Hashtbl.find_opt labels label with
            | Some r -> r := size :: !r
            | None -> Hashtbl.add labels label (ref [ size ])
          end
      | Event.Reinstate { pid; label; size } -> (
          if alive pid "reinstate" then begin
            not_parked pid "reinstate";
            match Hashtbl.find_opt labels label with
            | None ->
                if not window then
                  violate seq "capture-consistency"
                    (Printf.sprintf "reinstate of label %d, never captured in this run" label)
            | Some sizes ->
                if not (List.mem size !sizes) then
                  violate seq "capture-consistency"
                    (Printf.sprintf "reinstate of label %d with size %d, no matching capture"
                       label size)
          end)
      | Event.Send { pid; _ } -> if alive pid "send" then not_parked pid "send"
      | Event.Recv { pid; _ } -> if alive pid "recv" then not_parked pid "recv"
      | Event.Cancel { pid; scope; reason = _; pids } ->
          ignore (alive pid "cancel");
          (match find scope with
          | None ->
              if not window then
                violate seq "cancel-propagation-complete"
                  (Printf.sprintf "cancel of unknown scope pid %d" scope)
          | Some sc ->
              if sc.n_status <> Live then
                violate seq "cancel-propagation-complete"
                  (Printf.sprintf "cancel of dead scope pid %d" scope));
          (* [killed]: the pids this cancel discards, listed so far *)
          let killed =
            Array.fold_left
              (fun killed q ->
                if q <> scope && (not (is_ancestor scope q)) && not window then
                  violate seq "cancel-propagation-complete"
                    (Printf.sprintf "cancel of scope %d lists pid %d, not a descendant" scope q);
                let dead () =
                  violate seq "cancel-propagation-complete"
                    (Printf.sprintf "cancel of scope %d lists dead pid %d" scope q);
                  killed
                in
                if List.mem q killed then dead ()
                else
                  match find q with
                  | Some { n_status = Live; _ } -> q :: killed
                  | Some _ -> dead ()
                  | None ->
                      if window then q :: killed
                      else begin
                        violate seq "cancel-propagation-complete"
                          (Printf.sprintf "cancel of scope %d lists unknown pid %d" scope q);
                        killed
                      end)
              [] pids
          in
          (* completeness: the whole scope subtree must now be dead,
             futures (independent trees) excepted *)
          let rec check_empty p =
            Option.iter
              (fun (n : Trace.node) ->
                List.iter
                  (fun c ->
                    match find c with
                    | Some cn when cn.n_kind <> "future" ->
                        if cn.n_status = Live && not (List.mem c killed) then
                          violate seq "cancel-propagation-complete"
                            (Printf.sprintf "pid %d still live after cancel of scope %d" c
                               scope);
                        check_empty c
                    | _ -> ())
                  (List.rev n.n_children))
              (find p)
          in
          check_empty scope
      | Event.Timeout { pid; _ } -> ignore (alive pid "timeout")
      | Event.Crash { pid; _ } -> if pid >= 0 then ignore (alive pid "crash")
      | Event.Restart { pid; child; attempt; backoff = _; limit } ->
          ignore (alive pid "restart");
          if find child = None && not window then
            violate seq "restart-intensity-bounded"
              (Printf.sprintf "restart references unknown child pid %d" child);
          if attempt < 1 || attempt > limit then
            violate seq "restart-intensity-bounded"
              (Printf.sprintf "restart attempt %d outside window limit %d" attempt limit)
      | Event.Invalid_controller { pid; _ } -> ignore (alive pid "controller")
      | Event.Span_begin { pid; span; _ } ->
          if pid >= 0 then ignore (alive pid "span begin");
          if Hashtbl.mem m.m_spans span then
            violate seq "span-balance" (Printf.sprintf "span id %d begun twice" span)
      | Event.Span_end { pid; span } -> (
          if pid >= 0 then ignore (alive pid "span end");
          match Hashtbl.find_opt m.m_spans span with
          | Some { sp_open = true; _ } -> ()
          | None when window -> ()
          | _ ->
              violate seq "span-balance"
                (Printf.sprintf "span end for id %d with no open begin" span))
      | Event.Deadlock { parked } ->
          (* a window's park census misses fibers parked at the cut *)
          if parked <> m.m_parked && not window then
            violate seq "deadlock-count"
              (Printf.sprintf "deadlock reports %d parked, trace shows %d" parked m.m_parked));
      crash_cut := match s.ev with Event.Crash _ -> true | _ -> false
    in
    Trace.watch m observe;
    (* A window's last event is wherever the ring stopped — mid-run, so
       the end-of-trace quiescence obligations do not apply.  Likewise a
       trace that ends at a crash: that is a flight dump's cut point
       (the recorder dumps the moment the Crash passes through), and the
       interrupted slice is still open. *)
    fun () ->
      if not (m.m_window || !crash_cut) then begin
        open_slice_violation (-1) "end of trace";
        scan_orphans (-1)
      end;
      List.rev !out

  let run events =
    let m = Trace.model () in
    let finish = attach m in
    Array.iter (Trace.feed m) events;
    finish ()

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
     decides which earlier slice the critical path jumps to.  The walk
     scans back from each hop's begin to its enabler, and the slice open
     there begins before it, so the scans never overlap: one backward
     pass over the run. *)
  let critical_path (events : Trace.stamped array) (run : Trace.run) =
    let slices = run.r_slices in
    let rec enabler pid i =
      if i < 0 then None
      else
        match events.(run.r_start + i).ev with
        | Event.Spawn { pid = p; kind; _ } when p = pid -> Some (i, "spawn:" ^ kind)
        | Event.Spawn_batch { kind; nodes; _ } when Array.exists (fun (p, _) -> p = pid) nodes
          ->
            Some (i, "spawn:" ^ kind)
        | Event.Wake { pid = p; resource } when p = pid -> Some (i, "wake:" ^ resource)
        | Event.Exit { pid = c }
          when pid >= 0
               && match Trace.node_of run c with Some n -> n.n_parent = pid | None -> false ->
            Some (i, "join")
        | Event.Capture { root_pid; _ } when root_pid = pid -> Some (i, "capture")
        | Event.Slice_end { pid = p; _ } when p = pid -> Some (i, "preempt")
        | _ -> enabler pid (i - 1)
    in
    let hops = ref [] in
    let rec walk sidx =
      let sl = slices.(sidx) in
      let hop h_via =
        hops :=
          { h_pid = sl.sl_pid; h_enter = sl.sl_begin_ts; h_leave = sl.sl_end_ts; h_via }
          :: !hops
      in
      match enabler sl.sl_pid (sl.sl_begin - 1) with
      | None -> hop "start"
      | Some (i, via) ->
          hop via;
          let prev = Trace.actor run i in
          if prev >= 0 && prev < sidx then walk prev
    in
    if Array.length slices > 0 then walk (Array.length slices - 1);
    !hops

  (* What a run's events say beyond its tree: capture tallies, and per
     span name its begin count, closed intervals and open count. *)
  type tally = {
    mutable t_captures : int;
    mutable t_cps : int;
    mutable t_sizes : int;
    mutable t_reinstates : int;
    t_spans : (string, int ref * (int * int) list ref * int ref) Hashtbl.t;
  }

  let of_run events (run : Trace.run) t =
    let span = run.r_span in
    let procs =
      Array.to_list run.r_nodes
      |> List.map (fun (n : Trace.node) ->
             {
               p_pid = n.n_pid;
               p_kind = n.n_kind;
               p_slices = n.n_slices;
               p_fuel = n.n_fuel;
               p_run = n.n_run;
               p_blocked = List.fold_left (fun a (_, d) -> a + d) 0 (Trace.blocked run n);
               p_util = (if span = 0 then 0. else float_of_int n.n_run /. float_of_int span);
             })
    in
    let kinds =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun p ->
          Hashtbl.replace tbl p.p_kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl p.p_kind)))
        procs;
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let mean total n = if n = 0 then 0. else float_of_int total /. float_of_int n in
    let critical = critical_path events run in
    (* Spans against the critical path: per name, closed-span duration
       stats plus the virtual time a critical hop ran while the span was
       open (how much of the span was load-bearing). *)
    let overlap (a, b) =
      List.fold_left
        (fun acc h -> acc + max 0 (min b h.h_leave - max a h.h_enter))
        0 critical
    in
    let spans =
      Hashtbl.fold
        (fun name (count, ivals, opened) out ->
          let closed = List.length !ivals in
          let total = List.fold_left (fun a (t0, t1) -> a + (t1 - t0)) 0 !ivals in
          {
            sp_name = name;
            sp_count = !count;
            sp_open = !opened;
            sp_total = total;
            sp_mean = mean total closed;
            sp_max = List.fold_left (fun a (t0, t1) -> max a (t1 - t0)) 0 !ivals;
            sp_on_path = List.fold_left (fun a iv -> a + overlap iv) 0 !ivals;
          }
          :: out)
        t.t_spans []
      |> List.sort (fun a b -> String.compare a.sp_name b.sp_name)
    in
    {
      r_events = run.r_events;
      r_span = span;
      r_procs = procs;
      r_kinds = kinds;
      r_fairness =
        (let j = Jain.create () in
         List.iter (fun p -> if p.p_slices > 0 then Jain.add j (float_of_int p.p_run)) procs;
         Jain.index j);
      r_blocked = Trace.blocked_total run;
      r_captures = t.t_captures;
      r_cp_per_capture = mean t.t_cps t.t_captures;
      r_size_per_capture = mean t.t_sizes t.t_captures;
      r_reinstates = t.t_reinstates;
      r_critical = critical;
      r_critical_time = List.fold_left (fun a h -> a + (h.h_leave - h.h_enter)) 0 critical;
      r_spans = spans;
      r_deadlock = run.r_deadlock;
    }

  let of_trace events =
    let m = Trace.model () in
    let fresh () =
      { t_captures = 0; t_cps = 0; t_sizes = 0; t_reinstates = 0; t_spans = Hashtbl.create 8 }
    in
    let tallies = ref [] and t = ref (fresh ()) in
    let row name =
      match Hashtbl.find_opt !t.t_spans name with
      | Some r -> r
      | None ->
          let r = (ref 0, ref [], ref 0) in
          Hashtbl.add !t.t_spans name r;
          r
    in
    (* at a run's end, the spans it began that are still open *)
    let end_run () =
      Hashtbl.iter
        (fun _ (sp : Trace.span) ->
          if sp.sp_open && sp.sp_run = m.m_run then
            let _, _, opened = row sp.sp_name in
            incr opened)
        m.m_spans;
      tallies := !t :: !tallies;
      t := fresh ()
    in
    Trace.watch m (fun s ->
        match s.ev with
        | Event.Spawn { parent = -1; _ } -> if m.m_events > m.m_start then end_run ()
        | Event.Capture { control_points; size; _ } ->
            !t.t_captures <- !t.t_captures + 1;
            !t.t_cps <- !t.t_cps + control_points;
            !t.t_sizes <- !t.t_sizes + size
        | Event.Reinstate _ -> !t.t_reinstates <- !t.t_reinstates + 1
        | Event.Span_begin { name; _ } ->
            let count, _, _ = row name in
            incr count
        | Event.Span_end { span; _ } -> (
            match Hashtbl.find_opt m.m_spans span with
            | Some sp when sp.sp_open && sp.sp_run = m.m_run ->
                let _, ivals, _ = row sp.sp_name in
                ivals := (sp.sp_t0, s.ts) :: !ivals
            | _ -> ())
        | _ -> ());
    Array.iter (Trace.feed m) events;
    if m.m_events > m.m_start then end_run ();
    List.map2 (of_run events) (Array.to_list (Trace.runs m)) (List.rev !tallies)

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

  (* The causal projection of each run: for each canonical pid (the
     model's spawn order), its own sequence of scheduler-independent
     facts, a global stream for deadlock and pid-less crashes, and for
     each channel and waitset the global order of the operations on it. *)
  let attach (m : Trace.model) =
    let runs = ref [] in
    let streams : (int, string list ref) Hashtbl.t = Hashtbl.create 64 in
    let resources : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
    let add tbl k item =
      match Hashtbl.find_opt tbl k with
      | Some r -> r := item :: !r
      | None -> Hashtbl.add tbl k (ref [ item ])
    in
    let end_run () =
      let in_order r = Array.of_list (List.rev !r) in
      let stream c =
        match Hashtbl.find_opt streams c with Some r -> in_order r | None -> [||]
      in
      runs :=
        {
          pr_global = stream (-1);
          pr_pids = Array.init m.m_order stream;
          pr_resources =
            Hashtbl.fold (fun k r acc -> (k, in_order r) :: acc) resources []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        }
        :: !runs;
      Hashtbl.reset streams;
      Hashtbl.reset resources
    in
    Trace.watch m (fun s ->
        let cpid pid = match Trace.Pids.find_opt m.m_nodes pid with Some n -> n.n_order | None -> -2 in
        let push c item = add streams c item in
        let touch key op pid = add resources key (op ^ string_of_int (cpid pid)) in
        (* a batch expands exactly as the equivalent individual spawns
           would, so a batched trace and its unbatched twin have equal
           skeletons; [earlier] maps the pids the batch spawned so far *)
        let spawn kind earlier (pid, parent) =
          if Trace.Pids.find_opt m.m_nodes pid <> None || List.mem_assoc pid earlier then earlier
          else begin
            let c = m.m_order + List.length earlier in
            let cp =
              if parent = -1 then -1
              else match List.assoc_opt parent earlier with Some c -> c | None -> cpid parent
            in
            push c (Printf.sprintf "spawn kind=%s parent=%d" kind cp);
            (pid, c) :: earlier
          end
        in
        match s.ev with
        | Event.Spawn { pid = _; parent = -1; kind } ->
            if m.m_events > m.m_start then end_run ();
            push 0 (Printf.sprintf "spawn kind=%s parent=-1" kind)
        | Event.Spawn { pid; parent; kind } -> ignore (spawn kind [] (pid, parent))
        | Event.Spawn_batch { kind; nodes; _ } ->
            ignore (Array.fold_left (spawn kind) [] nodes)
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
              (Printf.sprintf "cancel scope=%d reason=%s pids=[%s]" (cpid scope) reason
                 (String.concat ";"
                    (Array.to_list (Array.map (fun p -> string_of_int (cpid p)) pids))))
        | Event.Timeout { pid; _ } -> push (cpid pid) "timeout"
        | Event.Crash { pid; fault } ->
            push (if pid >= 0 then cpid pid else -1) (Printf.sprintf "crash fault=%s" fault)
        | Event.Restart { pid; child; attempt; backoff = _; limit } ->
            push (cpid pid)
              (Printf.sprintf "restart child=%d attempt=%d limit=%d" (cpid child) attempt
                 limit)
        | Event.Invalid_controller { pid; label } ->
            push (cpid pid) (Printf.sprintf "invalid-controller label=%d" label)
        (* span ids are allocation-order artifacts; only names are
           scheduler-independent, so skeleton facts carry the name *)
        | Event.Span_begin { pid; name; _ } -> push (cpid pid) ("sb:" ^ name)
        | Event.Span_end { pid; span } ->
            let name =
              match Hashtbl.find_opt m.m_spans span with
              | Some sp when sp.sp_run = m.m_run -> sp.sp_name
              | _ -> "span"
            in
            push (cpid pid) ("se:" ^ name)
        | Event.Deadlock { parked } -> push (-1) (Printf.sprintf "deadlock parked=%d" parked)
        | Event.Park { pid; resource } -> touch ("w" ^ resource) "p" pid
        | Event.Wake { pid; resource } -> touch ("w" ^ resource) "w" pid
        | Event.Slice_begin _ | Event.Slice_end _ -> ());
    fun () ->
      if m.m_events > m.m_start then end_run ();
      Array.of_list (List.rev !runs)

  let project events =
    let m = Trace.model () in
    let finish = attach m in
    Array.iter (Trace.feed m) events;
    finish ()

  let diff_run d_run pl pr =
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
    let lruns = project left and rruns = project right in
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
  (* The model plus the distributions its events carry: feed events as
     they arrive, render the current state at any time.  Everything here
     is derived from events alone, so it works on a flight-recorder dump
     or a live tail equally, and it is the one derivation of every
     distribution the events carry. *)
  type t = {
    sn_model : Trace.model;
    mutable sn_crashes : int;
    mutable sn_deadlock : int option;
    mutable sn_last_pid : int;
    sn_mx : Obs.Metrics.t;
  }

  let create () =
    let m = Trace.model () in
    let t =
      { sn_model = m; sn_crashes = 0; sn_deadlock = None; sn_last_pid = -1;
        sn_mx = Obs.Metrics.create () }
    in
    let observe = Obs.Metrics.observe t.sn_mx in
    Trace.watch m (fun s ->
        match s.ev with
        | Event.Slice_begin { pid } -> (
            t.sn_last_pid <- pid;
            match Trace.Pids.find_opt m.m_nodes pid with
            | Some n when n.n_woken >= 0 -> observe "wake.to.run" (s.ts - n.n_woken)
            | _ -> ())
        | Event.Slice_end { fuel; _ } -> observe "slice.fuel" fuel
        | Event.Cancel { pids; _ } -> observe "cancel.pids" (Array.length pids)
        | Event.Crash _ -> t.sn_crashes <- t.sn_crashes + 1
        | Event.Deadlock { parked } -> t.sn_deadlock <- Some parked
        | Event.Span_end { span; _ } -> (
            match Hashtbl.find_opt m.m_spans span with
            | Some sp when sp.sp_open -> observe "span.duration" (s.ts - sp.sp_t0)
            | _ -> ())
        | Event.Capture { control_points; size; _ } ->
            observe "capture.control-points" control_points;
            observe "capture.size" size
        | _ -> ());
    t

  let feed t s = Trace.feed t.sn_model s
  let model t = t.sn_model
  let metrics t = t.sn_mx

  (* Cumulative blocked time per resource, with how many of the current
     run's fibers are parked on it now. *)
  let top_blocked t =
    let m = t.sn_model in
    let now = Hashtbl.create 8 in
    Trace.Pids.iter
      (fun _ (n : Trace.node) ->
        Option.iter
          (fun r -> Hashtbl.replace now r (1 + Option.value ~default:0 (Hashtbl.find_opt now r)))
          n.n_parked)
      m.m_nodes;
    let count r = Option.value ~default:0 (Hashtbl.find_opt now r) in
    Hashtbl.fold (fun r d acc -> (r, d, count r) :: acc) m.m_blocked []
    |> Hashtbl.fold
         (fun r c acc -> if Hashtbl.mem m.m_blocked r then acc else (r, 0, c) :: acc)
         now
    |> List.sort (fun (ra, da, ca) (rb, db, cb) -> compare (db, cb, ra) (da, ca, rb))
    |> List.filteri (fun i _ -> i < 5)

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
    let m = t.sn_model in
    Format.fprintf ppf "@[<v>clock %d  events %d  last pid %d%s@," (max 0 m.m_clock)
      m.m_events t.sn_last_pid
      (match t.sn_deadlock with
      | Some p -> Printf.sprintf "  DEADLOCK(%d parked)" p
      | None -> "");
    Format.fprintf ppf
      "fibers: %d spawned  %d exited  %d cancelled  %d pruned  %d crashes  %d parked  ~%d \
       runnable@,"
      m.m_spawned m.m_exited m.m_cancelled m.m_pruned_total t.sn_crashes m.m_parked
      (max 0 (m.m_live - m.m_parked));
    Format.fprintf ppf "slice fuel:    %s@," (qline "slice.fuel");
    Format.fprintf ppf "wake-to-run:   %s@," (qline "wake.to.run");
    Format.fprintf ppf "span duration: %s  (%d open)@," (qline "span.duration")
      m.m_open_spans;
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
    let m = Trace.model () in
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
    let suffix name i = String.sub name (i + 1) (String.length name - i - 1) in
    (* request span id -> its fate, once a marker child lands *)
    let fates : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let first_ts = ref max_int in
    Trace.watch m (fun s ->
        first_ts := min !first_ts s.ts;
        match s.ev with
        | Event.Span_begin { parent; name; _ } -> (
            match String.index_opt name '/' with
            | None -> (scen name).sc_requests <- (scen name).sc_requests + 1
            | Some i -> (
                match suffix name i with
                | ("timedout" | "cancelled" | "crashed") as fate ->
                    if parent >= 0 then Hashtbl.replace fates parent fate
                | _ -> ()))
        | Event.Span_end { span; _ } -> (
            match Hashtbl.find_opt m.m_spans span with
            | Some { sp_open = true; sp_name = name; sp_t0; _ } -> (
                let d = s.ts - sp_t0 in
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
                    if suffix name i = "service" then
                      Obs.Metrics.Sketch.observe (scen (String.sub name 0 i)).sc_service d)
            | _ -> ())
        | _ -> ());
    Array.iter (Trace.feed m) events;
    (* spans still open at end of trace: cancelled fibers never close
       theirs; count them per scenario *)
    Hashtbl.iter
      (fun id (sp : Trace.span) ->
        if sp.sp_open && (not (String.contains sp.sp_name '/')) && not (Hashtbl.mem fates id)
        then
          let sc = scen sp.sp_name in
          sc.sc_open <- sc.sc_open + 1)
      m.m_spans;
    (* fairness over per-process on-CPU virtual time *)
    let fairness = Jain.create () in
    Array.iter
      (fun (r : Trace.run) ->
        Array.iter
          (fun (n : Trace.node) -> if n.n_run > 0 then Jain.add fairness (float_of_int n.n_run))
          r.r_nodes)
      (Trace.runs m);
    {
      slo_events = m.m_events;
      slo_span = (if m.m_clock >= !first_ts then m.m_clock - !first_ts else 0);
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
