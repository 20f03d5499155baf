module Json = Obs.Json
module Event = Obs.Event

type stamped = { seq : int; ts : int; ev : Event.t }

let to_json s = Event.to_json ~seq:s.seq ~ts:s.ts s.ev

let parse_string body =
  let lines = String.split_on_char '\n' body in
  let acc = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None && String.trim line <> "" then
        match Json.parse line with
        | Error m -> err := Some (Printf.sprintf "line %d: %s" (i + 1) m)
        | Ok j -> (
            match Event.of_json j with
            | Error m -> err := Some (Printf.sprintf "line %d: %s" (i + 1) m)
            | Ok (seq, ts, ev) -> acc := { seq; ts; ev } :: !acc))
    lines;
  match !err with
  | Some m -> Error m
  | None -> Ok (Array.of_list (List.rev !acc))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> parse_string body
  | exception Sys_error m -> Error m

(* ---------------- the process-tree model ---------------- *)

type status = Live | Exited | Pruned | Cancelled

type node = {
  n_pid : int;
  n_parent : int;
  n_kind : string;
  n_order : int;
  mutable n_children : int list;
  mutable n_status : status;
  mutable n_status_ts : int;
  mutable n_parked : string option;
  mutable n_park_ts : int;
  mutable n_park_unknown : bool;
  mutable n_woken : int;
  mutable n_slices : int;
  mutable n_run : int;
  mutable n_fuel : int;
  mutable n_parks : int;
  mutable n_wakes : int;
  mutable n_captures : int;
  mutable n_reinstates : int;
  mutable n_sends : int;
  mutable n_recvs : int;
  mutable n_blocked : (string * int) list;
  mutable n_fate : string;
}

type slice = {
  sl_pid : int;
  sl_begin : int;
  sl_end : int;
  sl_begin_ts : int;
  sl_end_ts : int;
}

type run = {
  r_start : int;
  r_events : int;
  r_nodes : node array;
  r_slices : slice array;
  r_span : int;
  r_end_ts : int;
  r_deadlock : int option;
  r_cancelled_parked : int;
}

type span = { sp_name : string; sp_t0 : int; sp_run : int; mutable sp_open : bool }

module Pids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (pid : int) = pid land max_int
end)

type model = {
  mutable m_watch : (stamped -> unit) list;
  mutable m_events : int;
  mutable m_base : int;
  mutable m_window : bool;
  mutable m_clock : int;
  mutable m_run : int;
  m_nodes : node Pids.t;
  mutable m_order : int;
  mutable m_start : int;
  mutable m_first_ts : int;
  mutable m_last_ts : int;
  mutable m_open : bool;
  mutable m_open_pid : int;
  mutable m_open_at : int;
  mutable m_open_ts : int;
  mutable m_slices : int array;
  mutable m_nslices : int;
  mutable m_live : int;
  mutable m_parked : int;
  mutable m_deadlock : int option;
  mutable m_cancelled_parked : int;
  mutable m_pruned : int list;
  m_spans : (int, span) Hashtbl.t;
  mutable m_open_spans : int;
  m_blocked : (string, int) Hashtbl.t;
  mutable m_spawned : int;
  mutable m_exited : int;
  mutable m_cancelled : int;
  mutable m_pruned_total : int;
  mutable m_done : run list;
}

let model () =
  {
    m_watch = [];
    m_events = 0;
    m_base = 0;
    m_window = false;
    m_clock = min_int;
    m_run = 0;
    m_nodes = Pids.create 64;
    m_order = 0;
    m_start = 0;
    m_first_ts = 0;
    m_last_ts = 0;
    m_open = false;
    m_open_pid = 0;
    m_open_at = 0;
    m_open_ts = 0;
    m_slices = Array.make 320 0;
    m_nslices = 0;
    m_live = 0;
    m_parked = 0;
    m_deadlock = None;
    m_cancelled_parked = 0;
    m_pruned = [];
    m_spans = Hashtbl.create 16;
    m_open_spans = 0;
    m_blocked = Hashtbl.create 8;
    m_spawned = 0;
    m_exited = 0;
    m_cancelled = 0;
    m_pruned_total = 0;
    m_done = [];
  }

let watch m f = m.m_watch <- m.m_watch @ [ f ]
let find m pid = Pids.find_opt m.m_nodes pid

let add_blocked l resource d =
  let rec go = function
    | [] -> [ (resource, d) ]
    | (r, t) :: rest when r = resource -> (r, t + d) :: rest
    | kv :: rest -> kv :: go rest
  in
  go l

(* Resil.with_timeout / with_deadline cancel with reason "timeout",
   which the scope's abort renders as "cancel: timeout". *)
let mentions_timeout reason =
  let n = String.length reason in
  let rec has i = i + 7 <= n && (String.sub reason i 7 = "timeout" || has (i + 1)) in
  has 0

(* Add, not replace: a pid a window registers before its spawn keeps
   both bindings, and the checker's orphan scan visits both. *)
let add_node m ~ts pid parent kind order =
  let n =
    { n_pid = pid; n_parent = parent; n_kind = kind; n_order = order; n_children = [];
      n_status = Live; n_status_ts = ts; n_parked = None; n_park_ts = ts;
      n_park_unknown = parent = -2; n_woken = -1; n_slices = 0; n_run = 0; n_fuel = 0;
      n_parks = 0; n_wakes = 0; n_captures = 0; n_reinstates = 0; n_sends = 0;
      n_recvs = 0; n_blocked = []; n_fate = "" }
  in
  Pids.add m.m_nodes pid n;
  m.m_live <- m.m_live + 1;
  n

(* A pid first referenced inside a window was spawned before the cut:
   register it with unknowable parent, ancestry and park state. *)
let lookup m ~ts pid =
  match find m pid with
  | Some _ as n -> n
  | None -> if m.m_window then Some (add_node m ~ts pid (-2) "pre-window" (-2)) else None

let live m ~ts pid =
  match lookup m ~ts pid with Some ({ n_status = Live; _ } as n) -> Some n | _ -> None

let unpark m ~ts n =
  match n.n_parked with
  | None -> ()
  | Some r ->
      let d = ts - n.n_park_ts in
      n.n_parked <- None;
      m.m_parked <- m.m_parked - 1;
      n.n_blocked <- add_blocked n.n_blocked r d;
      Hashtbl.replace m.m_blocked r
        (d + Option.value ~default:0 (Hashtbl.find_opt m.m_blocked r))

let kill m ~ts n status =
  n.n_status <- status;
  n.n_status_ts <- ts;
  m.m_live <- m.m_live - 1;
  match status with
  | Exited -> m.m_exited <- m.m_exited + 1
  | Pruned -> m.m_pruned_total <- m.m_pruned_total + 1
  | Cancelled -> m.m_cancelled <- m.m_cancelled + 1
  | Live -> ()

(* A capture discards every live descendant of its root; futures are
   independent trees and survive. *)
let rec prune m ~ts pid =
  match find m pid with
  | None -> ()
  | Some n ->
      List.iter
        (fun c ->
          match find m c with
          | Some cn when cn.n_status = Live && cn.n_kind <> "future" ->
              unpark m ~ts cn;
              kill m ~ts cn Pruned;
              m.m_pruned <- c :: m.m_pruned;
              prune m ~ts c
          | _ -> ())
        (List.rev n.n_children)

let spawn m ~ts pid parent kind =
  if find m pid = None then begin
    (if parent <> -1 then
       match lookup m ~ts parent with
       | Some p -> p.n_children <- pid :: p.n_children
       | None -> ());
    ignore (add_node m ~ts pid parent kind m.m_order);
    m.m_order <- m.m_order + 1;
    m.m_spawned <- m.m_spawned + 1
  end

(* The current run as it stands; a slice still open is closed at the
   run's last event.  The closed slices are packed five ints apiece. *)
let view m =
  let n = m.m_events - m.m_start in
  let a = m.m_slices in
  let closed =
    Array.init m.m_nslices (fun k ->
        { sl_pid = a.(5 * k); sl_begin = a.((5 * k) + 1); sl_end = a.((5 * k) + 2);
          sl_begin_ts = a.((5 * k) + 3); sl_end_ts = a.((5 * k) + 4) })
  in
  let slices =
    if not m.m_open then closed
    else
      Array.append closed
        [| { sl_pid = m.m_open_pid; sl_begin = m.m_open_at; sl_end = n - 1;
             sl_begin_ts = m.m_open_ts; sl_end_ts = m.m_last_ts } |]
  in
  {
    r_start = m.m_start;
    r_events = n;
    r_nodes =
      Pids.fold (fun _ nd acc -> nd :: acc) m.m_nodes []
      |> List.sort (fun a b -> compare a.n_pid b.n_pid)
      |> Array.of_list;
    r_slices = slices;
    r_span = m.m_last_ts - m.m_first_ts;
    r_end_ts = m.m_last_ts;
    r_deadlock = m.m_deadlock;
    r_cancelled_parked = m.m_cancelled_parked;
  }

let runs m =
  Array.of_list
    (List.rev (if m.m_events > m.m_start then view m :: m.m_done else m.m_done))

(* A root spawn ends the run: its pids are fresh.  Spans belong to the
   handle and carry over. *)
let new_run m =
  if m.m_events > m.m_start then begin
    m.m_done <- view m :: m.m_done;
    m.m_run <- m.m_run + 1
  end;
  Pids.reset m.m_nodes;
  m.m_order <- 0;
  m.m_start <- m.m_events;
  m.m_open <- false;
  m.m_nslices <- 0;
  m.m_live <- 0;
  m.m_parked <- 0;
  m.m_deadlock <- None;
  m.m_cancelled_parked <- 0

(* Grow [a] to hold index [i]. *)
let room a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (2 * (i + 1)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let close_slice m ~i ~ts ~same =
  if m.m_open then begin
    let k = 5 * m.m_nslices in
    if k + 4 >= Array.length m.m_slices then m.m_slices <- room m.m_slices (k + 4) 0;
    let a = m.m_slices in
    a.(k) <- m.m_open_pid;
    a.(k + 1) <- m.m_open_at;
    a.(k + 2) <- i;
    a.(k + 3) <- m.m_open_ts;
    a.(k + 4) <- (if same then ts else m.m_open_ts);
    m.m_nslices <- m.m_nslices + 1;
    m.m_open <- false
  end

let rec notify s = function
  | [] -> ()
  | f :: rest ->
      f s;
      notify s rest

let feed m s =
  notify s m.m_watch;
  if m.m_events = 0 then begin
    m.m_base <- s.seq;
    m.m_window <- s.seq > 0
  end;
  (match s.ev with Event.Spawn { parent = -1; _ } -> new_run m | _ -> ());
  let ts = s.ts and i = m.m_events - m.m_start in
  if i = 0 then m.m_first_ts <- ts;
  m.m_events <- m.m_events + 1;
  if ts > m.m_clock then m.m_clock <- ts;
  m.m_last_ts <- ts;
  if m.m_pruned != [] then m.m_pruned <- [];
  match s.ev with
  | Event.Spawn { pid; parent; kind } -> spawn m ~ts pid parent kind
  | Event.Spawn_batch { kind; nodes; _ } ->
      (* pre-order, so each parent is registered before its children *)
      Array.iter (fun (pid, parent) -> spawn m ~ts pid parent kind) nodes
  | Event.Exit { pid } -> (
      match live m ~ts pid with Some n -> kill m ~ts n Exited | None -> ())
  | Event.Slice_begin { pid } ->
      (* an unterminated previous slice is force-closed with zero extent *)
      close_slice m ~i ~ts ~same:false;
      (match lookup m ~ts pid with Some n -> n.n_woken <- -1 | None -> ());
      m.m_open <- true;
      m.m_open_pid <- pid;
      m.m_open_at <- i;
      m.m_open_ts <- ts
  | Event.Slice_end { pid; fuel } ->
      if m.m_open then begin
        let same = m.m_open_pid = pid and bts = m.m_open_ts in
        close_slice m ~i ~ts ~same;
        if same then
          match find m pid with
          | Some n ->
              n.n_slices <- n.n_slices + 1;
              n.n_run <- n.n_run + (ts - bts);
              n.n_fuel <- n.n_fuel + fuel
          | None -> ()
      end
  | Event.Park { pid; resource } -> (
      match live m ~ts pid with
      | Some n ->
          n.n_parks <- n.n_parks + 1;
          n.n_park_unknown <- false;
          if n.n_parked = None then begin
            n.n_parked <- Some resource;
            n.n_park_ts <- ts;
            m.m_parked <- m.m_parked + 1
          end
      | None -> ())
  | Event.Wake { pid; _ } -> (
      match live m ~ts pid with
      | Some n ->
          n.n_wakes <- n.n_wakes + 1;
          n.n_woken <- ts;
          if n.n_parked = None then n.n_park_unknown <- false else unpark m ~ts n
      | None -> ())
  | Event.Capture { pid; root_pid; _ } -> (
      match live m ~ts pid with
      | Some n ->
          n.n_captures <- n.n_captures + 1;
          ignore (lookup m ~ts root_pid);
          prune m ~ts root_pid
      | None -> ())
  | Event.Reinstate { pid; _ } -> (
      match live m ~ts pid with
      | Some n -> n.n_reinstates <- n.n_reinstates + 1
      | None -> ())
  | Event.Send { pid; _ } -> (
      match live m ~ts pid with Some n -> n.n_sends <- n.n_sends + 1 | None -> ())
  | Event.Recv { pid; _ } -> (
      match live m ~ts pid with Some n -> n.n_recvs <- n.n_recvs + 1 | None -> ())
  | Event.Cancel { pid; scope; reason; pids } ->
      (* the scheduler lists exactly the nodes it discarded (futures
         planted inside the scope are absent: they live on) *)
      ignore (lookup m ~ts pid);
      ignore (lookup m ~ts scope);
      let fate = if mentions_timeout reason then "timed-out" else "cancelled" in
      Array.iter
        (fun q ->
          Option.iter
            (fun n ->
              if n.n_fate = "" then n.n_fate <- fate;
              if n.n_status = Live then begin
                if n.n_parked <> None then m.m_cancelled_parked <- m.m_cancelled_parked + 1;
                unpark m ~ts n;
                kill m ~ts n Cancelled
              end)
            (lookup m ~ts q))
        pids
  | Event.Timeout { pid; _ } | Event.Invalid_controller { pid; _ } ->
      ignore (lookup m ~ts pid)
  | Event.Crash { pid; _ } -> (
      if pid >= 0 then
        match lookup m ~ts pid with
        | Some n when n.n_fate <> "restarted" -> n.n_fate <- "crashed"
        | _ -> ())
  | Event.Restart { pid; child; _ } ->
      ignore (lookup m ~ts pid);
      Option.iter (fun n -> n.n_fate <- "restarted") (lookup m ~ts child)
  | Event.Span_begin { pid; span; name; _ } ->
      if pid >= 0 then ignore (lookup m ~ts pid);
      if not (Hashtbl.mem m.m_spans span) then begin
        Hashtbl.add m.m_spans span
          { sp_name = name; sp_t0 = ts; sp_run = m.m_run; sp_open = true };
        m.m_open_spans <- m.m_open_spans + 1
      end
  | Event.Span_end { pid; span } -> (
      if pid >= 0 then ignore (lookup m ~ts pid);
      match Hashtbl.find_opt m.m_spans span with
      | Some sp when sp.sp_open ->
          sp.sp_open <- false;
          m.m_open_spans <- m.m_open_spans - 1
      | Some _ -> ()
      | None ->
          (* begun before the cut: remember the id, so a second end is
             still unmatched *)
          if m.m_window then
            Hashtbl.add m.m_spans span
              { sp_name = "span"; sp_t0 = ts; sp_run = -1; sp_open = false })
  | Event.Deadlock { parked } -> m.m_deadlock <- Some parked

let sink m = Obs.Sink.memory (fun (seq, ts, ev) -> feed m { seq; ts; ev })

let reconstruct events =
  let m = model () in
  Array.iter (feed m) events;
  runs m

(* The slices are disjoint and in begin order: binary search for the
   last one that begins at or before [i]. *)
let actor run i =
  let sl = run.r_slices in
  let lo = ref 0 and hi = ref (Array.length sl) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sl.(mid).sl_begin <= i then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && sl.(!lo - 1).sl_end >= i then !lo - 1 else -1

let node_of run pid =
  (* r_nodes is sorted by pid *)
  let lo = ref 0 and hi = ref (Array.length run.r_nodes) in
  let found = ref None in
  while !found = None && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let n = run.r_nodes.(mid) in
    if n.n_pid = pid then found := Some n
    else if n.n_pid < pid then lo := mid + 1
    else hi := mid
  done;
  !found

(* A park still open at the end of the run was blocked to its end. *)
let blocked run n =
  match n.n_parked with
  | Some r -> add_blocked n.n_blocked r (run.r_end_ts - n.n_park_ts)
  | None -> n.n_blocked

let blocked_total run =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      List.iter
        (fun (r, d) ->
          let cur = match Hashtbl.find_opt tbl r with Some c -> c | None -> 0 in
          Hashtbl.replace tbl r (cur + d))
        (blocked run n))
    run.r_nodes;
  Hashtbl.fold (fun r d acc -> (r, d) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
