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

(* ---------------- runs ---------------- *)

let is_root s = match s.ev with Event.Spawn { parent = -1; _ } -> true | _ -> false

let runs events =
  let cuts = ref [] in
  Array.iteri (fun i s -> if is_root s && i > 0 then cuts := i :: !cuts) events;
  let cuts = List.rev !cuts in
  let bounds =
    let rec go start = function
      | [] -> [ (start, Array.length events) ]
      | c :: rest -> (start, c) :: go c rest
    in
    go 0 cuts
  in
  bounds
  |> List.filter (fun (a, b) -> b > a)
  |> List.map (fun (a, b) -> Array.sub events a (b - a))
  |> Array.of_list

(* ---------------- reconstruction ---------------- *)

type node = {
  n_pid : int;
  n_parent : int;
  n_kind : string;
  n_spawn_ts : int;
  mutable n_children : int list;
  mutable n_exit_ts : int option;
  mutable n_pruned_ts : int option;
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
  r_events : stamped array;
  r_nodes : node array;
  r_slices : slice array;
  r_actor : int array;
  r_first_ts : int;
  r_span : int;
  r_deadlock : int option;
  r_cancelled_parked : int;
}

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

let add_blocked n resource d =
  let rec go = function
    | [] -> [ (resource, d) ]
    | (r, t) :: rest when r = resource -> (r, t + d) :: rest
    | kv :: rest -> kv :: go rest
  in
  n.n_blocked <- go n.n_blocked

(* Resil.with_timeout / with_deadline cancel with reason "timeout",
   which the scope's abort renders as "cancel: timeout". *)
let mentions_timeout reason =
  let n = String.length reason in
  let rec has i = i + 7 <= n && (String.sub reason i 7 = "timeout" || has (i + 1)) in
  has 0

let reconstruct events =
  let tbl : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let parked : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
  let find pid = Hashtbl.find_opt tbl pid in
  let n_events = Array.length events in
  let actor = Array.make n_events (-1) in
  let slices = ref [] in
  let n_slices = ref 0 in
  let open_slice = ref None in
  let deadlock = ref None in
  let cancelled_parked = ref 0 in
  let first_ts = if n_events = 0 then 0 else events.(0).ts in
  let last_ts = if n_events = 0 then 0 else events.(n_events - 1).ts in
  let unpark ~ts pid =
    match Hashtbl.find_opt parked pid with
    | None -> None
    | Some (resource, since) ->
        Hashtbl.remove parked pid;
        (match find pid with
        | Some n -> add_blocked n resource (ts - since)
        | None -> ());
        Some resource
  in
  let rec prune ~ts pid =
    match find pid with
    | None -> ()
    | Some n ->
        List.iter
          (fun c ->
            match find c with
            (* futures are independent trees: a capture (or cancel) of
               the planting subtree never discards them *)
            | Some m
              when m.n_exit_ts = None && m.n_pruned_ts = None
                   && m.n_kind <> "future" ->
                ignore (unpark ~ts c);
                m.n_pruned_ts <- Some ts;
                prune ~ts c
            | _ -> ())
          n.n_children
  in
  let add_node ~ts pid parent kind =
    if not (Hashtbl.mem tbl pid) then begin
      let n =
        {
          n_pid = pid;
          n_parent = parent;
          n_kind = kind;
          n_spawn_ts = ts;
          n_children = [];
          n_exit_ts = None;
          n_pruned_ts = None;
          n_slices = 0;
          n_run = 0;
          n_fuel = 0;
          n_parks = 0;
          n_wakes = 0;
          n_captures = 0;
          n_reinstates = 0;
          n_sends = 0;
          n_recvs = 0;
          n_blocked = [];
          n_fate = "";
        }
      in
      Hashtbl.add tbl pid n;
      match find parent with
      | Some p -> p.n_children <- p.n_children @ [ pid ]
      | None -> ()
    end
  in
  Array.iteri
    (fun i s ->
      (match !open_slice with
      | Some (_, _, _, idx) -> actor.(i) <- idx
      | None -> ());
      match s.ev with
      | Event.Spawn { pid; parent; kind } -> add_node ~ts:s.ts pid parent kind
      | Event.Spawn_batch { kind; nodes; _ } ->
          (* pre-order, so each parent is registered before its children *)
          Array.iter (fun (pid, parent) -> add_node ~ts:s.ts pid parent kind) nodes
      | Event.Exit { pid } -> (
          match find pid with
          | Some n -> if n.n_exit_ts = None then n.n_exit_ts <- Some s.ts
          | None -> ())
      | Event.Slice_begin { pid } ->
          (* Tolerate an unterminated previous slice by force-closing it
             with zero extent. *)
          (match !open_slice with
          | Some (opid, ob, obts, _) ->
              incr n_slices;
              slices :=
                { sl_pid = opid; sl_begin = ob; sl_end = i; sl_begin_ts = obts;
                  sl_end_ts = obts }
                :: !slices
          | None -> ());
          actor.(i) <- !n_slices;
          open_slice := Some (pid, i, s.ts, !n_slices)
      | Event.Slice_end { pid; fuel } -> (
          match !open_slice with
          | Some (opid, ob, obts, idx) when opid = pid ->
              actor.(i) <- idx;
              open_slice := None;
              incr n_slices;
              slices :=
                { sl_pid = pid; sl_begin = ob; sl_end = i; sl_begin_ts = obts;
                  sl_end_ts = s.ts }
                :: !slices;
              (match find pid with
              | Some n ->
                  n.n_slices <- n.n_slices + 1;
                  n.n_run <- n.n_run + (s.ts - obts);
                  n.n_fuel <- n.n_fuel + fuel
              | None -> ())
          | _ -> ())
      | Event.Park { pid; resource } -> (
          match find pid with
          | Some n ->
              n.n_parks <- n.n_parks + 1;
              if not (Hashtbl.mem parked pid) then
                Hashtbl.add parked pid (resource, s.ts)
          | None -> ())
      | Event.Wake { pid; _ } -> (
          match find pid with
          | Some n ->
              n.n_wakes <- n.n_wakes + 1;
              ignore (unpark ~ts:s.ts pid)
          | None -> ())
      | Event.Capture { pid; root_pid; _ } ->
          (match find pid with
          | Some n -> n.n_captures <- n.n_captures + 1
          | None -> ());
          prune ~ts:s.ts root_pid
      | Event.Reinstate { pid; _ } -> (
          match find pid with
          | Some n -> n.n_reinstates <- n.n_reinstates + 1
          | None -> ())
      | Event.Send { pid; _ } -> (
          match find pid with
          | Some n -> n.n_sends <- n.n_sends + 1
          | None -> ())
      | Event.Recv { pid; _ } -> (
          match find pid with
          | Some n -> n.n_recvs <- n.n_recvs + 1
          | None -> ())
      | Event.Cancel { reason; pids; _ } ->
          (* the scheduler lists exactly the nodes it discarded (futures
             planted inside the scope are absent: they live on) *)
          let fate = if mentions_timeout reason then "timed-out" else "cancelled" in
          Array.iter
            (fun c ->
              match find c with
              | Some m ->
                  if m.n_parks > m.n_wakes then incr cancelled_parked;
                  if m.n_fate = "" then m.n_fate <- fate;
                  if m.n_exit_ts = None && m.n_pruned_ts = None then begin
                    ignore (unpark ~ts:s.ts c);
                    m.n_pruned_ts <- Some s.ts
                  end
              | None -> ())
            pids
      | Event.Crash { pid; _ } -> (
          match find pid with
          | Some n when n.n_fate <> "restarted" -> n.n_fate <- "crashed"
          | _ -> ())
      | Event.Restart { child; _ } -> (
          match find child with Some n -> n.n_fate <- "restarted" | None -> ())
      | Event.Timeout _ -> ()
      | Event.Span_begin _ | Event.Span_end _ -> ()
      | Event.Invalid_controller _ -> ()
      | Event.Deadlock { parked = p } -> deadlock := Some p)
    events;
  (* A slice left open at the end of the stream (truncated trace) still
     owns its events; close it at the last timestamp. *)
  (match !open_slice with
  | Some (opid, ob, obts, _) ->
      incr n_slices;
      slices :=
        { sl_pid = opid; sl_begin = ob; sl_end = n_events - 1; sl_begin_ts = obts;
          sl_end_ts = last_ts }
        :: !slices
  | None -> ());
  (* Close out parks that never woke: they were blocked to the end. *)
  Hashtbl.iter
    (fun pid (resource, since) ->
      match find pid with
      | Some n -> add_blocked n resource (last_ts - since)
      | None -> ())
    parked;
  let nodes =
    Hashtbl.fold (fun _ n acc -> n :: acc) tbl []
    |> List.sort (fun a b -> compare a.n_pid b.n_pid)
    |> Array.of_list
  in
  let slices =
    !slices |> List.rev |> Array.of_list
  in
  (* Force-closed zero-extent slices were appended out of begin order at
     most one position away; restore begin order. *)
  Array.sort (fun a b -> compare a.sl_begin b.sl_begin) slices;
  {
    r_events = events;
    r_nodes = nodes;
    r_slices = slices;
    r_actor = actor;
    r_first_ts = first_ts;
    r_span = last_ts - first_ts;
    r_deadlock = !deadlock;
    r_cancelled_parked = !cancelled_parked;
  }

let blocked_total run =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      List.iter
        (fun (r, d) ->
          let cur = match Hashtbl.find_opt tbl r with Some c -> c | None -> 0 in
          Hashtbl.replace tbl r (cur + d))
        n.n_blocked)
    run.r_nodes;
  Hashtbl.fold (fun r d acc -> (r, d) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let schedule run = Array.map (fun s -> s.sl_pid) run.r_slices
