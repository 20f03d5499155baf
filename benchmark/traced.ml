(* The traced pass: one benchmark-owned Obs sink that counts events by
   kind and resource and stamps slice boundaries with the host monotonic
   clock.  Slice spans stay in memory as flat int columns; reps and
   ladder rungs are marks.  Nothing is written until the workload ends,
   and only when a spans directory was asked for. *)

module Obs = Pcont_obs.Obs
module E = Obs.Event

let now () = Int64.to_int (Monotonic_clock.now ())

(* A growable int column. *)
type col = { mutable a : int array; mutable n : int }

let col () = { a = Array.make 4096 0; n = 0 }

let push c v =
  if c.n = Array.length c.a then begin
    let b = Array.make (2 * c.n) 0 in
    Array.blit c.a 0 b 0 c.n;
    c.a <- b
  end;
  c.a.(c.n) <- v;
  c.n <- c.n + 1

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let get tbl key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> 0

type t = {
  kinds : (string, int ref) Hashtbl.t;  (** events by [Event.name] *)
  parks : (string, int ref) Hashtbl.t;  (** park events by resource *)
  wakes : (string, int ref) Hashtbl.t;  (** wake events by resource *)
  mutable events : int;
  mutable fuel : int;  (** machine transitions charged to slices (pstack) *)
  mutable spawned : int;  (** nodes created, batched grafts included *)
  mutable swept : int;  (** pids discarded by cancels *)
  (* Useful-wake accounting: a woken fiber's next slice is wasted when
     all it does is park again on the resource it was woken from. *)
  pending : (int, string) Hashtbl.t;  (** pid -> resource of an unconsumed wake *)
  mutable woke_res : string;  (** resource that woke the running slice, or "" *)
  mutable busy : bool;  (** the running slice did more than re-park *)
  mutable reparked : bool;
  mutable woken_slices : int;
  mutable wasted : int;
  (* host split: inside slices vs between them *)
  mutable slice_ns : int;
  mutable dispatch_ns : int;
  mutable cur_pid : int;
  mutable cur_begin : int;
  mutable cur_req : int;
  mutable last_end : int;
  (* request attribution, mirroring the scheduler's span propagation:
     spawn and graft inherit, a channel receiver adopts the sender's *)
  span_of : (int, int) Hashtbl.t;  (** pid -> current span *)
  span_parent : (int, int) Hashtbl.t;
  span_root : (int, int) Hashtbl.t;  (** span -> top-level (request) span *)
  chan_spans : (int, int Queue.t) Hashtbl.t;  (** in-flight message spans *)
  sl_pid : col;
  sl_begin : col;
  sl_end : col;
  sl_req : col;
}

let create () =
  {
    kinds = Hashtbl.create 32;
    parks = Hashtbl.create 8;
    wakes = Hashtbl.create 8;
    events = 0;
    fuel = 0;
    spawned = 0;
    swept = 0;
    pending = Hashtbl.create 1024;
    woke_res = "";
    busy = false;
    reparked = false;
    woken_slices = 0;
    wasted = 0;
    slice_ns = 0;
    dispatch_ns = 0;
    cur_pid = -1;
    cur_begin = 0;
    cur_req = -1;
    last_end = 0;
    span_of = Hashtbl.create 1024;
    span_parent = Hashtbl.create 1024;
    span_root = Hashtbl.create 1024;
    chan_spans = Hashtbl.create 256;
    sl_pid = col ();
    sl_begin = col ();
    sl_end = col ();
    sl_req = col ();
  }

let span_of t pid = match Hashtbl.find_opt t.span_of pid with Some s -> s | None -> -1

let set_span t pid s =
  if s >= 0 then Hashtbl.replace t.span_of pid s else Hashtbl.remove t.span_of pid

let request t pid =
  match span_of t pid with
  | -1 -> -1
  | s -> ( match Hashtbl.find_opt t.span_root s with Some r -> r | None -> s)

let chan_queue t chan =
  match Hashtbl.find_opt t.chan_spans chan with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add t.chan_spans chan q;
      q

let on_event t ev =
  t.events <- t.events + 1;
  bump t.kinds (E.name ev);
  match ev with
  | E.Slice_begin { pid } ->
      let ts = now () in
      if t.last_end > 0 then t.dispatch_ns <- t.dispatch_ns + (ts - t.last_end);
      t.cur_pid <- pid;
      t.cur_begin <- ts;
      t.cur_req <- request t pid;
      t.busy <- false;
      t.reparked <- false;
      (match Hashtbl.find_opt t.pending pid with
      | Some r ->
          Hashtbl.remove t.pending pid;
          t.woken_slices <- t.woken_slices + 1;
          t.woke_res <- r
      | None -> t.woke_res <- "")
  | E.Slice_end { pid; fuel } ->
      let ts = now () in
      t.slice_ns <- t.slice_ns + (ts - t.cur_begin);
      t.last_end <- ts;
      t.fuel <- t.fuel + fuel;
      if t.woke_res <> "" && t.reparked && not t.busy then t.wasted <- t.wasted + 1;
      t.woke_res <- "";
      push t.sl_pid pid;
      push t.sl_begin t.cur_begin;
      push t.sl_end ts;
      (* a slice that opens its request is attributed to it *)
      push t.sl_req (if t.cur_req >= 0 then t.cur_req else request t pid)
  | E.Park { pid; resource } ->
      bump t.parks resource;
      if pid = t.cur_pid && resource = t.woke_res then t.reparked <- true
      else t.busy <- true
  | E.Wake { pid; resource } ->
      bump t.wakes resource;
      Hashtbl.replace t.pending pid resource;
      t.busy <- true
  | E.Spawn { pid; parent; _ } ->
      t.spawned <- t.spawned + 1;
      set_span t pid (span_of t parent);
      t.busy <- true
  | E.Spawn_batch { pid; nodes; _ } ->
      t.spawned <- t.spawned + Array.length nodes;
      let s = span_of t pid in
      Array.iter (fun (p, _) -> set_span t p s) nodes;
      t.busy <- true
  | E.Cancel { pids; _ } ->
      t.swept <- t.swept + Array.length pids;
      t.busy <- true
  | E.Span_begin { pid; span; parent; _ } ->
      Hashtbl.replace t.span_parent span parent;
      Hashtbl.replace t.span_root span
        (if parent < 0 then span
         else match Hashtbl.find_opt t.span_root parent with Some r -> r | None -> parent);
      set_span t pid span;
      t.busy <- true
  | E.Span_end { pid; span } ->
      set_span t pid
        (match Hashtbl.find_opt t.span_parent span with Some p -> p | None -> -1);
      t.busy <- true
  | E.Send { pid; chan } ->
      Queue.push (span_of t pid) (chan_queue t chan);
      t.busy <- true
  | E.Recv { pid; chan } ->
      (match Queue.take_opt (chan_queue t chan) with
      | Some s when s >= 0 -> set_span t pid s
      | _ -> ());
      t.busy <- true
  | _ -> t.busy <- true

let sink t = { Obs.sink_event = (fun ~seq:_ ~ts:_ ev -> on_event t ev); sink_close = ignore }

(** A fresh handle whose only sink is [t]'s. *)
let handle t =
  let o = Obs.create () in
  Obs.attach o (sink t);
  o

let kind t k = get t.kinds k
let parks t res = get t.parks res
let all_parks t = Hashtbl.fold (fun _ r acc -> acc + !r) t.parks 0
let all_wakes t = Hashtbl.fold (fun _ r acc -> acc + !r) t.wakes 0
let slices t = t.sl_pid.n

(* A sequential driver has no scheduler: a form's step loop is one
   slice of pid 0, and reading, expanding and resolving the form before
   it is the sequential driver's dispatch. *)
let record_slice t ~fuel ~since b e =
  t.fuel <- t.fuel + fuel;
  t.dispatch_ns <- t.dispatch_ns + (b - since);
  t.slice_ns <- t.slice_ns + (e - b);
  push t.sl_pid 0;
  push t.sl_begin b;
  push t.sl_end e;
  push t.sl_req (-1)

(* ------------------------------------------------------------------ *)
(* Marks: one span per rep and per ladder rung.                        *)
(* ------------------------------------------------------------------ *)

type mark = { m_kind : string; m_name : string; m_begin : int; m_end : int; m_ops : int }

let marks : mark list ref = ref []

(** [timed kind name ops f] runs [f], records it as a span, and returns
    its result with the elapsed host ns. *)
let timed kind name ops f =
  let b = now () in
  let r = f () in
  let e = now () in
  marks := { m_kind = kind; m_name = name; m_begin = b; m_end = e; m_ops = ops } :: !marks;
  (r, e - b)

(* One JSON object per line: marks first, with ids 0.. in time order,
   then every slice of [t] with its request span and, as parent, the id
   of the rep marked "traced". *)
let dump path ~workload t =
  let oc = open_out path in
  let parent = ref (-1) in
  List.iteri
    (fun id m ->
      if m.m_kind = "rep" && m.m_name = "traced" then parent := id;
      Printf.fprintf oc
        "{\"kind\":%s,\"id\":%d,\"workload\":%s,\"name\":%s,\"begin_ns\":%d,\"end_ns\":%d,\"ops\":%d}\n"
        (Obs.Json.quote m.m_kind) id (Obs.Json.quote workload) (Obs.Json.quote m.m_name)
        m.m_begin m.m_end m.m_ops)
    (List.rev !marks);
  for i = 0 to t.sl_pid.n - 1 do
    Printf.fprintf oc
      "{\"kind\":\"slice\",\"pid\":%d,\"begin_ns\":%d,\"end_ns\":%d,\"request\":%d,\"parent\":%d}\n"
      t.sl_pid.a.(i) t.sl_begin.a.(i) t.sl_end.a.(i) t.sl_req.a.(i) !parent
  done;
  close_out oc
