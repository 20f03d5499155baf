module Counters = Pcont_util.Counters
module Xorshift = Pcont_util.Xorshift
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

type policy =
  | Round_robin
  | Randomized of int64
  | Driven_pids of (int array -> int)

(* The live process forest.  A node is a runnable leaf, a wait over its
   children (a pcall fork, a process root, a controller body), a leaf
   parked on a resource, or done: its value delivered to the parent, or
   pruned by a capture (which copies the subtree into an immutable
   [ptree]) or a cancel.  [span] is the causal span the node's work runs
   in (-1 = none): a new node starts in the stepping node's, and the
   backends update the stepping node's in place. *)
type ('l, 'w, 'v) node = {
  nid : int;
  mutable parent : ('l, 'w, 'v) parent;
  mutable body : ('l, 'w, 'v) body;
  mutable span : int;
}

and ('l, 'w, 'v) parent =
  | Ptop
  | Pfut of ('v -> unit)
  | Pchild of ('l, 'w, 'v) node * int

and ('l, 'w, 'v) body =
  | Nleaf of 'l
  | Nwait of ('l, 'w, 'v) wait
  | Nparked of ('l, 'w, 'v) entry
  | Ndone

and ('l, 'w, 'v) wait = {
  wx : 'w;
  children : ('l, 'w, 'v) node array;
  results : 'v option array;
  mutable pending : int;
}

(* A parked leaf.  While live, the entry is linked, in park order, into
   the core's parked census through [e_prev]/[e_next].  Waking the leaf,
   or a capture or cancel pruning it, kills the entry: it is unlinked,
   links to itself and takes the census sentinel's node and leaf, so a
   stale reference left on a waitset or the timer heap holds nothing.
   [e_round] is the scheduling round the leaf parked in, for the
   park-latency sketch. *)
and ('l, 'w, 'v) entry = {
  mutable e_node : ('l, 'w, 'v) node;
  mutable e_leaf : 'l;
  e_res : string;
  e_round : int;
  mutable e_prev : ('l, 'w, 'v) entry;
  mutable e_next : ('l, 'w, 'v) entry;
}

type ('l, 'w, 'v) waitset = { ws_name : string; mutable ws_parked : ('l, 'w, 'v) entry list }

(* A captured subtree; immutable, so a pstack continuation can graft it
   many times. *)
type ('l, 'w, 'v, 'h) ptree =
  | Pleaf of 'l
  | Phole of 'h
  | Pdone
  | Pwait of 'w * ('l, 'w, 'v, 'h) ptree array * 'v option array

let rec ptree_sum ~leaf ~hole ~done_ ~wait = function
  | Pleaf l -> leaf l
  | Phole h -> hole h
  | Pdone -> done_
  | Pwait (wx, children, _) ->
      Array.fold_left (fun s pt -> s + ptree_sum ~leaf ~hole ~done_ ~wait pt) (wait wx) children

(* A growable array of nodes: [len] slots in use, the rest hold [nil],
   a node that is never live, so no slot keeps a node that has left. *)
type 'n buf = { mutable arr : 'n array; mutable len : int; nil : 'n }

let buf nil = { arr = Array.make 16 nil; len = 0; nil }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push b x =
  if b.len = Array.length b.arr then b.arr <- grow b.arr b.nil;
  b.arr.(b.len) <- x;
  b.len <- b.len + 1

let clear b =
  Array.fill b.arr 0 b.len b.nil;
  b.len <- 0

type ('l, 'w, 'v) t = {
  policy : policy;
  rng : Xorshift.t option;
  obs : Obs.t option;
  counters : Counters.t option;
  c_park : string;
  c_wake : string;
  nouns : string * string;  (* "branches", "branch(es)" *)
  resume : 'w -> 'v array -> 'l;
  mutable clock : int;  (* virtual time: fuel charged, plus timer jumps *)
  mutable stepping : ('l, 'w, 'v) node;  (* the node whose slice runs *)
  s_runq : Obs.Metrics.series;
  s_park : Obs.Metrics.series;
  mutable queue : ('l, 'w, 'v) node buf;  (* this round's runnable leaves *)
  mutable next : ('l, 'w, 'v) node buf;  (* the next round's, being written *)
  born : ('l, 'w, 'v) node buf;  (* made runnable by the current step *)
  planted : ('l, 'w, 'v) node buf;  (* future trees planted this round *)
  mutable next_id : int;
  mutable rounds : int;
  mutable halted : bool;
  mutable final : 'v option;
  mutable live : int;  (* nodes announced and not yet exited or cancelled *)
  mutable peak : int;
  parked : ('l, 'w, 'v) entry;  (* sentinel of the live entries, oldest next *)
  mutable th_due : int array;  (* timer heap: deadline, seq and sleeper per slot *)
  mutable th_seq : int array;
  mutable th_entry : ('l, 'w, 'v) entry array;
  mutable heap_n : int;
  mutable heap_seq : int;
}

(* Never fed: every observation site is guarded on [obs]. *)
let unobserved = lazy (Obs.Metrics.Sketch.create ())

let create ?obs ?counters ~prefix ~nouns ~resume policy leaf =
  let series name =
    match obs with
    | Some o -> Obs.Metrics.series (Obs.metrics o) (prefix ^ name)
    | None -> Lazy.force unobserved
  in
  let root = { nid = 0; parent = Ptop; body = Nleaf leaf; span = -1 } in
  let nil = { nid = -1; parent = Ptop; body = Ndone; span = -1 } in
  (* The census sentinel, also the filler of the timer heap's unused
     slots, is never woken: the root's leaf only fills its leaf slot. *)
  let rec parked =
    {
      e_node = nil;
      e_leaf = leaf;
      e_res = "";
      e_round = 0;
      e_prev = parked;
      e_next = parked;
    }
  in
  let queue = buf nil in
  push queue root;
  (match obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Spawn { pid = 0; parent = -1; kind = "root" }));
  {
    policy;
    rng = (match policy with Randomized seed -> Some (Xorshift.create seed) | _ -> None);
    obs;
    counters;
    c_park = prefix ^ ".park";
    c_wake = prefix ^ ".wake";
    nouns;
    resume;
    clock = 0;
    stepping = root;
    s_runq = series ".runq.depth";
    s_park = series ".park.rounds";
    queue;
    next = buf nil;
    born = buf nil;
    planted = buf nil;
    next_id = 0;
    rounds = 0;
    halted = false;
    final = None;
    live = 1;
    peak = 1;
    parked;
    th_due = Array.make 64 0;
    th_seq = Array.make 64 0;
    th_entry = Array.make 64 parked;
    heap_n = 0;
    heap_seq = 0;
  }

let final t = t.final

let peak t = t.peak

let halt t = t.halted <- true

let now t = t.clock

let stepping t = t.stepping

let count t name =
  match t.counters with None -> () | Some c -> Counters.incr c name

(* The live census changes exactly where the core announces a node's
   birth (Spawn, Spawn_batch) or death (Exit, Cancel), so its peak is
   the same with or without a handle. *)
let census t d =
  t.live <- t.live + d;
  if t.live > t.peak then t.peak <- t.live

(* A node born now: a fresh id, in the stepping node's span, live. *)
let new_node t parent body =
  t.next_id <- t.next_id + 1;
  census t 1;
  { nid = t.next_id; parent; body; span = t.stepping.span }

(* ------------------------------------------------------------------ *)
(* The live tree.                                                      *)
(* ------------------------------------------------------------------ *)

let is_leaf n = match n.body with Nleaf _ -> true | _ -> false

let rec push_leaves t n =
  match n.body with
  | Nleaf _ -> push t.born n
  | Nparked _ | Ndone -> ()
  | Nwait w -> Array.iter (push_leaves t) w.children

let become_leaf t n leaf =
  n.body <- Nleaf leaf;
  push t.born n

(* Deliver a leaf's final value to its parent: the run's result at the
   top, the future's delivery action for a forest tree, or a result slot
   of the parent wait, which resumes as a leaf when its last child
   completes. *)
let deliver t n v =
  n.body <- Ndone;
  census t (-1);
  (match t.obs with None -> () | Some o -> Obs.emit o (E.Exit { pid = n.nid }));
  match n.parent with
  | Ptop -> t.final <- Some v
  | Pfut deliver -> deliver v
  | Pchild (p, slot) -> (
      match p.body with
      | Nwait w ->
          w.results.(slot) <- Some v;
          w.pending <- w.pending - 1;
          if w.pending = 0 then
            become_leaf t p (t.resume w.wx (Array.map Option.get w.results))
      | _ -> assert false)

(* Turn [n] into a wait over fresh children, one leaf [leaf x] per
   element of [xs]. *)
let fork t n wx kind leaf xs =
  let k = List.length xs in
  let w = { wx; children = Array.make k n; results = Array.make k None; pending = k } in
  n.body <- Nwait w;
  List.iteri
    (fun i x ->
      let c = new_node t (Pchild (n, i)) (Nleaf (leaf x)) in
      w.children.(i) <- c;
      match t.obs with
      | None -> ()
      | Some o -> Obs.emit o (E.Spawn { pid = c.nid; parent = n.nid; kind }))
    xs;
  Array.iter (push t.born) w.children

(* Plant an independent tree in the forest (Section 8); [deliver]
   receives its value. *)
let plant t n leaf deliver =
  let f = new_node t (Pfut deliver) (Nleaf leaf) in
  (* Appended to the next round's queue at round end: future trees keep
     their creation order at the back of the forest. *)
  push t.planted f;
  match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Spawn { pid = f.nid; parent = n.nid; kind = "future" })

(* A future's tree ends the climb, so no capture crosses into another
   tree. *)
let find_root t n label root =
  let rec climb m =
    match m.parent with
    | Ptop | Pfut _ -> None
    | Pchild (p, _) -> (
        match p.body with
        | Nwait w -> ( match root w.wx with Some r -> Some (p, w, r) | None -> climb p)
        | _ -> climb p)
  in
  match climb n with
  | Some _ as found -> found
  | None ->
      (match t.obs with
      | None -> ()
      | Some o -> Obs.emit o (E.Invalid_controller { pid = n.nid; label }));
      None

(* Graft captured subtrees onto [n]: [n] becomes a wait carrying [wx]
   over the rebuilt [pts] (with their saved [results]), and the hole
   resumes as [hole h].  Every rebuilt leaf becomes runnable. *)
let graft t n wx pts results hole =
  let rec wait_of m wx pts results =
    let w =
      {
        wx;
        children = Array.make (Array.length pts) m;
        results = Array.copy results;
        pending = Array.fold_left (fun c r -> if Option.is_none r then c + 1 else c) 0 results;
      }
    in
    m.body <- Nwait w;
    Array.iteri (fun i pt -> w.children.(i) <- rebuild (Pchild (m, i)) pt) pts;
    w
  and rebuild parent pt =
    (* rebuilt leaves adopt the reinstating leaf's span: the graft is
       what made them runnable again, so their work is causally part of
       the reinstating request *)
    let m = new_node t parent Ndone in
    (match pt with
    | Pleaf l -> m.body <- Nleaf l
    | Phole h -> m.body <- Nleaf (hole h)
    | Pdone -> ()
    | Pwait (wx, pts, results) -> ignore (wait_of m wx pts results));
    m
  in
  let w = wait_of n wx pts results in
  push_leaves t n;
  match t.obs with
  | None -> ()
  | Some o ->
      (* Announce every rebuilt node (waits included) in one batch
         event, parents before children, so trace consumers never see a
         pid whose spawn was skipped — one event instead of one per
         rebuilt node. *)
      let acc = ref [] in
      let rec collect parent m =
        acc := (m.nid, parent) :: !acc;
        match m.body with
        | Nwait w -> Array.iter (collect m.nid) w.children
        | Nleaf _ | Nparked _ | Ndone -> ()
      in
      Array.iter (collect n.nid) w.children;
      let nodes = Array.of_list (List.rev !acc) in
      Obs.emit o (E.Spawn_batch { pid = n.nid; kind = "graft"; nodes })

(* ------------------------------------------------------------------ *)
(* Parking, waking, timers.                                            *)
(* ------------------------------------------------------------------ *)

(* Take [n] out of the run queue until woken; [leaf] is what it resumes
   as.  Live entries are linked, in park order, before the census
   sentinel, for the deadlock census and [wake_resource]. *)
let park t n ~res leaf =
  count t t.c_park;
  let s = t.parked in
  let e =
    {
      e_node = n;
      e_leaf = leaf;
      e_res = res;
      e_round = t.rounds;
      e_prev = s.e_prev;
      e_next = s;
    }
  in
  s.e_prev.e_next <- e;
  s.e_prev <- e;
  n.body <- Nparked e;
  (match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Park { pid = n.nid; resource = res }));
  e

let live e = e.e_next != e

(* Kill a live parked entry (woken, or its node pruned): unlink it from
   the census and drop its node and leaf. *)
let release t e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev;
  e.e_prev <- e;
  e.e_next <- e;
  e.e_node <- t.parked.e_node;
  e.e_leaf <- t.parked.e_leaf

(* Every node walked dies: the subtree now lives only in the [ptree].
   A parked leaf's resource may be woken while the subtree is captured,
   so its entry dies with the capture; parking is always a re-check
   loop, so the grafted leaf just resumes and re-checks. *)
let capture t n hole m =
  let rec walk m =
    let pt =
      if m == n then Phole hole
      else
        match m.body with
        | Nleaf l -> Pleaf l
        | Nparked e ->
            let l = e.e_leaf in
            release t e;
            Pleaf l
        | Ndone -> Pdone
        | Nwait w -> Pwait (w.wx, Array.map walk w.children, Array.copy w.results)
    in
    m.body <- Ndone;
    pt
  in
  walk m

(* Cancellation as declined reinstatement: kill everything under the
   wait [scope] and announce it as one Cancel by [n].  The sweep is
   pre-order, collecting every live pid (exactly what an invariant
   checker must mark dead) and releasing parked entries; the invoking
   leaf is among them when it sits inside the scope.  The caller puts a
   replacement under [scope]. *)
let discard t n scope ~reason =
  let cancelled = ref [] in
  let rec sweep m =
    match m.body with
    | Ndone -> ()
    | body -> (
        cancelled := m.nid :: !cancelled;
        m.body <- Ndone;
        match body with
        | Nparked e -> release t e
        | Nwait w -> Array.iter sweep w.children
        | Nleaf _ | Ndone -> ())
  in
  (match scope.body with Nwait w -> Array.iter sweep w.children | _ -> assert false);
  let pids = Array.of_list (List.rev !cancelled) in
  census t (-Array.length pids);
  match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Cancel { pid = n.nid; scope = scope.nid; reason; pids })

(* Make a live entry runnable again, emitting its wake now; the node
   joins [born].  Callers wake in park (FIFO) order, so the trace shows
   the order the leaves will actually run in. *)
let wake t e =
  if live e then begin
    let n = e.e_node in
    n.body <- Nleaf e.e_leaf;
    release t e;
    count t t.c_wake;
    push t.born n;
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Metrics.Sketch.observe t.s_park (t.rounds - e.e_round);
        Obs.emit o (E.Wake { pid = n.nid; resource = e.e_res })
  end

(* Move the leaves woken since [born] held [mark] nodes ahead of those
   [mark]: a batch of wakes runs before whatever the step made runnable
   earlier. *)
let wakes_first t mark =
  let b = t.born in
  if mark > 0 && b.len > mark then begin
    let before = Array.sub b.arr 0 mark in
    Array.blit b.arr mark b.arr 0 (b.len - mark);
    Array.blit before 0 b.arr (b.len - mark) mark
  end

let block t ws n leaf = ws.ws_parked <- park t n ~res:ws.ws_name leaf :: ws.ws_parked

(* Wake every live entry of [ws], in park (FIFO) order. *)
let wake_all t ws =
  match ws.ws_parked with
  | [] -> ()
  | entries ->
      ws.ws_parked <- [];
      let mark = t.born.len in
      List.iter (wake t) (List.rev entries);
      wakes_first t mark

let parked ws = List.length (List.filter live ws.ws_parked)

(* Spuriously wake every live entry parked on the named resource, in
   park order. *)
let wake_resource t res =
  let mark = t.born.len in
  let rec go e =
    if e != t.parked then begin
      let next = e.e_next in
      if e.e_res = res then wake t e;
      go next
    end
  in
  go t.parked.e_next;
  wakes_first t mark

(* The timer heap: sleepers ordered by (deadline, park order), one slot
   across three arrays.  Entries are ordinary parked entries, so a
   capture that prunes a sleeper invalidates it here as on any waitset —
   the grafted leaf then resumes (early) from its sleep.  The seq
   tiebreak keeps sleepers with equal deadlines in FIFO order; insert
   (amortised) and pop are O(log n). *)
let th_less t i j =
  let di = t.th_due.(i) and dj = t.th_due.(j) in
  di < dj || (di = dj && t.th_seq.(i) < t.th_seq.(j))

let th_swap t i j =
  let d = t.th_due.(i) and s = t.th_seq.(i) and e = t.th_entry.(i) in
  t.th_due.(i) <- t.th_due.(j);
  t.th_seq.(i) <- t.th_seq.(j);
  t.th_entry.(i) <- t.th_entry.(j);
  t.th_due.(j) <- d;
  t.th_seq.(j) <- s;
  t.th_entry.(j) <- e

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.heap_n && th_less t l i then l else i in
  let m = if r < t.heap_n && th_less t r m then r else m in
  if m <> i then begin
    th_swap t i m;
    sift_down t m
  end

(* Drop the dead entries (sleepers a capture, cancel or fault woke or
   pruned) and restore the heap order bottom-up.  The order is total,
   so the live entries pop exactly as they would have. *)
let th_compact t =
  let k = ref 0 in
  for i = 0 to t.heap_n - 1 do
    if live t.th_entry.(i) then begin
      th_swap t i !k;
      incr k
    end
  done;
  Array.fill t.th_entry !k (t.heap_n - !k) t.parked;
  t.heap_n <- !k;
  for i = (!k / 2) - 1 downto 0 do
    sift_down t i
  done

(* A full heap drops its dead entries first, and grows only if it is
   still half full: the next compaction is then at least half a heap of
   inserts away, which pays for it, and the dead entries never exceed
   a capacity that grew only while half the entries were live. *)
let insert_timer t deadline e =
  if t.heap_n = Array.length t.th_due then begin
    th_compact t;
    if 2 * t.heap_n >= Array.length t.th_due then begin
      t.th_due <- grow t.th_due 0;
      t.th_seq <- grow t.th_seq 0;
      t.th_entry <- grow t.th_entry t.parked
    end
  end;
  let n = t.heap_n in
  t.th_due.(n) <- deadline;
  t.th_seq.(n) <- t.heap_seq;
  t.th_entry.(n) <- e;
  t.heap_seq <- t.heap_seq + 1;
  t.heap_n <- n + 1;
  let i = ref n in
  while !i > 0 && th_less t !i ((!i - 1) / 2) do
    th_swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let th_pop t =
  let r = t.th_entry.(0) in
  let n = t.heap_n - 1 in
  t.heap_n <- n;
  t.th_due.(0) <- t.th_due.(n);
  t.th_seq.(0) <- t.th_seq.(n);
  t.th_entry.(0) <- t.th_entry.(n);
  t.th_entry.(n) <- t.parked;
  sift_down t 0;
  r

(* Park [n] until the virtual clock reaches now+d. *)
let sleep t n leaf d = insert_timer t (t.clock + max d 0) (park t n ~res:"timer" leaf)

(* Wake every live timer whose deadline has been reached.  Expiry
   happens between rounds, when [born] is empty and the queue complete,
   so the woken leaves go straight to the queue's end. *)
let expire_due t =
  while t.heap_n > 0 && t.th_due.(0) <= t.clock do
    wake t (th_pop t)
  done;
  for i = 0 to t.born.len - 1 do
    push t.queue t.born.arr.(i)
  done;
  clear t.born

(* ------------------------------------------------------------------ *)
(* Slices and rounds.                                                  *)
(* ------------------------------------------------------------------ *)

(* A run slice: everything a leaf does before the scheduler moves on.
   The node is the stepping one until the next slice begins. *)
let slice_begin t n =
  t.stepping <- n;
  match t.obs with None -> () | Some o -> Obs.emit o (E.Slice_begin { pid = n.nid })

(* The virtual clock advances by the fuel charged (at least 1, so
   zero-fuel slices still have visible extent) whether or not a trace
   handle is attached, which keeps timestamps — and timer behavior —
   deterministic and independent of observation. *)
let slice_end t used =
  let d = if used > 0 then used else 1 in
  t.clock <- t.clock + d;
  match t.obs with
  | None -> ()
  | Some o ->
      Obs.advance o d;
      Obs.emit o (E.Slice_end { pid = t.stepping.nid; fuel = used })

(* Write the nodes that take the stepped node's place to the next
   round's queue: itself if it is still a runnable leaf, then whatever
   the step made runnable (woken leaves, fork children, a resumed
   parent, a grafted subtree's leaves).  A subtree's leaves are
   contiguous in tree order, so putting them at the stepped node's
   position keeps the queue in exactly the order a full forest walk
   would produce next round. *)
let successors t n =
  if is_leaf n then push t.next n;
  let b = t.born in
  if b.len > 0 then begin
    for i = 0 to b.len - 1 do
      push t.next b.arr.(i)
    done;
    clear b
  end

(* Step a queued node if it is still a runnable leaf (once halted, keep
   it queued unstepped); a parked, waiting or dead one leaves the
   queue. *)
let step_one t step n =
  match n.body with
  | Nleaf l ->
      if t.halted then push t.next n
      else begin
        step n l;
        successors t n
      end
  | _ -> ()

(* Drop the queue's nodes that are no longer runnable leaves in place,
   keeping the order; the number of runnable leaves left. *)
let compact t =
  let q = t.queue in
  let k = ref 0 in
  for i = 0 to q.len - 1 do
    let n = q.arr.(i) in
    q.arr.(i) <- q.nil;
    if is_leaf n then begin
      q.arr.(!k) <- n;
      incr k
    end
  done;
  q.len <- !k;
  !k

let swap t =
  let q = t.queue in
  t.queue <- t.next;
  t.next <- q

(* One scheduling round over the run queue: runnable leaves of the whole
   forest in tree order, maintained incrementally and lazily dropping
   nodes that stopped being leaves, so a round costs O(runnable), not
   O(forest).
   Each policy reads [queue], clearing every slot it consumes, and
   writes the next round's queue to [next]; the two swap at round end.
   [step n l] runs leaf [n] (payload [l]) for one slice. *)
let round t step =
  t.rounds <- t.rounds + 1;
  (match t.obs with
  | None -> ()
  | Some _ ->
      (* Queue length may include entries gone stale since the last
         compaction; it is the work the round is about to look at. *)
      Obs.Metrics.Sketch.observe t.s_runq t.queue.len);
  let q = t.queue in
  (match t.policy with
  | Driven_pids pick ->
      (* Systematic exploration: one decision, one leaf, one slice.  The
         pick contract needs the exact live count, so compact the queue
         up front. *)
      let count = compact t in
      if count > 0 then begin
        (* Out-of-range picks are reduced modulo the runnable count, so
           a decision function written against one schedule stays total
           when the run diverges. *)
        let raw = pick (Array.init count (fun i -> q.arr.(i).nid)) in
        let idx = ((raw mod count) + count) mod count in
        for i = 0 to count - 1 do
          if i = idx then step_one t step q.arr.(i) else push t.next q.arr.(i)
        done;
        clear q
      end
  | Round_robin ->
      (* One pass: each position is replaced by its successors. *)
      for i = 0 to q.len - 1 do
        let n = q.arr.(i) in
        q.arr.(i) <- q.nil;
        step_one t step n
      done;
      q.len <- 0
  | Randomized _ ->
      (* The shuffle must range over exactly the live leaves (the same
         permutation a fresh forest walk would be dealt), so compact
         first.  Only the processing order is shuffled: successors are
         written in processing order, each leaf's bounded by [first] and
         [last], and laid back out in tree order. *)
      let count = compact t in
      let order = Array.init count Fun.id in
      Option.iter (fun g -> Xorshift.shuffle g order) t.rng;
      let first = Array.make count 0 and last = Array.make count 0 in
      Array.iter
        (fun i ->
          first.(i) <- t.next.len;
          step_one t step q.arr.(i);
          last.(i) <- t.next.len)
        order;
      clear q;
      for i = 0 to count - 1 do
        for j = first.(i) to last.(i) - 1 do
          push q t.next.arr.(j)
        done
      done;
      clear t.next;
      swap t);
  for i = 0 to t.planted.len - 1 do
    push t.next t.planted.arr.(i)
  done;
  clear t.planted;
  swap t

(* One turn of the driver loop: expire due timers, then run a round.
   Quiescent with timers pending, jump the virtual clock to the earliest
   live deadline instead of declaring deadlock, so timeouts stay a
   liveness backstop even when every leaf is blocked.  [false] means
   quiescence: nothing runnable and no timer pending. *)
let advance t step =
  expire_due t;
  if t.queue.len > 0 then begin
    round t step;
    true
  end
  else begin
    (* Discard dead (captured/cancelled) sleepers at the top of the
       heap so the peek sees the earliest live deadline. *)
    while t.heap_n > 0 && not (live t.th_entry.(0)) do
      ignore (th_pop t)
    done;
    if t.heap_n = 0 then false
    else begin
      let d = t.th_due.(0) in
      let delta = d - t.clock in
      t.clock <- d;
      (match t.obs with Some o when delta > 0 -> Obs.advance o delta | _ -> ());
      true
    end
  end

(* Quiescence = deadlock: the queue only ever loses a node without a
   delivery when the node parks, so an empty queue with no result and no
   failure means every remaining leaf is parked on a resource nobody
   left can signal. *)
let deadlock_msg t =
  let rec walk acc e = if e == t.parked then acc else walk (e :: acc) e.e_prev in
  let live = walk [] t.parked.e_prev in
  (match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Deadlock { parked = List.length live }));
  let plural, counted = t.nouns in
  match live with
  | [] -> "no runnable " ^ plural
  | _ ->
      (* Root-to-leaf path through the process tree for each blocked
         leaf, so the diagnostic names where in the computation it
         hangs, not just what it waits on. *)
      let path n =
        let rec climb acc m =
          match m.parent with
          | Ptop | Pfut _ -> m.nid :: acc
          | Pchild (p, _) -> climb (m.nid :: acc) p
        in
        climb [] n |> List.map string_of_int |> String.concat ">"
      in
      let tally = Hashtbl.create 7 in
      List.iter
        (fun e ->
          let ps = try Hashtbl.find tally e.e_res with Not_found -> [] in
          Hashtbl.replace tally e.e_res (path e.e_node :: ps))
        live;
      let parts =
        Hashtbl.fold (fun res ps acc -> (res, List.rev ps) :: acc) tally []
        |> List.sort compare
        |> List.map (fun (res, ps) ->
               Printf.sprintf "%d on %s (paths %s)" (List.length ps) res
                 (String.concat ", " ps))
      in
      Printf.sprintf "%d %s parked: %s" (List.length live) counted
        (String.concat ", " parts)
