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
   parked on a resource, or done (its value delivered to the parent).
   Captured subtrees are converted to a backend's immutable form and
   their nodes discarded. *)
type ('l, 'w, 'v) node = {
  nid : int;
  mutable parent : ('l, 'w, 'v) parent;
  mutable body : ('l, 'w, 'v) body;
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

(* A parked leaf.  [e_live] is cleared when the leaf is woken or when a
   capture prunes it into a process continuation, so a stale reference
   left on a waitset or the timer heap does nothing.  [e_round] is the
   scheduling round the leaf parked in, for the park-latency histogram. *)
and ('l, 'w, 'v) entry = {
  e_node : ('l, 'w, 'v) node;
  e_leaf : 'l;
  e_res : string;
  e_round : int;
  mutable e_live : bool;
}

type ('l, 'w, 'v, 'pt) shape =
  | Sleaf of 'l
  | Sdone
  | Swait of 'w * 'pt array * 'v option array

(* A binary min-heap slot: (deadline, insertion seq, sleeper). *)
type ('l, 'w, 'v) timer = (int * int * ('l, 'w, 'v) entry) option

type ('l, 'w, 'v) t = {
  root : ('l, 'w, 'v) node;
  policy : policy;
  rng : Xorshift.t option;
  obs : Obs.t option;
  counters : Counters.t option;
  c_park : string;
  c_wake : string;
  nouns : string * string;  (* "branches", "branch(es)" *)
  resume : 'w -> 'v array -> 'l;
  clock : int ref;
  span : int ref;
  s_fuel : Obs.Metrics.series;
  s_runq : Obs.Metrics.series;
  s_park : Obs.Metrics.series;
  s_wake_run : Obs.Metrics.series;
  node_span : (int, int) Hashtbl.t;
  wake_ts : (int, int) Hashtbl.t;
  mutable queue : ('l, 'w, 'v) node list;
  mutable born : ('l, 'w, 'v) node list;
  mutable woken : ('l, 'w, 'v) node list;
  mutable new_trees : ('l, 'w, 'v) node list;
  mutable next_id : int;
  mutable rounds : int;
  mutable prunes : int;
  mutable halted : bool;
  mutable final : 'v option;
  mutable parked : ('l, 'w, 'v) entry list;  (* newest first, live or not *)
  mutable n_parked : int;  (* live entries *)
  mutable heap : ('l, 'w, 'v) timer array;
  mutable heap_n : int;
  mutable heap_seq : int;
}

(* Never fed: every observation site is guarded on [obs]. *)
let unobserved = lazy (Obs.Metrics.series (Obs.Metrics.create ()) "")

let create ?obs ?counters ~prefix ~nouns ~clock ~span ~resume policy leaf =
  let series name =
    match obs with
    | Some o -> Obs.Metrics.series (Obs.metrics o) (prefix ^ name)
    | None -> Lazy.force unobserved
  in
  let root = { nid = 0; parent = Ptop; body = Nleaf leaf } in
  (match obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Spawn { pid = 0; parent = -1; kind = "root" }));
  {
    root;
    policy;
    rng = (match policy with Randomized seed -> Some (Xorshift.create seed) | _ -> None);
    obs;
    counters;
    c_park = prefix ^ ".park";
    c_wake = prefix ^ ".wake";
    nouns;
    resume;
    clock;
    span;
    s_fuel = series ".slice.fuel";
    s_runq = series ".runq.depth";
    s_park = series ".park.rounds";
    s_wake_run = series ".wake.run";
    node_span = Hashtbl.create 32;
    wake_ts = Hashtbl.create 32;
    queue = [ root ];
    born = [];
    woken = [];
    new_trees = [];
    next_id = 0;
    rounds = 0;
    prunes = 0;
    halted = false;
    final = None;
    parked = [];
    n_parked = 0;
    heap = Array.make 64 None;
    heap_n = 0;
    heap_seq = 0;
  }

let final t = t.final

let halt t = t.halted <- true

let prune t = t.prunes <- t.prunes + 1

let count t name =
  match t.counters with None -> () | Some c -> Counters.incr c name

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

(* Children inherit the spawning leaf's span at fork/future/graft. *)
let inherit_span t nid =
  if !(t.span) >= 0 then Hashtbl.replace t.node_span nid !(t.span)

(* ------------------------------------------------------------------ *)
(* The live tree.                                                      *)
(* ------------------------------------------------------------------ *)

(* A node is attached iff following parent links reaches the live root
   through matching child slots.  Nodes pruned into a process
   continuation fail this test and are skipped by the scheduler. *)
let rec attached_walk t n =
  match n.parent with
  | Ptop -> n == t.root
  | Pfut _ -> ( match n.body with Ndone -> false | _ -> true)
  | Pchild (p, i) -> (
      match p.body with
      | Nwait w -> i < Array.length w.children && w.children.(i) == n && attached_walk t p
      | _ -> false)

(* Only captures ever detach a node from the live forest (grafts reuse
   captured, already-detached trees), so until one has happened every
   non-[Ndone] node is attached and the parent-chain walk can be
   skipped.  (A finished root reports detached here where the walk
   would not, but callers always guard with [is_leaf], which is false
   for [Ndone].) *)
let attached t n =
  if t.prunes = 0 then match n.body with Ndone -> false | _ -> true
  else attached_walk t n

let is_leaf n = match n.body with Nleaf _ -> true | _ -> false

let rec collect_leaves acc n =
  match n.body with
  | Nleaf _ -> n :: acc
  | Nparked _ | Ndone -> acc
  | Nwait w -> Array.fold_left collect_leaves acc w.children

let become_leaf t n leaf =
  n.body <- Nleaf leaf;
  t.born <- [ n ]

(* Deliver a leaf's final value to its parent: the run's result at the
   top, the future's delivery action for a forest tree, or a result slot
   of the parent wait, which resumes as a leaf when its last child
   completes. *)
let deliver t n v =
  n.body <- Ndone;
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
      let c = { nid = fresh_id t; parent = Pchild (n, i); body = Nleaf (leaf x) } in
      inherit_span t c.nid;
      w.children.(i) <- c;
      match t.obs with
      | None -> ()
      | Some o -> Obs.emit o (E.Spawn { pid = c.nid; parent = n.nid; kind }))
    xs;
  t.born <- Array.to_list w.children

(* Plant an independent tree in the forest (Section 8); [deliver]
   receives its value. *)
let plant t n leaf deliver =
  let f = { nid = fresh_id t; parent = Pfut deliver; body = Nleaf leaf } in
  inherit_span t f.nid;
  (* Prepended here, reversed at round end: future trees keep their
     creation order at the back of the forest without an O(n) append
     per registration. *)
  t.new_trees <- f :: t.new_trees;
  match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Spawn { pid = f.nid; parent = n.nid; kind = "future" })

(* Graft a captured subtree onto [n]: [n] becomes a wait carrying [wx]
   over the rebuilt [pts] (with their saved [results]); [view] exposes
   each captured node.  Every rebuilt leaf becomes runnable. *)
let graft t n wx pts results view =
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
    let m = { nid = fresh_id t; parent; body = Ndone } in
    (* rebuilt leaves adopt the reinstating leaf's span: the graft is
       what made them runnable again, so their work is causally part of
       the reinstating request *)
    inherit_span t m.nid;
    (match view pt with
    | Sleaf l -> m.body <- Nleaf l
    | Sdone -> ()
    | Swait (wx, pts, results) -> ignore (wait_of m wx pts results));
    m
  in
  let w = wait_of n wx pts results in
  t.born <- List.rev (collect_leaves [] n);
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
   as.  Every entry is kept for the deadlock census. *)
let park t n ~res leaf =
  count t t.c_park;
  let e = { e_node = n; e_leaf = leaf; e_res = res; e_round = t.rounds; e_live = true } in
  t.parked <- e :: t.parked;
  t.n_parked <- t.n_parked + 1;
  n.body <- Nparked e;
  (match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Park { pid = n.nid; resource = res }));
  e

(* Invalidate a parked entry whose node a capture is pruning. *)
let release t e =
  e.e_live <- false;
  t.n_parked <- t.n_parked - 1

(* Make a live entry runnable again, emitting its wake now; the node
   joins [woken] until the caller splices the batch in with
   [flush_woken].  Callers wake in park (FIFO) order, so the trace shows
   the order the leaves will actually run in. *)
let wake t e =
  if e.e_live then begin
    release t e;
    count t t.c_wake;
    e.e_node.body <- Nleaf e.e_leaf;
    t.woken <- e.e_node :: t.woken;
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Metrics.observe_series t.s_park (t.rounds - e.e_round);
        Hashtbl.replace t.wake_ts e.e_node.nid !(t.clock);
        Obs.emit o (E.Wake { pid = e.e_node.nid; resource = e.e_res })
  end

let flush_woken t =
  t.born <- List.rev_append t.woken t.born;
  t.woken <- []

(* Spuriously wake every live entry parked on the named resource. *)
let wake_resource t res =
  List.iter (fun e -> if e.e_res = res then wake t e) (List.rev t.parked);
  flush_woken t

(* The timer heap: sleepers ordered by (deadline, park order).  Entries
   are ordinary parked entries, so a capture that prunes a sleeper
   invalidates it here as on any waitset — the grafted leaf then
   resumes (early) from its sleep.  The seq tiebreak keeps sleepers with
   equal deadlines in FIFO order; insert and pop are O(log n). *)
let th_less a i j =
  match (a.(i), a.(j)) with
  | Some (di, si, _), Some (dj, sj, _) -> di < dj || (di = dj && si < sj)
  | _ -> assert false

let th_swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let insert_timer t deadline e =
  let n = t.heap_n in
  if n = Array.length t.heap then begin
    let b = Array.make (2 * n) None in
    Array.blit t.heap 0 b 0 n;
    t.heap <- b
  end;
  let a = t.heap in
  a.(n) <- Some (deadline, t.heap_seq, e);
  t.heap_seq <- t.heap_seq + 1;
  t.heap_n <- n + 1;
  let i = ref n in
  while !i > 0 && th_less a !i ((!i - 1) / 2) do
    th_swap a !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let th_peek t = match t.heap.(0) with Some (d, _, e) -> (d, e) | None -> assert false

let th_pop t =
  let a = t.heap in
  let r = match a.(0) with Some (_, _, e) -> e | None -> assert false in
  let n = t.heap_n - 1 in
  t.heap_n <- n;
  a.(0) <- a.(n);
  a.(n) <- None;
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < n && th_less a l !m then m := l;
    if r < n && th_less a r !m then m := r;
    if !m <> !i then begin
      th_swap a !i !m;
      i := !m
    end
    else fin := true
  done;
  r

(* Park [n] until the virtual clock reaches now+d. *)
let sleep t n leaf d = insert_timer t (!(t.clock) + max d 0) (park t n ~res:"timer" leaf)

(* Wake every live timer whose deadline has been reached.  Expiry
   happens between rounds, so appending to the queue is safe: the
   driven leaf's queue snapshot has already been written back. *)
let expire_due t =
  while t.heap_n > 0 && fst (th_peek t) <= !(t.clock) do
    wake t (th_pop t)
  done;
  if t.woken <> [] then begin
    t.queue <- t.queue @ List.rev t.woken;
    t.woken <- []
  end

(* ------------------------------------------------------------------ *)
(* Slices and rounds.                                                  *)
(* ------------------------------------------------------------------ *)

(* A run slice: everything a leaf does before the scheduler moves on.
   The span a leaf is inside follows it across slices. *)
let slice_begin t n =
  t.span := (match Hashtbl.find_opt t.node_span n.nid with Some s -> s | None -> -1);
  match t.obs with
  | None -> ()
  | Some o -> (
      Obs.emit o (E.Slice_begin { pid = n.nid });
      (* latency from the wake that made this leaf runnable to the slice
         that actually runs it — the runqueue delay *)
      match Hashtbl.find_opt t.wake_ts n.nid with
      | Some w ->
          Hashtbl.remove t.wake_ts n.nid;
          Obs.Metrics.observe_series t.s_wake_run (!(t.clock) - w)
      | None -> ())

(* The virtual clock advances by the fuel charged (at least 1, so
   zero-fuel slices still have visible extent) whether or not a trace
   handle is attached, which keeps timestamps — and timer behavior —
   deterministic and independent of observation. *)
let slice_end t n used =
  if !(t.span) >= 0 then Hashtbl.replace t.node_span n.nid !(t.span)
  else Hashtbl.remove t.node_span n.nid;
  let d = if used > 0 then used else 1 in
  t.clock := !(t.clock) + d;
  match t.obs with
  | None -> ()
  | Some o ->
      Obs.advance o d;
      Obs.Metrics.observe_series t.s_fuel used;
      Obs.emit o (E.Slice_end { pid = n.nid; fuel = used })

(* The nodes that take the stepped node's place in the queue: itself if
   it is still a runnable leaf, then whatever the step made runnable
   (fork children, a resumed parent, a grafted subtree's leaves).  A
   subtree's leaves are contiguous in tree order, so splicing them at
   the stepped node's position keeps the queue in exactly the order a
   full forest walk would produce next round. *)
let successors t n =
  match t.born with
  | [] ->
      (* Nothing was born, so the node's attachment is unchanged from
         the pre-step check; skip the parent-chain walk. *)
      if is_leaf n then [ n ] else []
  | b -> if is_leaf n && attached t n then n :: b else b

(* One scheduling round over the run queue: runnable leaves of the whole
   forest in tree order, maintained incrementally and lazily validated
   against [attached], so a round costs O(runnable), not O(forest).
   [step n l] runs leaf [n] (payload [l]) for one slice. *)
let round t step =
  t.rounds <- t.rounds + 1;
  (match t.obs with
  | None -> ()
  | Some _ ->
      (* Queue length may include entries gone stale since the last
         compaction; it is the work the round is about to look at. *)
      Obs.Metrics.observe_series t.s_runq (List.length t.queue));
  t.new_trees <- [];
  (match t.policy with
  | Driven_pids pick ->
      (* Systematic exploration: one decision, one leaf, one slice.  The
         pick contract needs the exact live count, so compact the queue
         up front. *)
      let arr = Array.of_list (List.filter (fun n -> is_leaf n && attached t n) t.queue) in
      let count = Array.length arr in
      if count = 0 then t.queue <- []
      else begin
        (* Out-of-range picks are reduced modulo the runnable count, so
           a decision function written against one schedule stays total
           when the run diverges. *)
        let raw = pick (Array.map (fun n -> n.nid) arr) in
        let idx = ((raw mod count) + count) mod count in
        let n = arr.(idx) in
        t.born <- [];
        (if (not t.halted) && attached t n then
           match n.body with Nleaf l -> step n l | Nwait _ | Nparked _ | Ndone -> ());
        let before = Array.to_list (Array.sub arr 0 idx) in
        let after = Array.to_list (Array.sub arr (idx + 1) (count - idx - 1)) in
        t.queue <- before @ successors t n @ after
      end
  | Round_robin ->
      (* Single fused pass: compact lazily while stepping, replacing each
         stepped position by its successors in place.  One queue
         traversal and no intermediate arrays per round. *)
      let rec go acc = function
        | [] -> t.queue <- List.rev acc
        | n :: rest -> (
            match n.body with
            | Nleaf l when attached t n ->
                if not t.halted then begin
                  t.born <- [];
                  step n l;
                  (* [successors] inlined to avoid building the singleton
                     list on the common nothing-born path. *)
                  match t.born with
                  | [] -> if is_leaf n then go (n :: acc) rest else go acc rest
                  | b ->
                      let acc =
                        if is_leaf n && attached t n then List.rev_append b (n :: acc)
                        else List.rev_append b acc
                      in
                      go acc rest
                end
                else go (n :: acc) rest
            | _ -> go acc rest)
      in
      go [] t.queue
  | Randomized _ ->
      (* The shuffle must range over exactly the live leaves (the same
         permutation a fresh forest walk would be dealt), so compact
         first.  Only the processing order is shuffled; each node's
         successors still land in its tree-order bucket. *)
      let arr = Array.of_list (List.filter (fun n -> is_leaf n && attached t n) t.queue) in
      let count = Array.length arr in
      let buckets = Array.make (max count 1) [] in
      let order = Array.init count (fun i -> i) in
      (match t.rng with None -> () | Some g -> Xorshift.shuffle g order);
      Array.iter
        (fun i ->
          let n = arr.(i) in
          t.born <- [];
          match n.body with
          | Nleaf l when attached t n ->
              if not t.halted then begin
                step n l;
                buckets.(i) <- successors t n
              end
              else buckets.(i) <- [ n ]
          | _ ->
              (* Detached or resolved since the compaction at the top of
                 the round (a sibling's step pruned or completed it):
                 drop it, exactly as the Round_robin pass does. *)
              buckets.(i) <- [])
        order;
      t.queue <- List.concat (Array.to_list buckets));
  if t.new_trees <> [] then t.queue <- t.queue @ List.rev t.new_trees

(* One turn of the driver loop: expire due timers, then run a round.
   Quiescent with timers pending, jump the virtual clock to the earliest
   live deadline instead of declaring deadlock, so timeouts stay a
   liveness backstop even when every leaf is blocked.  [false] means
   quiescence: nothing runnable and no timer pending. *)
let advance t step =
  expire_due t;
  if t.queue <> [] then begin
    round t step;
    true
  end
  else begin
    (* Discard dead (captured/cancelled) sleepers at the top of the
       heap so the peek sees the earliest live deadline; dead entries
       deeper down are dropped when they surface. *)
    while t.heap_n > 0 && not (snd (th_peek t)).e_live do
      ignore (th_pop t)
    done;
    if t.heap_n = 0 then false
    else begin
      let d, _ = th_peek t in
      let delta = d - !(t.clock) in
      t.clock := d;
      (match t.obs with Some o when delta > 0 -> Obs.advance o delta | _ -> ());
      true
    end
  end

(* Quiescence = deadlock: the queue only ever loses a node without a
   delivery when the node parks, so an empty queue with no result and no
   failure means every remaining leaf is parked on a resource nobody
   left can signal. *)
let deadlock_msg t =
  (match t.obs with
  | None -> ()
  | Some o -> Obs.emit o (E.Deadlock { parked = t.n_parked }));
  let plural, counted = t.nouns in
  let live = List.filter (fun e -> e.e_live) (List.rev t.parked) in
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
