(** The scheduling environment shared by the two process-tree
    schedulers: the pstack machine's ({!Pcont_pstack.Concur}, Section 7)
    and the native effect-handler one ({!Pcont_sched.Sched}).

    The core owns everything about the process forest that does not
    depend on what a leaf is: the live tree and its attachment test, the
    run queue and the policies that order it, parked entries with their
    wake emission and deadlock census, the timer heap and the virtual
    clock, span inheritance, and the slice events.  A backend supplies
    the payload types — a leaf ['l], the extra state of a wait ['w], a
    result value ['v] — and one closure that steps a leaf for a slice.
    Every event and histogram the core emits is named by the backend's
    prefix ([concur.*] or [sched.*]). *)

type policy =
  | Round_robin  (** deterministic: leaves step in process-tree order *)
  | Randomized of int64  (** seeded shuffle of the leaf order each round *)
  | Driven_pids of (int array -> int)
      (** systematic schedule exploration and record/replay: each
          scheduling decision steps exactly one runnable leaf for one
          slice.  The decision function receives the runnable leaves'
          pids (node ids as they appear in the event stream) in queue
          order and returns the index of the one to step.  The index is
          reduced modulo the runnable count ([((i mod n) + n) mod n]), so
          any integer is a valid decision and a decision function
          computed against one schedule stays total if the run diverges.
          A decision on the count alone is
          [Driven_pids (fun pids -> f (Array.length pids))]. *)

type ('l, 'w, 'v) node = {
  nid : int;
  mutable parent : ('l, 'w, 'v) parent;
  mutable body : ('l, 'w, 'v) body;
}

and ('l, 'w, 'v) parent =
  | Ptop
  | Pfut of ('v -> unit)  (** root of a future's tree; receives its value *)
  | Pchild of ('l, 'w, 'v) node * int

and ('l, 'w, 'v) body =
  | Nleaf of 'l
  | Nwait of ('l, 'w, 'v) wait
  | Nparked of ('l, 'w, 'v) entry  (** not runnable, not stepped *)
  | Ndone

and ('l, 'w, 'v) wait = {
  wx : 'w;
  children : ('l, 'w, 'v) node array;
  results : 'v option array;
  mutable pending : int;
}

and ('l, 'w, 'v) entry = {
  e_node : ('l, 'w, 'v) node;
  e_leaf : 'l;  (** what the node resumes as when woken or captured *)
  e_res : string;  (** resource class, for wake events and diagnoses *)
  e_round : int;
  mutable e_live : bool;
}

(** One node of a captured subtree, as {!graft} sees it. *)
type ('l, 'w, 'v, 'pt) shape =
  | Sleaf of 'l
  | Sdone
  | Swait of 'w * 'pt array * 'v option array

type ('l, 'w, 'v) t

val create :
  ?obs:Pcont_obs.Obs.t ->
  ?counters:Pcont_util.Counters.t ->
  prefix:string ->
  nouns:string * string ->
  clock:int ref ->
  span:int ref ->
  resume:('w -> 'v array -> 'l) ->
  policy ->
  'l ->
  ('l, 'w, 'v) t
(** A forest whose root (pid 0) is the given leaf.  [prefix] names the
    histograms ([prefix.slice.fuel], [.runq.depth], [.park.rounds],
    [.wake.run]) and, with [counters], the [prefix.park]/[prefix.wake]
    counters.  [nouns] is the plural and counted noun of deadlock
    diagnoses, e.g. [("fibers", "fiber(s)")].  [clock] is the virtual
    clock and [span] the stepping leaf's span context (-1 = none).
    [resume wx results] is the leaf a wait becomes when its last child
    delivers. *)

val final : ('l, 'w, 'v) t -> 'v option
(** The root's value, once delivered. *)

val halt : ('l, 'w, 'v) t -> unit
(** Step nothing more: rounds keep their queue but run no slice. *)

val prune : ('l, 'w, 'v) t -> unit
(** Record that a capture detached a subtree from the live forest. *)

(** {1 The live tree} *)

val become_leaf : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'l -> unit
(** Make the node a runnable leaf in the stepped node's place. *)

val deliver : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'v -> unit

val fork :
  ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'w -> string -> ('a -> 'l) -> 'a list -> unit
(** [fork t n wx kind leaf xs] makes [n] a wait over one fresh child
    [leaf x] per element, announced as [kind] spawns. *)

val plant : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'l -> ('v -> unit) -> unit
(** Plant an independent future tree, spawned by the given node. *)

val graft :
  ('l, 'w, 'v) t ->
  ('l, 'w, 'v) node ->
  'w ->
  'pt array ->
  'v option array ->
  ('pt -> ('l, 'w, 'v, 'pt) shape) ->
  unit
(** Rebuild captured subtrees as fresh children of a wait on the node,
    make their leaves runnable, and announce them as one graft batch. *)

(** {1 Parking and timers} *)

val park : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> res:string -> 'l -> ('l, 'w, 'v) entry

val sleep : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'l -> int -> unit
(** Park on the timer heap until the clock reaches now + d. *)

val release : ('l, 'w, 'v) t -> ('l, 'w, 'v) entry -> unit
(** Invalidate the live entry of a node a capture prunes. *)

val wake : ('l, 'w, 'v) t -> ('l, 'w, 'v) entry -> unit
(** Wake a live entry (a dead one is ignored) and emit its wake.  The
    node becomes runnable at the next {!flush_woken}. *)

val flush_woken : ('l, 'w, 'v) t -> unit

val wake_resource : ('l, 'w, 'v) t -> string -> unit
(** Wake every live entry parked on the named resource, in park order. *)

(** {1 Running} *)

val slice_begin : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> unit

val slice_end : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> int -> unit
(** End the node's slice, charged the given fuel. *)

val advance : ('l, 'w, 'v) t -> (('l, 'w, 'v) node -> 'l -> unit) -> bool
(** One turn of the run loop with the given stepping closure: expire due
    timers and run a round, or jump the clock to the next timer.
    [false] at quiescence. *)

val deadlock_msg : ('l, 'w, 'v) t -> string
(** Emit the deadlock event and describe the parked entries. *)
