(** The scheduling environment shared by the two process-tree
    schedulers: the pstack machine's ({!Pcont_pstack.Concur}, Section 7)
    and the native effect-handler one ({!Pcont_sched.Sched}).

    The core owns a run's state, everything about the process forest
    that does not depend on what a leaf is: the live tree, the run queue
    and the policies that order it, the climb to a controller's root,
    captured subtrees with the capture walk and the graft that rebuilds
    them, waitsets and parked entries with their wake emission and
    deadlock census, the timer heap and the virtual clock, the stepping
    node and each node's span, the live-node census, cancellation
    sweeps, and every lifecycle and slice event.  A capture or a cancel
    kills every node it prunes ([Ndone]), so a queued node is runnable
    exactly when it is a leaf, and a killed parked entry holds neither
    its node nor its leaf.  A backend supplies the payload types — a
    leaf ['l], the extra state of a wait ['w], a result value ['v], the
    hole of a capture ['h] — and one closure that steps a leaf for a
    slice.  Every event and distribution the core emits is named by the
    backend's prefix ([concur.*] or [sched.*]). *)

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
  mutable span : int;
      (** the causal span the node runs in (-1 = none): the stepping
          node's at birth; a backend updates the {!stepping} node's in
          place as spans open and close *)
}

and ('l, 'w, 'v) parent =
  | Ptop
  | Pfut of ('v -> unit)  (** root of a future's tree; receives its value *)
  | Pchild of ('l, 'w, 'v) node * int

and ('l, 'w, 'v) body =
  | Nleaf of 'l
  | Nwait of ('l, 'w, 'v) wait
  | Nparked of ('l, 'w, 'v) entry  (** not runnable, not stepped *)
  | Ndone  (** delivered, or pruned by a capture or cancel *)

and ('l, 'w, 'v) wait = {
  wx : 'w;
  children : ('l, 'w, 'v) node array;
  results : 'v option array;
  mutable pending : int;
}

and ('l, 'w, 'v) entry
(** A parked leaf: its node, what it resumes as when woken or captured,
    and the resource class its wake events and diagnoses name. *)

(** The entries parked on one blocking resource, newest first; the name
    is the resource class events and deadlock diagnoses report.  A
    capture or cancel kills an entry but leaves it on the list, holding
    nothing. *)
type ('l, 'w, 'v) waitset = { ws_name : string; mutable ws_parked : ('l, 'w, 'v) entry list }

(** A captured subtree: [Phole] is the leaf that invoked the controller,
    [Pwait] a wait's state with its children and results so far. *)
type ('l, 'w, 'v, 'h) ptree =
  | Pleaf of 'l
  | Phole of 'h
  | Pdone
  | Pwait of 'w * ('l, 'w, 'v, 'h) ptree array * 'v option array

val ptree_sum :
  leaf:('l -> int) -> hole:('h -> int) -> done_:int -> wait:('w -> int) -> ('l, 'w, 'v, 'h) ptree -> int
(** A measure summed over a captured subtree's nodes. *)

type ('l, 'w, 'v) t

val create :
  ?obs:Pcont_obs.Obs.t ->
  ?counters:Pcont_util.Counters.t ->
  prefix:string ->
  nouns:string * string ->
  resume:('w -> 'v array -> 'l) ->
  policy ->
  'l ->
  ('l, 'w, 'v) t
(** A forest whose root (pid 0, span -1) is the given leaf, at virtual
    time 0, with the root as the stepping node.  [prefix] names the
    sketches ([prefix.runq.depth], [prefix.park.rounds]) and, with
    [counters], the [prefix.park]/[prefix.wake] counters.  [nouns] is
    the plural and counted noun of deadlock diagnoses, e.g.
    [("fibers", "fiber(s)")].  [resume wx results] is the leaf a wait
    becomes when its last child delivers. *)

val final : ('l, 'w, 'v) t -> 'v option
(** The root's value, once delivered. *)

val peak : ('l, 'w, 'v) t -> int
(** The most nodes live at once so far.  A node is live from the event
    that announces it (a spawn, or its place in a graft batch) until its
    exit or the cancel that sweeps it; the count is kept with or without
    a handle. *)

val halt : ('l, 'w, 'v) t -> unit
(** Step nothing more: rounds keep their queue but run no slice. *)

val now : ('l, 'w, 'v) t -> int
(** The virtual clock: the fuel charged to slices so far (at least 1
    each), plus the jumps to timer deadlines at quiescence. *)

val stepping : ('l, 'w, 'v) t -> ('l, 'w, 'v) node
(** The node of the slice begun last: the one running, during a slice.
    New nodes take its span. *)

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

(** {1 Capture and graft} *)

val find_root :
  ('l, 'w, 'v) t ->
  ('l, 'w, 'v) node ->
  int ->
  ('w -> 'r option) ->
  (('l, 'w, 'v) node * ('l, 'w, 'v) wait * 'r) option
(** [find_root t n label root] climbs from [n], within its own tree, to
    the nearest wait whose state [root] accepts: the root of controller
    [label].  With none it emits [Invalid_controller]. *)

val capture :
  ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'h -> ('l, 'w, 'v) node -> ('l, 'w, 'v, 'h) ptree
(** [capture t n hole m] copies the subtree [m], with [Phole hole] for
    the invoking node [n], and kills every node of it.  A parked leaf's
    entry is killed and the leaf captured as runnable, so on graft it
    re-checks its condition.  The caller then puts something else in
    [m]'s place. *)

val graft :
  ('l, 'w, 'v) t ->
  ('l, 'w, 'v) node ->
  'w ->
  ('l, 'w, 'v, 'h) ptree array ->
  'v option array ->
  ('h -> 'l) ->
  unit
(** [graft t n wx pts results hole] rebuilds captured subtrees as fresh
    children of a wait [wx] on [n], the hole as leaf [hole h], makes
    their leaves runnable and announces them as one graft batch. *)

val discard :
  ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> ('l, 'w, 'v) node -> reason:string -> unit
(** [discard t n scope ~reason]: cancellation as declined reinstatement.
    Kill every node under the wait [scope] and its parked entries, and
    announce the live ones (pre-order) in one cancel by [n].  The caller
    forks a replacement under [scope]. *)

(** {1 Parking and timers} *)

val block : ('l, 'w, 'v) t -> ('l, 'w, 'v) waitset -> ('l, 'w, 'v) node -> 'l -> unit
(** Park the node on the waitset; it resumes as the given leaf. *)

val wake_all : ('l, 'w, 'v) t -> ('l, 'w, 'v) waitset -> unit
(** Wake every live entry of the waitset, in park order, and empty it. *)

val parked : ('l, 'w, 'v) waitset -> int
(** Live entries on the waitset. *)

val sleep : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> 'l -> int -> unit
(** Park on the timer heap until the clock reaches now + d. *)

val wake_resource : ('l, 'w, 'v) t -> string -> unit
(** Wake every live entry parked on the named resource, in park order. *)

(** {1 Running} *)

val slice_begin : ('l, 'w, 'v) t -> ('l, 'w, 'v) node -> unit
(** Begin the node's slice: it becomes the {!stepping} node. *)

val slice_end : ('l, 'w, 'v) t -> int -> unit
(** End the stepping node's slice, charged the given fuel: the clock
    advances by it (at least 1). *)

val advance : ('l, 'w, 'v) t -> (('l, 'w, 'v) node -> 'l -> unit) -> bool
(** One turn of the run loop with the given stepping closure: expire due
    timers and run a round, or jump the clock to the next timer.
    [false] at quiescence. *)

val deadlock_msg : ('l, 'w, 'v) t -> string
(** Emit the deadlock event and describe the parked entries. *)
