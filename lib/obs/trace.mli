(** Re-ingestion of exported JSONL traces, and the one process-tree
    model every {!Analysis} reads: fed one stamped event at a time, it
    holds each run's tree (a [psi] session traces one run per top-level
    form, with global [seq]/[ts] but per-run pids) with per-node status
    and timelines.

    Parsing is tolerant: any well-formed line is accepted even when the
    event stream it describes is inconsistent (that is {!Analysis.Check}'s
    job), but unknown event tags, missing or mistyped fields, numbers
    outside {!Obs.Json.int}'s range and malformed JSON are reported
    with their line number. *)

type stamped = { seq : int; ts : int; ev : Obs.Event.t }
(** One trace line: the event plus its stamp. *)

val to_json : stamped -> Obs.Json.t
(** [to_json s] is [Obs.Event.to_json ~seq:s.seq ~ts:s.ts s.ev]. *)

val parse_string : string -> (stamped array, string) result
(** Parse a JSONL trace body.  Blank lines are skipped; the first
    malformed line fails the whole parse with a [line N: ...] message
    (the rest is {!Obs.Event.of_json}'s).  Never raises. *)

val load : string -> (stamped array, string) result
(** [parse_string] over a file's contents ([Error] on IO failure). *)

(** {1 The model}

    A run starts at a root spawn ([Spawn { parent = -1; _ }]) and
    extends to the next root spawn or the end of the trace; events
    before the first root spawn form a leading run of their own.  The
    model resets its per-run state at a root spawn; spans carry over,
    as span ids belong to the handle.  A trace whose first seq is
    nonzero is a window (a flight-recorder dump): a pid it references
    before spawning was spawned before the cut and is registered as a
    ["pre-window"] node (parent [-2], park state unknown).  Only a live
    pid changes state: an event by a dead or (outside a window) unknown
    pid changes nothing but a slice end and a fate.  Tolerant of any
    stream; {!Analysis.Check} reports what it tolerates. *)

type status = Live | Exited | Pruned | Cancelled

type node = {
  n_pid : int;
  n_parent : int;  (** [-1] for the root, [-2] pre-window *)
  n_kind : string;
  n_order : int;  (** spawn order in the run ([-2] pre-window) *)
  mutable n_children : int list;  (** pids, latest spawn first *)
  mutable n_status : status;
  mutable n_status_ts : int;  (** ts of the spawn or of the death *)
  mutable n_parked : string option;  (** the resource it is parked on *)
  mutable n_park_ts : int;
  mutable n_park_unknown : bool;  (** pre-window, parked at the cut or not *)
  mutable n_woken : int;  (** ts of a wake its next slice has not followed, or [-1] *)
  mutable n_slices : int;
  mutable n_run : int;  (** total virtual time inside run slices *)
  mutable n_fuel : int;
  mutable n_parks : int;
  mutable n_wakes : int;
  mutable n_captures : int;
  mutable n_reinstates : int;
  mutable n_sends : int;
  mutable n_recvs : int;
  mutable n_blocked : (string * int) list;
      (** virtual time parked, per resource, over parks a wake, prune or
          cancel closed (see {!blocked}) *)
  mutable n_fate : string;
      (** [""] unless the node died abnormally: ["timed-out"] when a
          cancel whose reason mentions ["timeout"] discarded it,
          ["cancelled"] for any other cancel, ["crashed"] for a
          {!Obs.Event.Crash} on it, ["restarted"] when a supervisor
          restarted the child it rooted.  When several apply,
          restarted > crashed > timed-out/cancelled, and the first
          cancel wins over later ones. *)
}

type slice = {
  sl_pid : int;
  sl_begin : int;  (** run index of the [Slice_begin] event *)
  sl_end : int;  (** run index of the event that closed it *)
  sl_begin_ts : int;
  sl_end_ts : int;
}

type run = {
  r_start : int;  (** stream index of the run's first event *)
  r_events : int;
  r_nodes : node array;  (** sorted by pid *)
  r_slices : slice array;  (** in begin order; one still open ends at the last event *)
  r_span : int;  (** last ts − first ts *)
  r_end_ts : int;
  r_deadlock : int option;
  r_cancelled_parked : int;  (** nodes a cancel discarded while parked *)
}

type span = { sp_name : string; sp_t0 : int; sp_run : int; mutable sp_open : bool }
(** A span id once begun ([sp_run] is the run it began in, [-1] when it
    began before a window's cut). *)

module Pids : Hashtbl.S with type key = int

type model = private {
  mutable m_watch : (stamped -> unit) list;
  mutable m_events : int;  (** events fed *)
  mutable m_base : int;  (** first seq *)
  mutable m_window : bool;
  mutable m_clock : int;  (** greatest ts fed, [min_int] before any *)
  mutable m_run : int;  (** the current run's index in {!runs} *)
  m_nodes : node Pids.t;  (** the current run's nodes *)
  mutable m_order : int;
  mutable m_start : int;
  mutable m_first_ts : int;
  mutable m_last_ts : int;
  mutable m_open : bool;  (** a slice is open: its pid, begin's run index and ts *)
  mutable m_open_pid : int;
  mutable m_open_at : int;
  mutable m_open_ts : int;
  mutable m_slices : int array;
  mutable m_nslices : int;  (** slices closed in the run *)
  mutable m_live : int;  (** live nodes in the run *)
  mutable m_parked : int;  (** parked nodes in the run *)
  mutable m_deadlock : int option;
  mutable m_cancelled_parked : int;
  mutable m_pruned : int list;  (** the pids the last event (a capture) pruned *)
  m_spans : (int, span) Hashtbl.t;
  mutable m_open_spans : int;
  m_blocked : (string, int) Hashtbl.t;  (** closed-park time per resource, all runs *)
  mutable m_spawned : int;  (** all runs, like the three below *)
  mutable m_exited : int;
  mutable m_cancelled : int;
  mutable m_pruned_total : int;
  mutable m_done : run list;
}

val model : unit -> model

val watch : model -> (stamped -> unit) -> unit
(** [watch m f] runs [f] on each event fed to [m] before [m] applies it,
    so [f] reads the state the event meets.  Watchers run in order. *)

val feed : model -> stamped -> unit

val sink : model -> Obs.sink
(** Feeds every event it receives to the model. *)

val runs : model -> run array
(** Every run fed so far, the current one as it stands. *)

val reconstruct : stamped array -> run array
(** [runs] of a fresh model fed the whole trace. *)

val actor : run -> int -> int
(** [actor run i]: the index in [r_slices] of the slice open at the
    run's event [i], or [-1]. *)

val node_of : run -> int -> node option

val blocked : run -> node -> (string * int) list
(** [n_blocked] plus a park still open at the run's end, up to it. *)

val blocked_total : run -> (string * int) list
(** Total parked virtual time per resource, sorted by resource name. *)

val mentions_timeout : string -> bool
(** Whether a cancel reason names a deadline kill: it contains
    ["timeout"], as the reasons [Pcont_resil.Resil.with_timeout] and
    [with_deadline] cancel with do.  The rule behind the [timed-out]
    fate, shared with the load generator's request accounting. *)
