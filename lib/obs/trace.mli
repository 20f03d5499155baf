(** Re-ingestion of exported JSONL traces.

    [Obs.Sink.jsonl] writes one stamped event per line; this module
    reads a trace back line by line with {!Obs.Event.of_json}, splits it
    into runs (a [psi] session traces one run per top-level form, with
    global [seq]/[ts] but per-run pids), and reconstructs each run's
    process tree with per-node timelines — the substrate for
    {!Analysis}'s checker, causal report and diff.

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

(** {1 Runs}

    A run starts at a root spawn ([Spawn { parent = -1; _ }]) and
    extends to the next root spawn or the end of the trace. *)

val runs : stamped array -> stamped array array
(** Split a trace into runs.  Events before the first root spawn (never
    produced by the sinks) are grouped into a leading run of their own. *)

(** {1 Process-tree reconstruction}

    One pass over a run yields everything per process: tree shape,
    slice/fuel/park/wake/capture/graft/send/recv tallies, blocked time
    and fate.  [psi --summary] prints these rows, and {!Analysis.Report}
    builds on the same reconstruction. *)

type node = {
  n_pid : int;
  n_parent : int;  (** [-1] for the root *)
  n_kind : string;
  n_spawn_ts : int;
  mutable n_children : int list;  (** pids, in spawn order *)
  mutable n_exit_ts : int option;
  mutable n_pruned_ts : int option;
      (** set when an ancestor's capture pruned this node *)
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
      (** virtual time parked, per resource, park-order; a park cut
          short by a capture-prune or the end of the run still counts
          up to that point *)
  mutable n_fate : string;
      (** [""] unless the node died abnormally: ["timed-out"] when a
          cancel whose reason mentions ["timeout"] discarded it (a
          [Pcont_resil.Resil.with_timeout]/[with_deadline] deadline
          fired), ["cancelled"] for any other cancel, ["crashed"] for a
          {!Obs.Event.Crash} on it, ["restarted"] when a supervisor
          restarted the child it rooted.  When several apply,
          restarted > crashed > timed-out/cancelled, and the first
          cancel wins over later ones. *)
}

type slice = {
  sl_pid : int;
  sl_begin : int;  (** index of the [Slice_begin] event in [r_events] *)
  sl_end : int;  (** index of the matching [Slice_end] *)
  sl_begin_ts : int;
  sl_end_ts : int;
}

type run = {
  r_events : stamped array;
  r_nodes : node array;  (** sorted by pid *)
  r_slices : slice array;  (** in begin order *)
  r_actor : int array;
      (** for each event index, the index in [r_slices] of the slice
          open at that event, or [-1] when none is (root spawn,
          deadlock, events between runs) *)
  r_first_ts : int;
  r_span : int;  (** last ts − first ts *)
  r_deadlock : int option;
  r_cancelled_parked : int;
      (** nodes that were parked (more parks than wakes) when a cancel
          discarded them *)
}

val node_of : run -> int -> node option

val mentions_timeout : string -> bool
(** Whether a cancel reason names a deadline kill: it contains
    ["timeout"], as the reasons [Pcont_resil.Resil.with_timeout] and
    [with_deadline] cancel with do.  The rule behind the [timed-out]
    fate, shared with the load generator's request accounting. *)

val reconstruct : stamped array -> run
(** Build the tree and timelines for one run (one element of {!runs}).
    Tolerant of inconsistent streams: unmatched slice ends, unknown
    pids and double wakes are skipped rather than raised — run
    {!Analysis.Check} to surface them. *)

val blocked_total : run -> (string * int) list
(** Total parked virtual time per resource, sorted by resource name. *)

val schedule : run -> int array
(** The run's schedule: the pid of each slice in begin order.  Under a
    one-decision-per-slice policy ([Driven]/[Driven_pids]) this is
    exactly the sequence of scheduler decisions, so feeding it back
    through [Driven_pids] replays the run (see [Pcont_explore]). *)
