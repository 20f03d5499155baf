(* Runtime types of the process-stack machine (Section 7 of the paper).
   Everything here is mutually recursive — values contain closures over
   environments, continuations contain frames containing values — so the
   whole runtime representation lives in this single types-only module.
   No .mli: the definitions are the interface.

   The central structure is the PROCESS STACK: a stack of labeled stacks of
   activation records ("frames").  A call to spawn pushes an empty segment
   carrying a fresh label; invoking a process controller removes all
   segments down to and including the topmost segment with the matching
   label and packages them into a process continuation; invoking a process
   continuation pushes the saved segments back. *)

type label = int

(* How continuations are represented, for experiments E1/E2:
   [Linked] shares the segment spines (the paper's implementation: control
   operations are linear in the number of control points); [Copying] copies
   every frame, modeling stack-copying implementations whose control
   operations are linear in the size of the continuation. *)
type strategy = Linked | Copying

type value =
  | Int of int
  | Bool of bool
  | Str of string
  | Sym of string
  | Char of char
  | Nil
  | Unit
  | Undef  (* the value of uninitialized letrec bindings *)
  | Pair of pair
  | Vector of value array
  | Closure of closure
  | Prim of prim
  | Controller of label
      (* the process controller passed by spawn; applying it captures and
         aborts back to the topmost segment labeled [label] *)
  | Pk of pk_local
      (* a process continuation whose captured subtree is a pure stack of
         segments (no forks): the sequential case *)
  | Pktree of pktree
      (* a process continuation capturing a genuine subtree of the process
         tree, produced by the concurrent scheduler *)
  | Cont of cont  (* a call/cc continuation: the entire process stack *)
  | Future of future_cell
      (* a Multilisp-style future (Section 8): an independent tree of the
         process forest; [touch] waits for its value *)
  | Fcont of frame list
      (* a functional continuation captured by Felleisen's F: a flat list of
         frames up to the nearest prompt, with any intervening spawn roots
         erased — which is precisely why F cannot manage process trees *)

and pair = { mutable car : value; mutable cdr : value }

and future_cell = {
  mutable fvalue : value option;
  mutable fwaiters : (unit -> unit) list;
      (* wake thunks registered (newest first) by the concurrent
         scheduler for branches parked on a pending touch; run once, in
         park order, when the cell's value is delivered (a thunk whose
         branch a capture pruned does nothing) *)
}

(* The runtime environment is a chain of flat "rib" frames: one value
   array per binding form (lambda application, let, letrec).  The
   resolution pass (Resolve) compiles every variable occurrence to a
   lexical address — rib depth and slot — so access is two array
   indexings, never a string comparison.  Globals live in mutable cells
   interned in a per-interpreter table; unresolved references intern an
   unbound cell so errors are still reported by name at use time. *)
and env = value array list

and gcell = { gname : string; mutable gval : value; mutable gbound : bool }

and genv = (string, gcell) Hashtbl.t

and rir = (value, gcell) Ir.resolved

and rlambda = (value, gcell) Ir.rlambda

and closure = { nparams : int; has_rest : bool; cbody : rir; cenv : env }

and prim = { pname : string; pmin : int; pmax : int option; pkind : prim_kind }

and prim_kind =
  | Pure of (value list -> (value, string) result)
  | Ctl of ctl  (* operators that manipulate the process stack *)

and ctl =
  | Op_spawn
  | Op_callcc
  | Op_prompt
  | Op_fcontrol
  | Op_apply
  | Op_touch
  | Op_wind
  | Op_sleep  (* park until the scheduler's virtual clock advances *)
  | Op_span_begin  (* open a causal span; returns its id *)
  | Op_span_end  (* close a span by id *)

(* What established a segment.  [Rbase] is the bottom of a task's stack;
   [Rspawn l] is a process root; [Rprompt] is Felleisen's #. *)
and root = Rbase | Rspawn of label | Rprompt

and frame =
  | Fapp of value list * rir list * env
      (* evaluated values in reverse (operator first), remaining operands *)
  | Fpcall of value list * rir list * env
      (* sequential evaluation of a pcall: same protocol as Fapp *)
  | Fif of rir * rir * env
  | Fseq of rir list * env
  | Flet of value list * rir list * rir * env
      (* evaluated initialisers (reversed), remaining initialisers, body,
         the let form's own environment; the rib is built when the last
         initialiser returns *)
  | Fletrec of value array * int * rir list * rir * env
      (* the rib being filled, slot of the initialiser being evaluated,
         remaining initialisers, body; env already extended with the rib *)
  | Fset of value array * int
      (* destination rib and slot of a [set!] on a local *)
  | Fsetg of gcell  (* destination cell of a [set!] on a global *)
  | Ffuture of future_cell
      (* sequential evaluation of (future e): fill the cell on return *)
  | Fwind of value * value
      (* (dynamic-wind before thunk after): [before]/[after] thunks; the
         after runs on normal return AND when a controller captures across
         this frame; the before re-runs when a process continuation
         reinstates it (the Subcontinuations-1994 extension) *)
  | Fwinding of value list * wind_target
      (* winder thunks still to run, then the target action *)

and wind_target =
  | Wreturn of value  (* deliver this value *)
  | Wapply of value * value list  (* perform this application *)
  | Wenter of value * value * value  (* install Fwind(before, after), run thunk *)

and segment = {
  mutable root : root;
  mutable frames : frame list;
  mutable winders : (value * value) list;
      (* the (before, after) pairs of the Fwind frames in [frames],
         innermost first — maintained alongside the frames so control
         operations find winders in O(winders), never O(frames),
         preserving the O(control points) claim of Section 7 *)
  mutable shared : bool;
      (* true once the record is aliased by a captured continuation (a
         [Pk], [Pktree] or [Cont] under the Linked strategy).  The
         machine never field-mutates a shared record: it copies first
         (copy-on-write), and never returns one to the segment pool.
         Frame lists themselves stay immutable, so sharing a spine is
         always safe; only the records need the flag. *)
}

and control =
  | Ceval of rir * env
  | Creturn of value
  | Capply of value * value list

and state = { control : control; pstack : segment list }

and pk_local = {
  pk_label : label;
  mutable pk_segments : segment list;
  pk_once : bool;
      (* the controller body was statically recognised as using its
         process continuation linearly (at most once), so reinstatement
         may MOVE the segments — pointer transfer, no pinning, no copy —
         and invalidate the source *)
  mutable pk_consumed : bool;  (* a one-shot pk that has been applied *)
}

and cont = { ck_pstack : segment list }

(* A captured subtree of the process tree.  [pkt_tree] is always a [Pfork]
   whose trunk ends (at the bottom) with the segment labeled [pkt_label]. *)
and pktree = { pkt_label : label; pkt_tree : ptree }

and ptree =
  | Pleaf of state  (* a suspended sibling branch *)
  | Phole of segment list
      (* the branch that invoked the controller: its local segments; on
         reinstatement the process continuation's argument is returned here *)
  | Pdone  (* a branch that had already finished; its value is in results *)
  | Pfork of pfork

and pfork = {
  pf_trunk : segment list;  (* segments between this fork and its parent *)
  pf_children : ptree array;
  pf_results : value option array;
}
