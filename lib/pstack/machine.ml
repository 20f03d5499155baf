open Types
module Counters = Pcont_util.Counters
module Id = Pcont_util.Id

type config = {
  strategy : strategy;
  counters : Counters.t;
  labels : Id.t;
  spans : Id.t;  (* span ids when no trace handle allocates them *)
  fastpath : bool;
      (* enables the segment pool and the one-shot move path; [false]
         reproduces the pre-optimization allocation behavior so benchmarks
         can measure both in one run *)
  pool : segment array;
      (* free-listed segment records, slots [0 .. pool_n-1] live.  A fixed
         array rather than a list so recycling allocates nothing. *)
  mutable pool_n : int;
  mutable pool_ops : int;
      (* recycles since the last pool flush.  Pooled records that survive
         a minor collection are promoted to the major heap, and every
         frame write on an old record pays the full write barrier — so a
         record that circulates through the pool indefinitely makes the
         whole interpreter slower, not faster.  Aging the pool out every
         [pool_age] recycles bounds any promoted record's circulation. *)
  pool_hit : int ref;  (* cached cells for the pool counters: the *)
  pool_miss : int ref; (* acquire/release sites skip the hash lookup *)
  pk_moved : int ref;
  mutable lin_cache : (rir * int) list;
      (* memoized one-shot classification, keyed by physical identity of
         the controller-body code node: the same (lambda (k) ...) site
         classifies identically on every capture, so the linearity walk
         runs once per site, not once per capture.  Bounded by the number
         of controller bodies in the program.  -1 encodes "not linear". *)
  mutable metrics : Pcont_obs.Obs.Metrics.t option;
      (* distribution half of the observability metrics; the drivers set it
         while a trace handle is attached, so the no-handle path stays a
         single pattern match *)
}

let pool_cap = 64
let pool_age = 16

(* Fills unused pool slots; [shared] so a leak through any bug is inert. *)
let dummy_segment = { root = Rbase; frames = []; winders = []; shared = true }

let config ?(strategy = Linked) ?(fastpath = true) () =
  let counters = Counters.create () in
  {
    strategy;
    counters;
    labels = Id.create ();
    spans = Id.create ();
    fastpath;
    pool = Array.make pool_cap dummy_segment;
    pool_n = 0;
    pool_ops = 0;
    pool_hit = Counters.cell counters "machine.pool.hit";
    pool_miss = Counters.cell counters "machine.pool.miss";
    pk_moved = Counters.cell counters "machine.capture.moved";
    lin_cache = [];
    metrics = None;
  }

(* The one Rbase record is shared by every run and every forked branch, so
   it is permanently [shared]: the first frame push copies it. *)
let initial_pstack = [ { root = Rbase; frames = []; winders = []; shared = true } ]

(* ------------------------------------------------------------------ *)
(* Segment pool                                                        *)
(* ------------------------------------------------------------------ *)

(* Fresh segments are needed at exactly two rates: one per spawn and one
   per prompt.  Their records die at the matching return (the first branch
   of [return_value]), which recycles any record no continuation aliases —
   so spawn-heavy loops reuse a handful of records instead of allocating. *)
let fresh_segment cfg root =
  if cfg.fastpath && cfg.pool_n > 0 then begin
    let n = cfg.pool_n - 1 in
    cfg.pool_n <- n;
    let seg = Array.unsafe_get cfg.pool n in
    Array.unsafe_set cfg.pool n dummy_segment;
    incr cfg.pool_hit;
    seg.root <- root;
    seg
  end
  else begin
    if cfg.fastpath then incr cfg.pool_miss;
    { root; frames = []; winders = []; shared = false }
  end

let recycle_segment cfg seg =
  if cfg.fastpath && (not seg.shared) && cfg.pool_n < pool_cap then begin
    let ops = cfg.pool_ops + 1 in
    cfg.pool_ops <- ops;
    if ops land (pool_age - 1) = 0 then begin
      (* age out: drop every pooled record AND the incoming one (clearing
         the slots so the array does not keep them alive).  The incoming
         record must go too — a hot loop's record is back in the pool
         within an op or two of any flush, so sparing it would let a
         promoted record circulate forever. *)
      Array.fill cfg.pool 0 cfg.pool_n dummy_segment;
      cfg.pool_n <- 0
    end
    else begin
      seg.frames <- [];
      seg.winders <- [];
      Array.unsafe_set cfg.pool cfg.pool_n seg;
      cfg.pool_n <- cfg.pool_n + 1;
      match cfg.metrics with
      | None -> ()
      | Some m ->
          Pcont_obs.Obs.Metrics.observe m "machine.pool.occupancy" cfg.pool_n
    end
  end

let rec recycle_segments cfg = function
  | [] -> ()
  | seg :: more ->
      recycle_segment cfg seg;
      recycle_segments cfg more

(* Young replacements for a moved segment list.  Splicing the moved
   records themselves is a trap: one record reused across a whole
   capture loop is eventually promoted, and from then on every frame
   write on it pays the full write barrier — measurably slower than
   allocating.  Routing the replacements through the pool is the same
   trap at one remove (the hot record circulates pool -> live -> pool
   and two old-array writes are paid per capture), so the reinstate
   path simply allocates: a 4-word minor allocation is nearly free. *)
let rec renew_segments = function
  | [] -> []
  | s :: more ->
      { root = s.root; frames = s.frames; winders = s.winders; shared = false }
      :: renew_segments more

(* Mark records as aliased by a captured continuation: from here on they
   are copied before any field write and never pooled. *)
let pin_segments segs = List.iter (fun seg -> seg.shared <- true) segs

let initial ir = { control = Ceval (ir, []); pstack = initial_pstack }

let future_cell () =
  { fvalue = None; fwaiters = { Pcont_sched_core.Sched_core.ws_name = "future"; ws_parked = [] } }

type stepped =
  | Next of Types.state
  | Final of Types.value
  | Err of string
  | Esc_control of Types.label * Types.value
  | Esc_pktree of Types.pktree * Types.value
  | Esc_touch of Types.future_cell
  | Esc_fork of Types.rir list * Types.env
  | Esc_future of Types.rir * Types.env
  | Esc_sleep of int
  | Esc_span_begin of string
  | Esc_span_end of int

(* The hot path returns the successor state directly; everything that ends
   or escapes the step loop is raised, so the driver pays for one handler
   per run rather than one [Next] box per transition. *)
exception Stop of stepped

let err msg = raise (Stop (Err msg))

(* Frame push/pop mutates the top record in place when it is uniquely
   owned, so the steady-state machine transition allocates no segment
   record and no list cell.  Shared records (aliased by a continuation)
   get a fresh copy first — copy-on-write — which detaches the live stack
   from the capture without ever touching the captured fields. *)
let push_frame f pstack =
  match pstack with
  | seg :: rest ->
      if seg.shared then
        let winders =
          match f with Fwind (b, a) -> (b, a) :: seg.winders | _ -> seg.winders
        in
        { root = seg.root; frames = f :: seg.frames; winders; shared = false }
        :: rest
      else begin
        (match f with
        | Fwind (b, a) -> seg.winders <- (b, a) :: seg.winders
        | _ -> ());
        seg.frames <- f :: seg.frames;
        pstack
      end
  | [] -> assert false

(* Replace the top segment's frames ([pstack] must be [seg :: rest]). *)
let set_frames pstack seg fs rest =
  if seg.shared then
    { root = seg.root; frames = fs; winders = seg.winders; shared = false } :: rest
  else begin
    seg.frames <- fs;
    pstack
  end

(* Same, also replacing the winder list (the two winder transitions). *)
let set_top pstack seg fs ws rest =
  if seg.shared then { root = seg.root; frames = fs; winders = ws; shared = false } :: rest
  else begin
    seg.frames <- fs;
    seg.winders <- ws;
    pstack
  end

(* Run winder thunks one by one (discarding their values), then perform
   the target action. *)
let rec run_winders st thunks target =
  match thunks with
  | [] -> (
      match target with
      | Wreturn v -> { st with control = Creturn v }
      | Wapply (f, args) -> { st with control = Capply (f, args) }
      | Wenter (before, thunk, after) ->
          let pstack = push_frame (Fwind (before, after)) st.pstack in
          { control = Capply (thunk, []); pstack })
  | t :: rest ->
      let pstack = push_frame (Fwinding (rest, target)) st.pstack in
      { control = Capply (t, []); pstack }

(* [after] thunks of winders inside captured segments, innermost first —
   the order in which an abort exits their dynamic extents. *)
and afters_of segs = List.concat_map (fun seg -> List.map snd seg.winders) segs

(* [before] thunks, outermost first — re-entry order on reinstatement. *)
and befores_of segs = List.rev (befores_rev segs)

and befores_rev segs = List.concat_map (fun seg -> List.map fst seg.winders) segs

let split_at_spawn_label l pstack =
  let rec go captured = function
    | [] -> None
    | seg :: rest when seg.root = Rspawn l -> Some (List.rev (seg :: captured), rest)
    | seg :: rest -> go (seg :: captured) rest
  in
  go [] pstack

let count_frames segs =
  List.fold_left (fun n seg -> n + List.length seg.frames) 0 segs

let copy_segments segs =
  (* Rebuild every cons cell of every frame list: the per-frame work a
     stack-copying implementation performs.  Frames themselves are immutable
     and can be shared.  The copies are fresh records, owned by whoever
     asked for them, so they start unshared. *)
  List.map
    (fun seg ->
      {
        root = seg.root;
        frames = List.map Fun.id seg.frames;
        winders = seg.winders;
        shared = false;
      })
    segs

(* Record the cost of moving [segs] during a control operation named [op]
   ("capture" or "reinstate"), and return the representation to store:
   under [Copying] the frames are physically copied. *)
let charge cfg op segs =
  let nsegs = List.length segs in
  Counters.add cfg.counters (op ^ ".segments") nsegs;
  (match cfg.metrics with
  | None -> ()
  | Some m -> Pcont_obs.Obs.Metrics.observe m ("machine." ^ op ^ ".segments") nsegs);
  match cfg.strategy with
  | Linked -> segs
  | Copying ->
      Counters.add cfg.counters (op ^ ".frames") (count_frames segs);
      copy_segments segs

let prim_arity_ok p nargs =
  nargs >= p.pmin && match p.pmax with None -> true | Some m -> nargs <= m

(* ------------------------------------------------------------------ *)
(* One-shot (linear) controller bodies                                 *)
(* ------------------------------------------------------------------ *)

(* A controller body [(lambda (k) e)] uses its process continuation
   LINEARLY when no execution of [e] can apply [k] more than once and [k]
   cannot escape [e].  For such bodies the capture may MOVE the segments:
   no pinning, no copy-on-write downstream, and the records return to the
   pool when they die — the wasmfx-style one-shot optimization.

   The check is deliberately conservative.  [k] may appear only as the
   operator of a direct application whose arguments are "simple" (cannot
   capture or mention [k]); any other application anywhere in the body
   rejects, because a general call could invoke call/cc (or another
   controller) and capture the pending application of [k], re-entering it.
   Branches of an [if] may each use [k] once.  Zero uses also qualify:
   aborts like [(spawn (lambda (k) v))] never reinstate at all.

   A node budget bounds the walk so classification stays O(1) for the
   tiny bodies that dominate capture-heavy code. *)
exception Not_linear

(* The helpers live at module level and share one budget cell, reset at
   each classification: closing over a per-call ref would allocate four
   closures plus the ref per capture, visible in allocations/capture on
   generator loops.  The machine is single-threaded and the walk never
   re-enters the classifier, so the shared cell is safe. *)
let lin_budget = ref 0

let lin_spend () =
  decr lin_budget;
  if !lin_budget < 0 then raise Not_linear

(* Does [e] reference the continuation, bound at rib depth [d] slot 0? *)
let rec lin_mentions d e =
  lin_spend ();
  match e with
  | Ir.Rconst _ | Ir.Rquoted _ | Ir.Rglobal _ -> false
  | Ir.Rlocal (d', s) -> d' = d && s = 0
  | Ir.Rlam { rbody; _ } -> lin_mentions (d + 1) rbody
  | Ir.Rapp (f, args) -> lin_mentions d f || lin_mentions_any d args
  | Ir.Rif (c, t, e') ->
      lin_mentions d c || lin_mentions d t || lin_mentions d e'
  | Ir.Rseq es | Ir.Rpcall es -> lin_mentions_any d es
  | Ir.Rlet (inits, bd) -> lin_mentions_any d inits || lin_mentions (d + 1) bd
  | Ir.Rletrec (inits, bd) ->
      lin_mentions_any (d + 1) inits || lin_mentions (d + 1) bd
  | Ir.Rset_local (_, _, e') | Ir.Rset_global (_, e') | Ir.Rfuture e' ->
      lin_mentions d e'

and lin_mentions_any d = function
  | [] -> false
  | e :: rest -> lin_mentions d e || lin_mentions_any d rest

(* Arguments to the one [k]-application must not capture and must not
   smuggle [k] into a closure that could run after reinstatement. *)
let lin_simple d e =
  lin_spend ();
  match e with
  | Ir.Rconst _ | Ir.Rquoted _ | Ir.Rglobal _ -> true
  | Ir.Rlocal (d', s) -> not (d' = d && s = 0)
  | Ir.Rlam { rbody; _ } -> not (lin_mentions (d + 1) rbody)
  | _ -> false

let rec lin_all_simple d = function
  | [] -> true
  | e :: rest -> lin_simple d e && lin_all_simple d rest

(* Number of times [k] is applied along any execution of [e]. *)
let rec lin_uses d e =
  lin_spend ();
  match e with
  | Ir.Rconst _ | Ir.Rquoted _ | Ir.Rglobal _ -> 0
  | Ir.Rlocal (d', s) ->
      if d' = d && s = 0 then raise Not_linear (* bare k escapes *) else 0
  | Ir.Rapp (Ir.Rlocal (d', 0), args) when d' = d ->
      if lin_all_simple d args then 1 else raise Not_linear
  | Ir.Rapp _ | Ir.Rpcall _ | Ir.Rfuture _ ->
      (* even a k-free call can capture the context holding a pending
         use of k and replay it, so only leaf bodies qualify *)
      raise Not_linear
  | Ir.Rlam { rbody; _ } ->
      if lin_mentions (d + 1) rbody then raise Not_linear else 0
  | Ir.Rif (c, t, e') ->
      if lin_mentions d c then raise Not_linear
      else max (lin_uses d t) (lin_uses d e')
  | Ir.Rseq es -> lin_uses_sum d es
  | Ir.Rlet (inits, bd) -> lin_uses_sum d inits + lin_uses (d + 1) bd
  | Ir.Rletrec (inits, bd) -> lin_uses_sum (d + 1) inits + lin_uses (d + 1) bd
  | Ir.Rset_local (d', s, e') ->
      if d' = d && s = 0 then raise Not_linear else lin_uses d e'
  | Ir.Rset_global (_, e') -> lin_uses d e'

and lin_uses_sum d = function
  | [] -> 0
  | e :: rest -> lin_uses d e + lin_uses_sum d rest

(* [Some n] (n <= 1) when the body is a linear user of [k]; [Some 0] in
   particular means [k] occurs nowhere — an abort — so the captured
   extent is dead the moment the controller body is entered. *)
let pk_linear_uses body =
  lin_budget := 128;
  match lin_uses 0 body with
  | n -> if n <= 1 then Some n else None
  | exception Not_linear -> None

let linear_pk_use body = pk_linear_uses body <> None

(* The capture-site view of the classifier: int-encoded (-1 = not
   linear, n >= 0 = n uses) and memoized on the config so the hit path
   is a pointer-compare scan that allocates nothing. *)
let rec lin_assoc body = function
  | [] -> min_int
  | (b, n) :: more -> if b == body then n else lin_assoc body more

let pk_linear_uses_cached cfg body =
  match lin_assoc body cfg.lin_cache with
  | n when n <> min_int -> n
  | _ ->
      let n = match pk_linear_uses body with Some n -> n | None -> -1 in
      cfg.lin_cache <- (body, n) :: cfg.lin_cache;
      n

let no_winders segs = List.for_all (fun seg -> seg.winders = []) segs

(* Capture up to the nearest prompt for Felleisen's F: a flat frame list.
   Any spawn roots in between are erased (their segments' frames are
   concatenated), which is the §3 observation that F cannot respect process
   structure.  Returns (frames, remaining pstack). *)
let capture_to_prompt cfg pstack =
  let clear pstack seg rest =
    let frames = seg.frames in
    (frames, set_top pstack seg [] [] rest)
  in
  let rec go acc = function
    | [] -> (List.concat (List.rev acc), initial_pstack)
    | (seg :: rest) as ps when seg.root = Rprompt ->
        let frames, cleared = clear ps seg rest in
        (List.concat (List.rev (frames :: acc)), cleared)
    | (seg :: rest) as ps when seg.root = Rbase ->
        (* no prompt: F aborts the complete computation to the base *)
        let frames, cleared = clear ps seg rest in
        (List.concat (List.rev (frames :: acc)), cleared)
    | seg :: rest ->
        (* the erased spawn root's record dies here: F keeps only frames *)
        let frames = seg.frames in
        recycle_segment cfg seg;
        go (frames :: acc) rest
  in
  go [] pstack

(* Same message [Env.bind_params] produces for a fixed-arity mismatch. *)
let arity_error c args =
  err
    (Printf.sprintf "procedure expects %d arguments, got %d" c.nparams
       (List.length args))

(* [oneshot] permits classifying controller captures as linear.  The
   sequential driver enables it; the tree-of-stacks scheduler must not:
   a concurrent capture can package a sibling branch — including a pending
   application of its process continuation — into a multi-shot [Pktree],
   and grafting that tree twice would re-apply the "one-shot" pk. *)
let apply ?(oneshot = true) cfg st f args =
  match f with
  | Closure ({ nparams; has_rest = false; cbody; cenv } as c) ->
      (* Fast path for the common exact-arity call: fill the rib in a
         single pass over [args], with no separate length computation and
         no [result] box. *)
      let rib = Array.make nparams Undef in
      let rec fill i = function
        | [] ->
            if i = nparams then { st with control = Ceval (cbody, rib :: cenv) }
            else arity_error c args
        | v :: rest ->
            if i < nparams then begin
              Array.unsafe_set rib i v;
              fill (i + 1) rest
            end
            else arity_error c args
      in
      fill 0 args
  | Closure c -> (
      match Env.bind_params c args with
      | Ok env -> { st with control = Ceval (c.cbody, env) }
      | Error msg -> err msg)
  | Prim p -> (
      if not (prim_arity_ok p (List.length args)) then
        err
          (Printf.sprintf "%s: expects %s%d argument(s), got %d" p.pname
             (match p.pmax with
             | Some m when m = p.pmin -> ""
             | _ -> "at least ")
             p.pmin (List.length args))
      else
        match p.pkind with
        | Pure fn -> (
            match fn args with
            | Ok v -> { st with control = Creturn v }
            | Error msg -> err msg)
        | Ctl op -> (
            match (op, args) with
            | Op_spawn, [ proc ] ->
                let l = Id.fresh cfg.labels in
                Counters.incr cfg.counters "spawn";
                let pstack = fresh_segment cfg (Rspawn l) :: st.pstack in
                { control = Capply (proc, [ Controller l ]); pstack }
            | Op_callcc, [ proc ] ->
                (* call/cc aliases the entire live stack, so under Linked
                   every record in it becomes copy-on-write. *)
                if cfg.strategy = Linked then pin_segments st.pstack;
                let saved = charge cfg "capture" st.pstack in
                Counters.incr cfg.counters "callcc";
                { st with control = Capply (proc, [ Cont { ck_pstack = saved } ]) }
            | Op_prompt, [ thunk ] ->
                Counters.incr cfg.counters "prompt";
                let pstack = fresh_segment cfg Rprompt :: st.pstack in
                { control = Capply (thunk, []); pstack }
            | Op_fcontrol, [ proc ] ->
                Counters.incr cfg.counters "fcontrol";
                let frames, pstack = capture_to_prompt cfg st.pstack in
                Counters.add cfg.counters "capture.frames" (List.length frames);
                { control = Capply (proc, [ Fcont frames ]); pstack }
            | Op_wind, [ before; thunk; after ] ->
                run_winders st [ before ] (Wenter (before, thunk, after))
            | Op_touch, [ Future cell ] -> (
                match cell.fvalue with
                | Some v -> { st with control = Creturn v }
                | None -> raise (Stop (Esc_touch cell)))
            | Op_touch, [ v ] ->
                (* Multilisp: touching a non-future returns it. *)
                { st with control = Creturn v }
            | Op_sleep, [ Int n ] -> raise (Stop (Esc_sleep n))
            | Op_sleep, [ _ ] -> err "sleep: argument must be an integer"
            | Op_span_begin, [ Str s ] -> raise (Stop (Esc_span_begin s))
            | Op_span_begin, [ _ ] -> err "span-begin: argument must be a string"
            | Op_span_end, [ Int n ] -> raise (Stop (Esc_span_end n))
            | Op_span_end, [ _ ] -> err "span-end: argument must be an integer"
            | Op_apply, [ proc; arglist ] -> (
                match Value.list_to_values arglist with
                | Some vs -> { st with control = Capply (proc, vs) }
                | None -> err "apply: last argument must be a proper list")
            | _ -> err (p.pname ^ ": bad control-operator arguments")))
  | Controller l -> (
      match args with
      | [ body ] -> (
          match split_at_spawn_label l st.pstack with
          | Some (captured, rest) ->
              let captured = charge cfg "capture" captured in
              Counters.incr cfg.counters "controller";
              (* One-shot fast path: a linear body takes sole ownership of
                 the segments (the split already removed them from the live
                 stack), so they stay unshared — mutable in place after the
                 move, and pool-eligible when they die.  Winders disqualify:
                 an after thunk runs before the body and could itself
                 capture the pending body application. *)
              let uses =
                if
                  oneshot && cfg.fastpath
                  && cfg.strategy = Linked
                  && no_winders captured
                then
                  match body with
                  | Closure { nparams = 1; has_rest = false; cbody; _ } ->
                      pk_linear_uses_cached cfg cbody
                  | _ -> -1
                else -1
              in
              (match uses with
              | 0 ->
                  (* ABORT: [k] occurs nowhere in the body, so the captured
                     extent is dead on entry — recycle its records now
                     instead of packaging them.  The pk still exists (the
                     body is unary) but arrives pre-consumed, so an
                     application the analysis ruled out fails loudly.
                     [no_winders] holds, so there are no afters to run. *)
                  recycle_segments cfg captured;
                  incr cfg.pk_moved;
                  let pk =
                    Pk
                      {
                        pk_label = l;
                        pk_segments = [];
                        pk_once = true;
                        pk_consumed = true;
                      }
                  in
                  run_winders { st with pstack = rest } [] (Wapply (body, [ pk ]))
              | n when n > 0 ->
                  (* no winders by [no_winders], so no afters to run *)
                  let pk =
                    Pk
                      {
                        pk_label = l;
                        pk_segments = captured;
                        pk_once = true;
                        pk_consumed = false;
                      }
                  in
                  run_winders { st with pstack = rest } [] (Wapply (body, [ pk ]))
              | _ ->
                  if cfg.strategy = Linked then pin_segments captured;
                  let pk =
                    Pk
                      {
                        pk_label = l;
                        pk_segments = captured;
                        pk_once = false;
                        pk_consumed = false;
                      }
                  in
                  (* Exiting the captured extent runs its winders' afters,
                     innermost first, in the context outside the root,
                     before the controller's argument is applied. *)
                  run_winders { st with pstack = rest } (afters_of captured)
                    (Wapply (body, [ pk ])))
          | None -> raise (Stop (Esc_control (l, body))))
      | _ -> err "controller: expects exactly one argument")
  | Pk pk -> (
      match args with
      | [ v ] ->
          if pk.pk_once then begin
            (* MOVE: pointer transfer of the segments and invalidation of
               the source.  The linearity analysis makes a second
               application unreachable from the classified body; reaching
               this error means the pk escaped through a path the analysis
               should have rejected, so fail loudly rather than corrupt. *)
            if pk.pk_consumed then
              err "one-shot process continuation applied more than once";
            let segs = renew_segments (charge cfg "reinstate" pk.pk_segments) in
            pk.pk_consumed <- true;
            pk.pk_segments <- [];
            Counters.incr cfg.counters "pk-invoke";
            incr cfg.pk_moved;
            (* no winders by construction, so no befores to re-run *)
            { control = Creturn v; pstack = segs @ st.pstack }
          end
          else begin
            let segs = charge cfg "reinstate" pk.pk_segments in
            Counters.incr cfg.counters "pk-invoke";
            (* Re-entering the reinstated extent runs its winders' befores,
               outermost first, before the value reaches the capture point. *)
            run_winders
              { control = Creturn v; pstack = segs @ st.pstack }
              (befores_of segs) (Wreturn v)
          end
      | _ -> err "process continuation: expects exactly one argument")
  | Pktree pkt -> (
      match args with
      | [ v ] -> raise (Stop (Esc_pktree (pkt, v)))
      | _ -> err "process continuation: expects exactly one argument")
  | Cont c -> (
      match args with
      | [ v ] ->
          let segs = charge cfg "reinstate" c.ck_pstack in
          Counters.incr cfg.counters "cont-invoke";
          { control = Creturn v; pstack = segs }
      | _ -> err "continuation: expects exactly one argument")
  | Fcont frames -> (
      match args with
      | [ v ] ->
          Counters.add cfg.counters "reinstate.frames" (List.length frames);
          let pstack =
            match st.pstack with
            | seg :: rest ->
                let extra =
                  List.filter_map
                    (function Fwind (b, a) -> Some (b, a) | _ -> None)
                    frames
                in
                { seg with frames = frames @ seg.frames; winders = extra @ seg.winders }
                :: rest
            | [] -> assert false
          in
          { control = Creturn v; pstack }
      | _ -> err "functional continuation: expects exactly one argument")
  | v -> err ("application of a non-procedure: " ^ Value.to_string v)

(* Deliver a returned value to the topmost frame, or pop a segment.
   Each branch builds its successor's segment directly — popping the
   delivered-to frame and pushing any replacement in one record — so the
   common frame transition costs one segment and one state allocation,
   with no intermediate [Creturn] state.  The replacement frames are
   never [Fwind], so [winders] carries over except in the two winder
   branches, which handle it explicitly. *)
let return_value cfg st v =
  match st.pstack with
  | [] -> assert false
  | ({ frames = []; _ } as seg) :: rest -> (
      match seg.root with
      | Rbase ->
          if rest = [] then raise (Stop (Final v))
          else err "internal error: base segment above other segments"
      | Rspawn _ ->
          (* Normal return from a spawned process removes its root; the
             record is dead unless a continuation captured it. *)
          recycle_segment cfg seg;
          { control = Creturn v; pstack = rest }
      | Rprompt ->
          (* A value returning to a prompt falls through to the prompt
             application's continuation. *)
          recycle_segment cfg seg;
          { control = Creturn v; pstack = rest })
  | ({ frames = f :: fs; _ } as seg) :: rest -> (
      let ps = st.pstack in
      match f with
      (* Unary and binary applications, specialized: the generic case
         conses [v] on and reverses, costing k+2 fresh cells for a k-ary
         call where these need one or two. *)
      | Fapp ([ op ], [], _) ->
          { control = Capply (op, [ v ]); pstack = set_frames ps seg fs rest }
      | Fapp ([ a1; op ], [], _) ->
          { control = Capply (op, [ a1; v ]); pstack = set_frames ps seg fs rest }
      | Fapp (vals, [], _) ->
          let all = List.rev (v :: vals) in
          { control = Capply (List.hd all, List.tl all);
            pstack = set_frames ps seg fs rest }
      | Fapp (vals, e :: es, env) ->
          { control = Ceval (e, env);
            pstack = set_frames ps seg (Fapp (v :: vals, es, env) :: fs) rest }
      | Fpcall (vals, [], _) ->
          let all = List.rev (v :: vals) in
          { control = Capply (List.hd all, List.tl all);
            pstack = set_frames ps seg fs rest }
      | Fpcall (vals, e :: es, env) ->
          { control = Ceval (e, env);
            pstack = set_frames ps seg (Fpcall (v :: vals, es, env) :: fs) rest }
      | Fif (thn, els, env) ->
          { control = Ceval ((if Value.is_truthy v then thn else els), env);
            pstack = set_frames ps seg fs rest }
      | Fseq ([], _) -> { control = Creturn v; pstack = set_frames ps seg fs rest }
      | Fseq ([ e ], env) ->
          { control = Ceval (e, env); pstack = set_frames ps seg fs rest }
      | Fseq (e :: es, env) ->
          { control = Ceval (e, env);
            pstack = set_frames ps seg (Fseq (es, env) :: fs) rest }
      | Flet (done_, [], body, env) ->
          let rib = Array.of_list (List.rev (v :: done_)) in
          { control = Ceval (body, rib :: env); pstack = set_frames ps seg fs rest }
      | Flet (done_, e :: es, body, env) ->
          { control = Ceval (e, env);
            pstack = set_frames ps seg (Flet (v :: done_, es, body, env) :: fs) rest }
      | Fletrec (rib, i, [], body, env) ->
          rib.(i) <- v;
          { control = Ceval (body, env); pstack = set_frames ps seg fs rest }
      | Fletrec (rib, i, e :: es, body, env) ->
          rib.(i) <- v;
          { control = Ceval (e, env);
            pstack = set_frames ps seg (Fletrec (rib, i + 1, es, body, env) :: fs) rest }
      | Fset (rib, slot) ->
          rib.(slot) <- v;
          { control = Creturn Unit; pstack = set_frames ps seg fs rest }
      | Fsetg g ->
          g.gval <- v;
          { control = Creturn Unit; pstack = set_frames ps seg fs rest }
      | Ffuture fc ->
          fc.fvalue <- Some v;
          { control = Creturn (Future fc); pstack = set_frames ps seg fs rest }
      | Fwind (_, after) ->
          (* normal return exits the wind: run the after, then deliver v *)
          let pstack = set_top ps seg fs (List.tl seg.winders) rest in
          run_winders { control = Creturn v; pstack } [ after ] (Wreturn v)
      | Fwinding (pending, target) ->
          (* a winder thunk finished; its value is discarded *)
          run_winders
            { control = Creturn v; pstack = set_frames ps seg fs rest }
            pending target)

(* Read a lexical address.  Inlined here rather than via Env so the
   hot path is a tight loop over the rib chain. *)
let rec rib_at env d =
  match env with
  | rib :: rest -> if d = 0 then rib else rib_at rest (d - 1)
  | [] -> assert false

(* [conc] selects who owns pcall/future: the sequential fallback evaluates
   them in-line; the concurrent scheduler takes them as escapes, so its
   driver loop needs no per-step control inspection of its own. *)
let step_gen ~conc cfg st =
  match st.control with
  | Creturn v -> return_value cfg st v
  | Capply (f, args) -> apply ~oneshot:(not conc) cfg st f args
  | Ceval (ir, env) -> (
      match ir with
      | Ir.Rconst v -> { st with control = Creturn v }
      | Ir.Rquoted q -> { st with control = Creturn (Resolve.quoted_value q) }
      | Ir.Rlocal (d, s) ->
          { st with control = Creturn (Array.unsafe_get (rib_at env d) s) }
      | Ir.Rglobal g ->
          if g.gbound then { st with control = Creturn g.gval }
          else err ("unbound variable: " ^ g.gname)
      | Ir.Rlam { rnparams; rhas_rest; rbody } ->
          {
            st with
            control =
              Creturn
                (Closure
                   { nparams = rnparams; has_rest = rhas_rest; cbody = rbody; cenv = env });
          }
      | Ir.Rapp (f, args) ->
          let pstack = push_frame (Fapp ([], args, env)) st.pstack in
          { control = Ceval (f, env); pstack }
      | Ir.Rif (c, t, e) ->
          let pstack = push_frame (Fif (t, e, env)) st.pstack in
          { control = Ceval (c, env); pstack }
      | Ir.Rseq [] -> { st with control = Creturn Unit }
      | Ir.Rseq [ e ] -> { st with control = Ceval (e, env) }
      | Ir.Rseq (e :: es) ->
          let pstack = push_frame (Fseq (es, env)) st.pstack in
          { control = Ceval (e, env); pstack }
      | Ir.Rlet ([], body) -> { st with control = Ceval (body, env) }
      | Ir.Rlet (e :: es, body) ->
          let pstack = push_frame (Flet ([], es, body, env)) st.pstack in
          { control = Ceval (e, env); pstack }
      | Ir.Rletrec ([], body) -> { st with control = Ceval (body, env) }
      | Ir.Rletrec ((e0 :: es as inits), body) ->
          let rib = Array.make (List.length inits) Undef in
          let env' = rib :: env in
          let pstack = push_frame (Fletrec (rib, 0, es, body, env')) st.pstack in
          { control = Ceval (e0, env'); pstack }
      | Ir.Rset_local (d, s, e) ->
          let pstack = push_frame (Fset (rib_at env d, s)) st.pstack in
          { control = Ceval (e, env); pstack }
      | Ir.Rset_global (g, e) ->
          (* The unbound check happens before the right-hand side runs,
             matching the old by-name lookup at this point. *)
          if not g.gbound then err ("set!: unbound variable: " ^ g.gname)
          else
            let pstack = push_frame (Fsetg g) st.pstack in
            { control = Ceval (e, env); pstack }
      | Ir.Rfuture e ->
          if conc then raise (Stop (Esc_future (e, env)))
          else
            (* Sequential fallback: evaluate eagerly; the future is
               resolved by the time it is returned. *)
            let pstack = push_frame (Ffuture (future_cell ())) st.pstack in
            { control = Ceval (e, env); pstack }
      | Ir.Rpcall [] -> err "pcall: expects at least an operator expression"
      | Ir.Rpcall exprs ->
          if conc then raise (Stop (Esc_fork (exprs, env)))
          else
            (* Sequential fallback: evaluate left to right in this branch. *)
            let pstack =
              push_frame (Fpcall ([], List.tl exprs, env)) st.pstack
            in
            { control = Ceval (List.hd exprs, env); pstack })

let step_exn cfg st = step_gen ~conc:false cfg st

let step_exn_conc cfg st = step_gen ~conc:true cfg st

let step cfg st =
  match step_exn cfg st with st' -> Next st' | exception Stop s -> s
