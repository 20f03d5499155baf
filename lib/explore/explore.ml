(* Record/replay and DPOR-style schedule exploration.

   Everything here leans on two properties the schedulers already have:

   - under [Driven_pids] every scheduling decision runs exactly
     one fiber/branch for one slice, so the trace's slice-begin stream
     and the decision stream are the same sequence;
   - all remaining nondeterminism (virtual clock, pid/label/channel-id
     allocation) is a deterministic function of that sequence, so a run
     pinned to a recorded schedule reproduces the recording byte for
     byte.

   The exploration engine is dynamic partial-order reduction in the
   style of Flanagan–Godefroid 2005, driven entirely by the trace: after
   each executed schedule it finds pairs of decisions whose visible
   operations conflict (send/recv on a channel, park/wake on a waitset,
   a capture against the entries it prunes) and re-executes with the
   later decision's pid forced at the earlier index.  Conflicts are
   keyed by resource, so the shared waitset names ("channel.send",
   "channel.recv") make this an over-approximation across distinct
   channels — sound (no race is missed), merely less sparing. *)

module Obs = Pcont_obs.Obs
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module E = Pcont_obs.Obs.Event
module Json = Pcont_obs.Obs.Json
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Resil = Pcont_resil.Resil
module Concur = Pcont_pstack.Concur
module Interp = Pcont_syntax.Interp

let find_idx (a : int array) (x : int) : int option =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) = x then Some i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Faults.                                                             *)
(* ------------------------------------------------------------------ *)

module Fault = struct
  type kind = Sched.fault = Crash | Wake of string | Drop of int

  type t = { at : int; kind : kind }

  let kind_to_string = function
    | Crash -> "crash"
    | Wake r -> "wake:" ^ r
    | Drop c -> "drop:" ^ string_of_int c

  let to_string f = Printf.sprintf "%s@%d" (kind_to_string f.kind) f.at

  (* The injection hook for [Sched.run]: one lookup per slice index. *)
  let to_inject faults =
    fun i -> List.find_map (fun f -> if f.at = i then Some f.kind else None) faults

  (* Inverse of the scheduler's in-trace markers ("inject:crash",
     "inject:wake:<res>", "inject:drop:<id>"). *)
  let kind_of_marker s =
    let strip p =
      let lp = String.length p in
      if String.length s >= lp && String.sub s 0 lp = p then
        Some (String.sub s lp (String.length s - lp))
      else None
    in
    if s = "inject:crash" then Some Crash
    else
      match strip "inject:wake:" with
      | Some r -> Some (Wake r)
      | None -> (
          match strip "inject:drop:" with
          | Some c -> int_of_string_opt c |> Option.map (fun c -> Drop c)
          | None -> None)
end

(* ------------------------------------------------------------------ *)
(* Schedules.                                                          *)
(* ------------------------------------------------------------------ *)

module Schedule = struct
  type t = { decisions : int array; faults : Fault.t list }

  let of_trace evs =
    let runs = Trace.runs evs in
    let parts = Array.map (fun r -> Trace.schedule (Trace.reconstruct r)) runs in
    (* Re-extract injected faults from their markers: each marker is
       emitted just before its target slice's begin event, so a fault's
       index is the count of slice-begins seen before it (global across
       runs, matching the flat decision sequence). *)
    let faults = ref [] in
    let slices = ref 0 in
    Array.iter
      (fun (st : Trace.stamped) ->
        match st.ev with
        | E.Slice_begin _ -> incr slices
        | E.Crash { fault; _ } -> (
            match Fault.kind_of_marker fault with
            | Some kind -> faults := { Fault.at = !slices; kind } :: !faults
            | None -> ())
        | _ -> ())
      evs;
    { decisions = Array.concat (Array.to_list parts); faults = List.rev !faults }

  let to_json t =
    let fault_json (f : Fault.t) =
      Json.Obj
        [
          ("at", Json.Num (float_of_int f.at));
          ("fault", Json.Str (Fault.kind_to_string f.kind));
        ]
    in
    Json.Obj
      ([
         ("version", Json.Num 1.);
         ("kind", Json.Str "pcont-schedule");
         ( "decisions",
           Json.Arr
             (Array.to_list (Array.map (fun d -> Json.Num (float_of_int d)) t.decisions)) );
       ]
      @ if t.faults = [] then [] else [ ("faults", Json.Arr (List.map fault_json t.faults)) ])

  let fault_of_json j =
    match (Option.bind (Json.member "at" j) Json.int, Json.member "fault" j) with
    | Some at, Some (Json.Str s) -> (
        let kind =
          if s = "crash" then Some Fault.Crash
          else
            Fault.kind_of_marker ("inject:" ^ s)
        in
        match kind with
        | Some kind -> Ok { Fault.at; kind }
        | None -> Error ("schedule: unknown fault " ^ s))
    | _ -> Error "schedule: fault needs an in-range integral \"at\" and string \"fault\""

  let of_json j =
    match Json.member "decisions" j with
    | Some (Json.Arr ds) -> (
        let decisions = Array.of_list (List.filter_map Json.int ds) in
        if Array.length decisions <> List.length ds then
          Error "schedule: non-integral or out-of-range decision"
        else
          (* "faults" is optional: schedules recorded before fault
             injection existed load unchanged. *)
          match Json.member "faults" j with
          | None -> Ok { decisions; faults = [] }
          | Some (Json.Arr fs) ->
              let rec go acc = function
                | [] -> Ok { decisions; faults = List.rev acc }
                | f :: rest -> (
                    match fault_of_json f with
                    | Ok f -> go (f :: acc) rest
                    | Error m -> Error m)
              in
              go [] fs
          | Some _ -> Error "schedule: \"faults\" is not an array")
    | Some _ -> Error "schedule: \"decisions\" is not an array"
    | None -> Error "schedule: missing \"decisions\" field"

  let save path t =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Json.to_string (to_json t));
        Out_channel.output_char oc '\n')

  let load path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error m -> Error m
    | txt -> (
        (* A schedule file is a single JSON object carrying "decisions";
           anything else is treated as a JSONL trace. *)
        match Json.parse (String.trim txt) with
        | Ok j when Json.member "decisions" j <> None -> of_json j
        | _ -> (
            match Trace.parse_string txt with
            | Ok evs -> Ok (of_trace evs)
            | Error m -> Error m))
end

(* ------------------------------------------------------------------ *)
(* Targets.                                                            *)
(* ------------------------------------------------------------------ *)

type target = {
  tg_name : string;
  tg_run : Sched.policy -> Fault.t list -> Obs.t option -> string;
}

let native_target tg_name (prog : unit -> string) =
  {
    tg_name;
    tg_run =
      (fun policy faults obs ->
        let inject =
          match faults with [] -> None | fs -> Some (Fault.to_inject fs)
        in
        (* Every exception becomes an outcome string: an injected crash
           that escapes its fiber must terminate the run, not the
           exploration loop driving it. *)
        match Sched.run ~policy ?obs ?inject prog with
        | v -> "value " ^ v
        | exception Sched.Deadlock m -> m
        | exception e -> "error: " ^ Printexc.to_string e);
  }

let pstack_target tg_name src =
  {
    tg_name;
    tg_run =
      (fun policy faults obs ->
        if faults <> [] then
          (* Fault injection is a native-scheduler feature; a pstack
             target reports it rather than silently ignoring the
             faults (the outcome stays deterministic either way). *)
          "error: fault injection is not supported on pstack targets"
        else
          let t = Interp.create () in
          ignore (Interp.take_output ());
          let results = Interp.eval_string ~mode:(Interp.Concurrent policy) ?obs t src in
          let out = Interp.take_output () in
          let body = String.concat "; " (List.map Interp.result_to_string results) in
          if out = "" then body else body ^ " | output: " ^ out);
  }

(* ------------------------------------------------------------------ *)
(* Record / replay.                                                    *)
(* ------------------------------------------------------------------ *)

module Replay = struct
  type divergence = { d_decision : int; d_wanted : int; d_candidates : int array }

  let driver (s : Schedule.t) =
    let k = ref 0 and div = ref None in
    let note d = if !div = None then div := Some d in
    let pick pids =
      let i = !k in
      incr k;
      if i >= Array.length s.decisions then begin
        note { d_decision = i; d_wanted = -1; d_candidates = Array.copy pids };
        0
      end
      else
        let want = s.decisions.(i) in
        match find_idx pids want with
        | Some j -> j
        | None ->
            note { d_decision = i; d_wanted = want; d_candidates = Array.copy pids };
            0
    in
    (pick, fun () -> !div)

  type recording = {
    rec_trace : string;
    rec_outcome : string;
    rec_schedule : Schedule.t;
  }

  let record ?(policy = Sched.Round_robin) ?(faults = []) ?attach target =
    let buf = Buffer.create 4096 in
    let o = Obs.create () in
    Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
    (match attach with Some f -> f o | None -> ());
    let outcome = target.tg_run policy faults (Some o) in
    Obs.close o;
    let trace = Buffer.contents buf in
    let sched =
      match Trace.parse_string trace with
      | Ok evs -> Schedule.of_trace evs
      | Error _ -> { Schedule.decisions = [||]; faults = [] }
    in
    { rec_trace = trace; rec_outcome = outcome; rec_schedule = sched }

  let replay target (sched : Schedule.t) =
    let pick, div = driver sched in
    let r = record ~policy:(Sched.Driven_pids pick) ~faults:sched.faults target in
    (r, div ())

  let pp_divergence d =
    let cands = String.concat ", " (Array.to_list (Array.map string_of_int d.d_candidates)) in
    if d.d_wanted < 0 then
      Printf.sprintf "decision %d: schedule exhausted (runnable: %s)" d.d_decision cands
    else
      Printf.sprintf "decision %d: recorded pid %d not runnable (runnable: %s)" d.d_decision
        d.d_wanted cands

  let first_diff a b =
    let rec go i = function
      | [], [] -> Printf.sprintf "traces differ (line %d)" i
      | x :: _, [] -> Printf.sprintf "replay is shorter: recording line %d is %s" i x
      | [], y :: _ -> Printf.sprintf "replay is longer: extra line %d is %s" i y
      | x :: xs, y :: ys ->
          if String.equal x y then go (i + 1) (xs, ys)
          else Printf.sprintf "line %d: recorded %s, replayed %s" i x y
    in
    go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

  let check_roundtrip ?policy ?faults target =
    let r = record ?policy ?faults target in
    let r2, div = replay target r.rec_schedule in
    match div with
    | Some d -> Error ("replay diverged at " ^ pp_divergence d)
    | None ->
        if not (String.equal r2.rec_outcome r.rec_outcome) then
          Error
            (Printf.sprintf "outcome differs:\n  recorded: %s\n  replayed: %s" r.rec_outcome
               r2.rec_outcome)
        else if not (String.equal r2.rec_trace r.rec_trace) then Error (first_diff r.rec_trace r2.rec_trace)
        else Ok r
end

(* ------------------------------------------------------------------ *)
(* DPOR exploration.                                                   *)
(* ------------------------------------------------------------------ *)

module Dpor = struct
  type witness = {
    w_kind : string;
    w_outcome : string;
    w_schedule : Schedule.t;
    w_runs_to_find : int;
    w_forced : int;
  }

  type stats = {
    s_runs : int;
    s_probes : int;
    s_schedules : int;
    s_skeletons : int;
    s_races : int;
    s_witness : witness option;
  }

  (* One pinned execution: follow [prefix] by pid (falling back to index
     0 on divergence — backtrack prefixes are built from enabled pids,
     so in practice they never diverge), default to index 0 afterwards,
     and log every decision's candidates and choice. *)
  type exec = {
    x_trace : string;
    x_outcome : string;
    x_log : (int array * int) array;
    x_faults : Fault.t list;
  }

  let execute target (prefix : int array) (faults : Fault.t list) : exec =
    let buf = Buffer.create 4096 in
    let o = Obs.create () in
    Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
    let k = ref 0 in
    let log = ref [] in
    let pick pids =
      let i = !k in
      incr k;
      let idx =
        if i < Array.length prefix then
          match find_idx pids prefix.(i) with Some j -> j | None -> 0
        else 0
      in
      log := (Array.copy pids, pids.(idx)) :: !log;
      idx
    in
    let outcome = target.tg_run (Sched.Driven_pids pick) faults (Some o) in
    Obs.close o;
    {
      x_trace = Buffer.contents buf;
      x_outcome = outcome;
      x_log = Array.of_list (List.rev !log);
      x_faults = faults;
    }

  (* A run's class key: [Analysis.Diff]'s projection — pids renamed to
     spawn order, per-pid program-order causal facts, scheduling events
     dropped — including its per-resource operation orders (for each
     channel the send/recv order, for each waitset the park/wake order).
     Operations on the same resource are the dependent ones, so their
     relative order is exactly what a racing-pair flip changes; per-pid
     facts alone cannot see it (two interleavings of the same sends are
     per-pid identical).  With both parts the key is a Mazurkiewicz-trace
     invariant: equal iff no racing pair is ordered differently. *)
  let skeleton evs =
    let b = Buffer.create 256 in
    let facts = Array.iter (fun f -> Buffer.add_string b f; Buffer.add_char b ';') in
    Array.iter
      (fun run ->
        let p = Analysis.Diff.project run in
        Buffer.add_char b '{';
        facts p.pr_global;
        Array.iter
          (fun fs ->
            Buffer.add_char b '[';
            facts fs;
            Buffer.add_char b ']')
          p.pr_pids;
        List.iter
          (fun (k, ops) ->
            Buffer.add_char b '|';
            Buffer.add_string b k;
            Buffer.add_char b ':';
            facts ops)
          p.pr_resources;
        Buffer.add_char b '}')
      (Trace.runs evs);
    Buffer.contents b

  let classify ~deadlock_is_bug ~check evs outcome =
    match Analysis.Check.run evs with
    | v :: _ -> Some ("check:" ^ v.Analysis.Check.v_rule)
    | [] ->
        if
          deadlock_is_bug
          && Array.exists
               (fun (st : Trace.stamped) ->
                 match st.ev with E.Deadlock _ -> true | _ -> false)
               evs
        then Some "deadlock"
        else (
          match check with
          | None -> None
          | Some f -> Option.map (fun m -> "assert:" ^ m) (f evs outcome))

  (* Racing decisions of one executed schedule, as backtrack prefixes.
     Decision indices and trace slices are 1:1 (each driven decision
     runs exactly one slice), so a run's slice [a] is global decision
     [base + a] and the event→slice map [r_actor] attributes every
     visible operation to its decision. *)
  let backtracks (ex : exec) (evs : Trace.stamped array) : int array list =
    let chosen = Array.map snd ex.x_log in
    let cands = Array.map fst ex.x_log in
    let ndecisions = Array.length chosen in
    let out = ref [] in
    let push i q =
      if i < ndecisions && chosen.(i) <> q && Array.exists (Int.equal q) cands.(i)
      then out := Array.append (Array.sub chosen 0 i) [| q |] :: !out
    in
    let base = ref 0 in
    Array.iter
      (fun revs ->
        let run = Trace.reconstruct revs in
        let nslices = Array.length run.Trace.r_slices in
        let ops = Array.make (max nslices 1) [] in
        let cap_pruned = ref [] in
        Array.iteri
          (fun i (st : Trace.stamped) ->
            let a = run.Trace.r_actor.(i) in
            if a >= 0 && a < nslices then
              match st.ev with
              | E.Send { chan; _ } | E.Recv { chan; _ } ->
                  ops.(a) <- ("c" ^ string_of_int chan) :: ops.(a)
              | E.Park { resource; _ } | E.Wake { resource; _ } ->
                  ops.(a) <- ("w" ^ resource) :: ops.(a)
              | E.Capture _ ->
                  (* [reconstruct] stamps the nodes this capture pruned
                     with the capture's ts: those are the entries whose
                     running races with the capture itself. *)
                  let pruned =
                    Array.fold_left
                      (fun acc (n : Trace.node) ->
                        match n.Trace.n_pruned_ts with
                        | Some t when t = st.ts -> n.Trace.n_pid :: acc
                        | _ -> acc)
                      [] run.Trace.r_nodes
                  in
                  cap_pruned := (a, pruned) :: !cap_pruned
              | _ -> ())
          revs;
        let dense = ref [] in
        Array.iteri (fun a l -> if l <> [] then dense := (!base + a, l) :: !dense) ops;
        let dense = Array.of_list (List.rev !dense) in
        let m = Array.length dense in
        for jj = 0 to m - 1 do
          let j, opj = dense.(jj) in
          if j < ndecisions then
            for ii = 0 to jj - 1 do
              let i, opi = dense.(ii) in
              if
                i < ndecisions
                && chosen.(i) <> chosen.(j)
                && List.exists (fun o -> List.mem o opj) opi
              then push i chosen.(j)
            done
        done;
        List.iter
          (fun (a, pruned) -> List.iter (fun q -> push (!base + a) q) pruned)
          !cap_pruned;
        base := !base + nslices)
      (Trace.runs evs);
    List.rev !out

  let key (a : int array) =
    String.concat "," (List.map string_of_int (Array.to_list a))

  let fkey faults = String.concat "+" (List.map Fault.to_string faults)

  let explore ?(max_runs = 200) ?(deadlock_is_bug = true) ?(fault_menu = [])
      ?(max_fault_slices = 200) ?check target =
    let seen_prefixes = Hashtbl.create 64 in
    let seen_schedules = Hashtbl.create 64 in
    let skeletons = Hashtbl.create 64 in
    let frontier = Queue.create () in
    Queue.add ([||], []) frontier;
    Hashtbl.replace seen_prefixes (key [||]) ();
    let runs = ref 0 and probes = ref 0 and races = ref 0 in
    let witness = ref None in
    let minimize (ex : exec) kind =
      (* Bisect the forced-prefix length (the faults, being part of the
         schedule, are kept); the result always comes from a re-verified
         execution, so a non-monotone bug is never mis-reported, merely
         minimized less. *)
      let full = Array.map snd ex.x_log in
      let reproduces k =
        incr probes;
        let e = execute target (Array.sub full 0 k) ex.x_faults in
        match Trace.parse_string e.x_trace with
        | Error _ -> None
        | Ok evs -> (
            match classify ~deadlock_is_bug ~check evs e.x_outcome with
            | Some kk when String.equal kk kind -> Some e
            | _ -> None)
      in
      let lo = ref 0 and hi = ref (Array.length full) and best = ref ex in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        match reproduces mid with
        | Some e ->
            best := e;
            hi := mid
        | None -> lo := mid + 1
      done;
      {
        w_kind = kind;
        w_outcome = !best.x_outcome;
        w_schedule =
          { Schedule.decisions = Array.map snd !best.x_log;
            faults = !best.x_faults };
        w_runs_to_find = !runs;
        w_forced = !hi;
      }
    in
    let first = ref true in
    while !witness = None && !runs < max_runs && not (Queue.is_empty frontier) do
      let prefix, faults = Queue.pop frontier in
      let ex = execute target prefix faults in
      incr runs;
      (* Fault placements are enumerated once, from the unconstrained
         default run: one single-fault schedule per (kind, slice) pair.
         Each placement then explores its own backtrack tree below, so
         schedule races and fault timing compose. *)
      if !first then begin
        first := false;
        let nslices = min (Array.length ex.x_log) max_fault_slices in
        List.iter
          (fun kind ->
            for at = 0 to nslices - 1 do
              Queue.add ([||], [ { Fault.at; kind } ]) frontier
            done)
          fault_menu
      end;
      let sched = Array.map snd ex.x_log in
      let k = key sched ^ "|" ^ fkey faults in
      if not (Hashtbl.mem seen_schedules k) then begin
        Hashtbl.replace seen_schedules k ();
        match Trace.parse_string ex.x_trace with
        | Error m ->
            witness :=
              Some
                {
                  w_kind = "trace-parse:" ^ m;
                  w_outcome = ex.x_outcome;
                  w_schedule = { Schedule.decisions = sched; faults };
                  w_runs_to_find = !runs;
                  w_forced = Array.length sched;
                }
        | Ok evs -> (
            Hashtbl.replace skeletons (skeleton evs) ();
            match classify ~deadlock_is_bug ~check evs ex.x_outcome with
            | Some kind -> witness := Some (minimize ex kind)
            | None ->
                List.iter
                  (fun p ->
                    let pk = key p ^ "|" ^ fkey faults in
                    if not (Hashtbl.mem seen_prefixes pk) then begin
                      Hashtbl.replace seen_prefixes pk ();
                      incr races;
                      (* backtracks inherit the run's faults: the race
                         is explored within the same fault scenario *)
                      Queue.add (p, faults) frontier
                    end)
                  (backtracks ex evs))
      end
    done;
    {
      s_runs = !runs;
      s_probes = !probes;
      s_schedules = Hashtbl.length seen_schedules;
      s_skeletons = Hashtbl.length skeletons;
      s_races = !races;
      s_witness = !witness;
    }

  type sweep = {
    sw_seeds : int;
    sw_skeletons : int;
    sw_found : (int * string) option;
  }

  let seed_sweep ?(seeds = 100) ?(deadlock_is_bug = true) ?(fault_menu = [])
      ?check target =
    let skels = Hashtbl.create 64 in
    let found = ref None in
    let consider s (r : Replay.recording) =
      match Trace.parse_string r.Replay.rec_trace with
      | Error m -> if !found = None then found := Some (s, "trace-parse:" ^ m)
      | Ok evs -> (
          Hashtbl.replace skels (skeleton evs) ();
          match classify ~deadlock_is_bug ~check evs r.Replay.rec_outcome with
          | Some kind when !found = None -> found := Some (s, kind)
          | _ -> ())
    in
    for s = 1 to seeds do
      let clean = Replay.record ~policy:(Sched.Randomized (Int64.of_int s)) target in
      consider s clean;
      (* The randomized-fault baseline: one seed-derived fault placement
         per seed, drawn over the clean run's slice count.  This is what
         the systematic placement enumeration in [explore] displaces. *)
      if fault_menu <> [] then begin
        let nslices = Array.length clean.Replay.rec_schedule.Schedule.decisions in
        if nslices > 0 then begin
          let kind =
            List.nth fault_menu (s mod List.length fault_menu)
          in
          let at = (s * 2654435761) land max_int mod nslices in
          let r =
            Replay.record
              ~policy:(Sched.Randomized (Int64.of_int s))
              ~faults:[ { Fault.at; kind } ]
              target
          in
          consider s r
        end
      end
    done;
    { sw_seeds = seeds; sw_skeletons = Hashtbl.length skels; sw_found = !found }
end

(* ------------------------------------------------------------------ *)
(* Built-in workloads.                                                 *)
(* ------------------------------------------------------------------ *)

module Workloads = struct
  let gen_pstack_src =
    "(let ([f (future (* 3 (+ 2 2)))])\n\
    \  (pcall + (+ 1 2) (touch f) (* 2 (touch f))))"

  let gen_native =
    native_target "gen" (fun () ->
        let f = Sched.future (fun () -> 3 * (2 + 2)) in
        let xs =
          (* Four branches, not three: the pstack pcall forks its
             operator expression too, and the skeletons must match
             child for child. *)
          Sched.pcall
            [
              (fun () -> 0);
              (fun () -> 1 + 2);
              (fun () -> Sched.touch f);
              (fun () -> 2 * Sched.touch f);
            ]
        in
        string_of_int (List.fold_left ( + ) 0 xs))

  let gen_pstack = pstack_target "gen-pstack" gen_pstack_src

  let racing n =
    native_target
      (Printf.sprintf "racing-%d" n)
      (fun () ->
        let c = Channel.create ~capacity:1 () in
        let branches =
          List.init n (fun i () ->
              Channel.send c (i + 1);
              0)
          @ List.init n (fun _ () -> Channel.recv c)
        in
        let vs = Sched.pcall branches in
        string_of_int (List.fold_left ( + ) 0 vs))

  let lost_wakeup =
    native_target "lost-wakeup" (fun () ->
        let ws = Sched.Waitset.create "event" in
        let flag = ref false in
        let waiter () =
          (* BUG: yields between the check and the park and never
             re-checks, so a signal completed inside that one-yield
             window is lost.  The waiter's check and park slices sit in
             consecutive rounds, and the window between them spans at
             most the tail of one round plus the head of the next — two
             signaler slices.  The signal below takes three slices from
             store to wake, so no round-based policy (any seed, any
             within-round order) can fit it inside the window; only a
             driven schedule that starves the waiter exposes the bug. *)
          if not !flag then begin
            Sched.yield ();
            Sched.block ws
          end;
          assert !flag
        in
        let signaler () =
          flag := true;
          (* preemption points between the store and the wake: the
             classic missing-mutex window *)
          Sched.yield ();
          Sched.yield ();
          Sched.wake ws
        in
        let (), () = Sched.pcall2 waiter signaler in
        "done")

  let stolen_relay =
    native_target "stolen-relay" (fun () ->
        let c = Channel.create ~capacity:2 () in
        let w1 () =
          let v = Channel.recv c in
          if v = 1 then Channel.send c 2;
          v
        in
        let w2 () =
          (* BUG: consumes a token without relaying it.  Its receive is
             only reached on its third slice, and worker 1's receive
             completes by round 2 under any round-based schedule, so
             the steal needs a driven schedule that starves worker 1. *)
          Sched.yield ();
          Sched.yield ();
          Channel.recv c
        in
        let s () =
          Channel.send c 1;
          0
        in
        let vs = Sched.pcall [ w1; w2; s ] in
        "values " ^ String.concat "," (List.map string_of_int vs))

  let timeout_race =
    native_target "timeout-race" (fun () ->
        (* Two timeouts, one on each side of its deadline: the fast body
           beats its timer, the slow body is cancelled by it.  Both races
           are decided on the virtual clock, so any schedule resolves
           them the same way — the workload exists to pin the timer
           wheel's trace (sleep parks, clock jumps, the Timeout/Cancel
           pair) under record/replay. *)
        let show = function
          | Ok v -> v
          | Error f -> Resil.failure_to_string f
        in
        let fast =
          Resil.with_timeout 50 (fun () ->
              Sched.sleep 5;
              "fast")
        in
        let slow =
          Resil.with_timeout 5 (fun () ->
              Sched.sleep 50;
              "slow")
        in
        show fast ^ "/" ^ show slow)

  (* The pstack mirror of the timeout race: a [control]-armed timer
     branch cancels the slow computation by declining to reinstate the
     captured subtree — the paper's own timeout idiom. *)
  let timer_pstack_src =
    "(spawn (lambda (c)\n\
    \  (pcall list\n\
    \    (begin (sleep 1000) 'slow)\n\
    \    (begin (sleep 5) (c (lambda (pk) 'timed-out))))))"

  let timer_pstack = pstack_target "timer-pstack" timer_pstack_src

  let sup_relay =
    native_target "sup-relay" (fun () ->
        (* A one-for-one supervisor over a single-fiber relay child.  An
           injected crash at any of the child's suspension points is
           caught by its scope, surfaces as [Error (Crashed _)], and the
           supervisor restarts it; the restarted incarnation completes
           and the run still ends in a value.  The top-level try keeps a
           crash delivered to the supervisor fiber itself from escaping
           the run. *)
        try
          let r =
            Resil.Supervisor.supervise ~max_restarts:3 ~window:1000 ~backoff:5
              [
                Resil.Supervisor.child ~name:"relay" (fun () ->
                    (* single-fiber: the capacity must cover all three
                       sends, since nobody drains concurrently *)
                    let c = Channel.create ~capacity:4 () in
                    for i = 1 to 3 do
                      Channel.send c i
                    done;
                    Sched.yield ();
                    for _ = 1 to 3 do
                      ignore (Channel.recv c)
                    done);
              ]
          in
          match r with
          | Ok () -> "relay supervised ok"
          | Error f -> "supervisor gave up: " ^ Resil.failure_to_string f
        with e -> "supervisor crashed: " ^ Printexc.to_string e)

  let sup_leak =
    native_target "sup-leak" (fun () ->
        try
          (* Background fibers pad the schedule so a randomized fault
             placement almost never lands inside the worker's
             plant-to-signal window; the systematic placement enumeration
             in [Dpor.explore] always does. *)
          let pads =
            List.init 6 (fun _ ->
                Sched.future (fun () ->
                    try
                      for _ = 1 to 30 do
                        Sched.yield ()
                      done;
                      1
                    with _ -> 1))
          in
          let r =
            Resil.Supervisor.supervise ~max_restarts:2 ~window:10_000
              ~backoff:2
              [
                Resil.Supervisor.child ~name:"worker" (fun () ->
                    (* BUG: the helper lives in its own tree ([future]),
                       so the scope abort that follows a worker crash
                       never reaches it.  If the worker crashes between
                       planting the helper and signalling it, the helper
                       stays parked forever under a cancelled ancestor —
                       the no-orphan-waiters leak. *)
                    let ws = Sched.Waitset.create "leak.helper" in
                    let done_ = ref false in
                    let _h : int Sched.future =
                      Sched.future (fun () ->
                          try
                            while not !done_ do
                              Sched.block ws
                            done;
                            1
                          with _ -> 1)
                    in
                    Sched.yield ();
                    done_ := true;
                    Sched.wake ws);
              ]
          in
          let pad_sum = List.fold_left (fun a f -> a + Sched.touch f) 0 pads in
          match r with
          | Ok () -> Printf.sprintf "ok pads=%d" pad_sum
          | Error f -> "supervisor gave up: " ^ Resil.failure_to_string f
        with e -> "supervisor crashed: " ^ Printexc.to_string e)

  let all =
    [
      ("gen", gen_native);
      ("gen-pstack", gen_pstack);
      ("racing", racing 3);
      ("lost-wakeup", lost_wakeup);
      ("stolen-relay", stolen_relay);
      ("timeout-race", timeout_race);
      ("timer-pstack", timer_pstack);
      ("sup-relay", sup_relay);
      ("sup-leak", sup_leak);
    ]

  let find name = List.assoc_opt name all
  let names = List.map fst all
end
