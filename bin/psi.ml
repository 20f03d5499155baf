(* psi — process-continuation Scheme interpreter.

   Runs Scheme programs with the paper's control operators (spawn, process
   controllers and continuations, pcall, parallel-or, future/touch) on the
   process-stack machine, either sequentially or under the concurrent
   tree-of-stacks scheduler.  With no program it starts a REPL.

   Diagnostics: --stats prints the machine's instrumentation counters
   (captures, segments/frames moved, forks, locks) and the count, mean
   and max of each scheduler distribution (those the events carry are
   folded from them, as ptrace top does); --trace streams scheduler
   events to stderr; --trace-out writes the event stream to a file as
   human text, JSONL or Chrome trace-event JSON (--trace-format);
   --summary prints a per-process table of slices, fuel, parks and
   captures for each run (for the causal report, run ptrace report on the
   --trace-out file); --strategy copying switches to the stack-copying
   continuation representation of experiment E1.  Bad arguments (among
   them --quantum below 1) exit 2 with one "psi: ..." line before
   anything runs. *)

module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack
module Bridge = Pcont_bridge.Bridge
module M = Pcont_machine
module Obs = Pcont_obs.Obs
module Trace = Pcont_obs.Trace
module Snapshot = Pcont_obs.Analysis.Snapshot
module Sketch = Obs.Metrics.Sketch

(* Run a whole program on the Section 6 rewriting machine (--backend
   machine|zipper): the program is folded into one closed term and
   rewritten to a value. *)
let run_on_machine ~zipper fuel src =
  match Bridge.scheme_to_term src with
  | Error m ->
      Printf.printf "error: %s\n" m;
      1
  | Ok term -> (
      let eval t = if zipper then M.Zipper.eval ?fuel t else M.Eval.eval ?fuel t in
      match eval term with
      | M.Eval.Value v ->
          print_endline (M.Pp.term_to_string v);
          0
      | M.Eval.Stuck m ->
          Printf.printf "error: machine stuck: %s\n" m;
          1
      | M.Eval.Out_of_fuel _ ->
          print_endline "error: out of fuel";
          1)

let print_result show_defines r =
  begin
    match r with
    | Interp.Value Pcont_pstack.Types.Unit -> ()
    | Interp.Value v -> print_endline (Pcont_pstack.Value.to_string v)
    | Interp.Defined x -> if show_defines then Printf.printf "%s\n" x
    | Interp.Error msg -> Printf.printf "error: %s\n" msg
  end;
  let out = Interp.take_output () in
  if out <> "" then print_string out

(* psi's names for the distributions folded from the event stream. *)
let derived_name = function
  | "span.duration" as n -> n
  | "capture.size" -> "concur.capture.segments"
  | "wake.to.run" -> "concur.wake.run"
  | n -> "concur." ^ n

(* The scheduler histograms: the handle's own sketches (the machine's
   distributions, run-queue depth, park rounds) and those [snap] folded
   from its events. *)
let print_stats t handle =
  let counters = (Interp.config t).Pstack.Machine.counters in
  (match Pcont_util.Counters.to_list counters with
  | [] -> prerr_endline ";; no machine events recorded"
  | stats ->
      prerr_endline ";; machine statistics:";
      List.iter (fun (name, v) -> Printf.eprintf ";;   %-36s %d\n" name v) stats);
  match handle with
  | None -> ()
  | Some (o, snap) -> (
      let derived =
        List.map
          (fun (name, sk) -> (derived_name name, sk))
          (Obs.Metrics.sketches (Snapshot.metrics snap))
      in
      match
        List.filter
          (fun (_, sk) -> Sketch.count sk > 0)
          (Obs.Metrics.sketches (Obs.metrics o) @ derived)
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      with
      | [] -> ()
      | sketches ->
          prerr_endline ";; scheduler histograms:";
          List.iter
            (fun (name, sk) ->
              Printf.eprintf ";;   %-36s n=%d mean=%.1f max=%d\n" name
                (Sketch.count sk) (Sketch.mean sk) (Sketch.max sk))
            sketches)

let repl t mode eval_form =
  Printf.printf "psi — Scheme with process continuations (Hieb & Dybvig, PPoPP 1990)\n";
  Printf.printf "mode: %s; type an expression, or Ctrl-D to exit\n"
    (match mode with Interp.Sequential -> "sequential" | Interp.Concurrent _ -> "concurrent");
  let rec loop () =
    print_string "> ";
    match In_channel.input_line stdin with
    | None -> print_newline ()
    | Some line ->
        if String.trim line <> "" then List.iter (print_result true) (eval_form t line);
        loop ()
  in
  loop ()

(* The --summary table of each run the model saw: a row per process; a
   fate replaces the exit count.  A program that never reached the
   scheduler still gets its (empty) table. *)
let print_summary runs =
  let tables = if Array.length runs = 0 then [| None |] else Array.map Option.some runs in
  Array.iteri
    (fun i run ->
      if Array.length tables = 1 then prerr_endline ";; per-process summary:"
      else Printf.eprintf ";; per-process summary (run %d):\n" i;
      Format.eprintf "@[<v>%8s %-10s %8s %10s %7s %7s %9s %7s %7s %7s %9s" "pid" "kind"
        "slices" "fuel" "parks" "wakes" "captures" "grafts" "sends" "recvs" "exits";
      Option.iter
        (fun (run : Trace.run) ->
          Array.iter
            (fun (n : Trace.node) ->
              let exits =
                if n.n_fate <> "" then n.n_fate else if n.n_status = Exited then "1" else "0"
              in
              Format.eprintf "@,%8d %-10s %8d %10d %7d %7d %9d %7d %7d %7d %9s" n.n_pid
                n.n_kind n.n_slices n.n_fuel n.n_parks n.n_wakes n.n_captures n.n_reinstates
                n.n_sends n.n_recvs exits)
            run.r_nodes;
          Option.iter
            (fun parked ->
              Format.eprintf "@,deadlock: %d process(es) left parked" parked;
              if run.r_cancelled_parked > 0 then
                Format.eprintf " (+%d cancelled while parked)" run.r_cancelled_parked)
            run.r_deadlock)
        run;
      Format.eprintf "@]@.")
    tables

(* Open an output file named on the command line, or report why not and
   exit 2 before anything runs. *)
let open_output path =
  try open_out_bin path
  with Sys_error msg ->
    Printf.eprintf "psi: %s\n" msg;
    exit 2

let run file expr concurrent seed replay no_prelude fuel quantum strategy stats trace
    trace_out trace_format summary flight sample backend =
  (match backend with
  | "pstack" | "machine" | "zipper" -> ()
  | other ->
      Printf.eprintf "psi: unknown backend %S (expected pstack, machine or zipper)\n" other;
      exit 2);
  (* The scheduler and continuation-representation flags only mean
     something on the pstack backend; reject rather than silently ignore
     them (a trace that was never going to be written is a bug hidden). *)
  if backend <> "pstack" then begin
    let reject flag present =
      if present then begin
        Printf.eprintf "psi: %s is not supported with --backend %s\n" flag backend;
        exit 2
      end
    in
    reject "--concurrent" concurrent;
    reject "--seed" (seed <> None);
    reject "--replay" (replay <> None);
    reject "--quantum" (quantum <> None);
    reject "--trace" trace;
    reject "--trace-out" (trace_out <> None);
    reject "--trace-format" (trace_format <> None);
    reject "--summary" summary;
    reject "--stats" stats;
    reject "--flight" (flight <> None);
    reject "--sample" (sample <> None);
    reject "--strategy copying" (strategy = "copying")
  end;
  (match quantum with
  | Some q when q < 1 ->
      Printf.eprintf "psi: --quantum must be at least 1, got %d\n" q;
      exit 2
  | _ -> ());
  (match sample with
  | Some r when r < 0. || r > 1. ->
      Printf.eprintf "psi: --sample rate must be in [0,1], got %g\n" r;
      exit 2
  | Some _ when trace_out = None ->
      Printf.eprintf "psi: --sample requires --trace-out (it thins that sink)\n";
      exit 2
  | _ -> ());
  (match trace_format with
  | Some _ when trace_out = None ->
      Printf.eprintf "psi: --trace-format requires --trace-out\n";
      exit 2
  | Some ("human" | "jsonl" | "chrome") | None -> ()
  | Some other ->
      Printf.eprintf "psi: unknown trace format %S (expected human, jsonl or chrome)\n"
        other;
      exit 2);
  let trace_format = Option.value trace_format ~default:"jsonl" in
  if replay <> None && seed <> None then begin
    Printf.eprintf "psi: --replay and --seed are mutually exclusive\n";
    exit 2
  end;
  (* --replay pins every scheduling decision to a recorded schedule (a
     trace from --trace-out or a witness from ptrace explore); all other
     nondeterminism already lives behind the decision function, so the
     re-run is deterministic.  Divergence is reported on exit. *)
  let replay_driver =
    match replay with
    | None -> None
    | Some path -> (
        match Pcont_explore.Explore.Schedule.load path with
        | Ok sched -> Some (Pcont_explore.Explore.Replay.driver sched)
        | Error m ->
            Printf.eprintf "psi: %s: %s\n" path m;
            exit 2)
  in
  let mode =
    match replay_driver with
    | Some (pick, _) -> Interp.Concurrent (Pcont_pstack.Concur.Driven_pids pick)
    | None ->
        if concurrent || seed <> None || trace || trace_out <> None || summary
           || flight <> None
        then
          Interp.Concurrent
            (match seed with
            | None -> Pcont_pstack.Concur.Round_robin
            | Some s -> Pcont_pstack.Concur.Randomized (Int64.of_int s))
        else Interp.Sequential
  in
  let strategy =
    match strategy with
    | "linked" -> Pstack.Types.Linked
    | "copying" -> Pstack.Types.Copying
    | other ->
        Printf.eprintf "psi: unknown strategy %S (expected linked or copying)\n" other;
        exit 2
  in
  let t = Interp.create ~prelude:(not no_prelude) ~strategy () in
  (* One observability handle feeds every consumer — the --trace stream,
     the --trace-out sink, and the one model behind --summary and the
     distributions shown by --stats. *)
  let obs =
    if
      (trace || trace_out <> None || summary || stats || flight <> None)
      && backend = "pstack"
    then Some (Obs.create ())
    else None
  in
  let stats_handle =
    match obs with
    | Some o when stats || summary ->
        let snap = Snapshot.create () in
        Obs.attach o (Trace.sink (Snapshot.model snap));
        Some (o, snap)
    | _ -> None
  in
  let cleanups = ref [] in
  (match obs with
  | None -> ()
  | Some o ->
      if trace then
        Obs.attach o (Obs.Sink.human ~prefix:";; " (Obs.Sink.of_channel stderr));
      (match trace_out with
      | None -> ()
      | Some path ->
          let oc = open_output path in
          cleanups := (fun () -> close_out oc) :: !cleanups;
          let write = Obs.Sink.of_channel oc in
          let sink =
            match trace_format with
            | "human" -> Obs.Sink.human write
            | "chrome" -> Obs.Sink.chrome write
            | _ -> Obs.Sink.jsonl write
          in
          let sink =
            (* Deterministic head sampling: the keep/drop decision is a
               pure hash of (sampler seed, pid), so the thinned trace is
               byte-identical run to run for a given --seed. *)
            match sample with
            | None -> sink
            | Some rate ->
                Obs.Sink.sampled
                  ~seed:(Int64.of_int (Option.value seed ~default:0))
                  ~rate sink
          in
          Obs.attach o sink);
      match flight with
      | None -> ()
      | Some path ->
          (* the window is written only when dumped; check the path now *)
          close_out (open_output path);
          let dump body =
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc body)
          in
          let rb = Obs.Sink.ring ~capacity:4096 ~flight:dump () in
          Obs.attach o (Obs.Sink.ring_sink rb);
          (* if nothing tripped the recorder, still leave the window on
             disk at exit — the on-demand dump *)
          cleanups :=
            (fun () ->
              if Obs.Sink.ring_dumps rb = 0 then
                Out_channel.with_open_bin path (fun oc ->
                    Obs.Sink.ring_dump rb (Out_channel.output_string oc)))
            :: !cleanups);
  let eval_form t src = Interp.eval_string ~mode ?fuel ?quantum ?obs t src in
  let finish code =
    (match obs with None -> () | Some o -> Obs.close o);
    (match replay_driver with
    | None -> ()
    | Some (_, probe) -> (
        match probe () with
        | None -> ()
        | Some d ->
            Printf.eprintf ";; psi: replay diverged at %s\n"
              (Pcont_explore.Explore.Replay.pp_divergence d)));
    List.iter (fun f -> f ()) !cleanups;
    (match stats_handle with
    | Some (_, snap) when summary -> print_summary (Trace.runs (Snapshot.model snap))
    | _ -> ());
    if stats then print_stats t stats_handle;
    code
  in
  let run_source src =
    match backend with
    | "machine" -> run_on_machine ~zipper:false fuel src
    | "zipper" -> run_on_machine ~zipper:true fuel src
    | _ ->
        let results = eval_form t src in
        List.iter (print_result false) results;
        if List.exists (function Interp.Error _ -> true | _ -> false) results then 1
        else 0
  in
  match (file, expr) with
  | None, None ->
      repl t mode eval_form;
      finish 0
  | _, Some src -> finish (run_source src)
  | Some path, None -> (
      match In_channel.with_open_text path In_channel.input_all with
      | src -> finish (run_source src)
      | exception Sys_error msg ->
          Printf.eprintf "psi: %s\n" msg;
          2)

open Cmdliner

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Scheme program to run.")

let expr =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "eval" ] ~docv:"EXPR" ~doc:"Evaluate $(docv) instead of a file.")

let concurrent =
  Arg.(
    value & flag
    & info [ "c"; "concurrent" ]
        ~doc:"Run under the concurrent tree-of-stacks scheduler (pcall forks, future plants trees).")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Randomize the branch interleaving with seed $(docv) (implies --concurrent).")

let replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Pin every scheduling decision to the schedule recorded in $(docv) — a \
           JSONL trace written by --trace-out, or a schedule/witness file from \
           $(b,ptrace explore) — making the run deterministic (implies \
           --concurrent; excludes --seed).  Divergence from the recorded \
           schedule is reported on stderr.")

let no_prelude =
  Arg.(value & flag & info [ "no-prelude" ] ~doc:"Do not load the Scheme prelude.")

let fuel =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"STEPS" ~doc:"Abort after $(docv) machine transitions.")

let quantum =
  Arg.(
    value
    & opt (some int) None
    & info [ "quantum" ] ~docv:"STEPS"
        ~doc:
          "Machine transitions per branch before the scheduler rotates \
           (default 16; at least 1).")

let strategy =
  Arg.(
    value & opt string "linked"
    & info [ "strategy" ] ~docv:"S"
        ~doc:"Continuation representation: $(b,linked) (the paper's segments) or $(b,copying) (stack-copying baseline).")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print machine instrumentation counters and the count, mean and max \
           of each scheduler distribution to stderr on exit.  Alongside the control-operation counters \
           (capture.segments, reinstate.segments, ...), the capture fast path \
           reports $(b,machine.pool.hit) / $(b,machine.pool.miss) (segment \
           allocations served from / missed by the segment pool) and \
           $(b,machine.capture.moved) (captures whose segments were moved by \
           the one-shot path instead of pinned for copy-on-write).")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Stream scheduler events (spawns, run slices, parks, captures, grafts) \
           to stderr; implies --concurrent.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the scheduler event stream to $(docv); implies --concurrent.")

let trace_format =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-format" ] ~docv:"F"
        ~doc:
          "Format for --trace-out: $(b,human), $(b,jsonl) (default), or $(b,chrome) \
           (trace-event JSON for chrome://tracing or Perfetto).")

let summary =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:
          "Print a per-process summary (slices, fuel, parks, captures, channel \
           traffic, fate) to stderr on exit, one table per run (a file runs each \
           top-level form separately); implies --concurrent.")

let flight =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Attach a flight recorder: a fixed-size ring of the last 4096 \
           scheduler events, dumped to $(docv) as JSONL automatically on \
           deadlock or crash (otherwise at exit).  The dump is an ordinary \
           trace — analyze it with $(b,ptrace check)/$(b,report); implies \
           --concurrent.")

let sample =
  Arg.(
    value
    & opt (some float) None
    & info [ "sample" ] ~docv:"RATE"
        ~doc:
          "Head-sample the --trace-out stream: keep per-fiber detail events \
           (slices, parks, wakes, sends, recvs, spans) for a deterministic \
           $(docv) fraction of fibers, keyed by pid and the --seed value. \
           Lifecycle events (spawn, exit, crash, deadlock) are always kept.")

let backend =
  Arg.(
    value & opt string "pstack"
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Evaluator: $(b,pstack) (the Section 7 process-stack machine), \
           $(b,machine) (the Section 6 rewriting semantics; pure fragment + \
           spawn only), or $(b,zipper) (the focused Section 6 stepper).")

let cmd =
  let doc = "Scheme with process continuations (spawn, pcall, parallel-or, future)" in
  Cmd.v
    (Cmd.info "psi" ~version:"1.0.0" ~doc)
    Term.(
      const run $ file $ expr $ concurrent $ seed $ replay $ no_prelude $ fuel $ quantum
      $ strategy $ stats $ trace $ trace_out $ trace_format $ summary $ flight
      $ sample $ backend)

let () = exit (Cmd.eval' cmd)
