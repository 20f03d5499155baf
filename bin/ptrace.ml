(* ptrace — analyze exported scheduler traces.

   Subcommands over the JSONL event stream written by psi --trace-out or
   any Obs.Sink.jsonl consumer:

     ptrace check  TRACE        lint the trace against the event-stream
                                invariants (exit 1 on any violation)
     ptrace report TRACE        causal profile per run: critical path,
                                utilization, fairness, blocked time
     ptrace diff   LEFT RIGHT   first causal divergence between two
                                traces (exit 1 when they diverge)
     ptrace gen                 run a built-in mirrored workload on the
                                pstack or native scheduler and write its
                                trace, for cross-scheduler comparisons
     ptrace replay INPUT        re-run a workload pinned to a recorded
                                trace or schedule file; when the input is
                                a trace, require the replay byte-identical
     ptrace explore             DPOR-style schedule exploration of a
                                workload: flip racing decisions, check
                                every run's invariants, emit a minimized
                                replayable witness on the first violation
     ptrace top    TRACE        live dashboard: tail a growing JSONL file
                                and render fiber fates, streaming
                                percentiles and top blocked resources

   All but gen and top take --json; check, report, slo and diff read one
   Trace.model, and their output is byte-deterministic.  Bad arguments
   (among them gen --ring and explore --max-runs below 1), an unreadable
   input and an output path that cannot be written ("ptrace: <path>:
   <reason>") exit 2 with one line before any run. *)

module Obs = Pcont_obs.Obs
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Explore = Pcont_explore.Explore

let load_or_die path =
  match Trace.load path with
  | Ok events -> events
  | Error m ->
      Printf.eprintf "ptrace: %s: %s\n" path m;
      exit 2

(* Reject a count option below [lo] before any run. *)
let at_least flag lo v =
  if v < lo then begin
    Printf.eprintf "ptrace: %s must be at least %d, got %d\n" flag lo v;
    exit 2
  end

(* Check that an output path named on the command line can be written
   before the run, which may be long, rather than failing after it: exit
   2 with the reason, and leave no file behind that was not there. *)
let check_output path =
  let existed = Sys.file_exists path in
  (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
   with Sys_error msg ->
     Printf.eprintf "ptrace: %s\n" msg;
     exit 2);
  if not existed then Sys.remove path

let run_check path json =
  let events = load_or_die path in
  let violations = Analysis.Check.run events in
  if json then
    print_endline (Obs.Json.to_string (Analysis.Check.to_json violations))
  else Format.printf "%a" Analysis.Check.pp violations;
  if violations = [] then 0 else 1

let run_report path json top =
  let events = load_or_die path in
  let reports = Analysis.Report.of_trace events in
  if json then
    print_endline
      (Obs.Json.to_string (Obs.Json.Arr (List.map Analysis.Report.to_json reports)))
  else
    List.iteri
      (fun i r ->
        if i > 0 then print_newline ();
        if List.length reports > 1 then Format.printf "=== run %d ===@." i;
        Analysis.Report.pp ?top Format.std_formatter r)
      reports;
  0

let run_slo path asserts json =
  let events = load_or_die path in
  let asserts =
    List.map
      (fun a ->
        match Analysis.Slo.parse_assert a with
        | Ok a -> a
        | Error m ->
            Printf.eprintf "ptrace: %s\n" m;
            exit 2)
      asserts
  in
  let slo = Analysis.Slo.of_trace events in
  if json then print_endline (Obs.Json.to_string (Analysis.Slo.to_json slo))
  else Format.printf "%a" Analysis.Slo.pp slo;
  let latencies =
    List.map
      (fun sc -> Analysis.Slo.(sc.sc_name, sc.sc_latency))
      slo.Analysis.Slo.slo_scens
  in
  let failures = List.concat_map (Analysis.Slo.check latencies) asserts in
  List.iter (Printf.eprintf "ptrace: %s\n") failures;
  if failures = [] then 0 else 1

let run_diff left right json =
  let l = load_or_die left and r = load_or_die right in
  let d = Analysis.Diff.diff l r in
  if json then print_endline (Obs.Json.to_string (Analysis.Diff.to_json d))
  else Format.printf "@[<v>%a@]" Analysis.Diff.pp d;
  match d with None -> 0 | Some _ -> 1

(* The gen workloads live in Pcont_explore.Explore.Workloads so that gen,
   replay and explore all run the byte-for-byte same programs: a trace
   written by `ptrace gen` replays against `--workload gen`/`gen-pstack`
   with no drift between the two definitions. *)
let run_gen scheduler seed workload faults out flight ring_cap =
  at_least "--ring" 1 ring_cap;
  let target =
    match workload with
    | Some name -> (
        match Explore.Workloads.find name with
        | Some t -> t
        | None ->
            Printf.eprintf "ptrace: unknown workload %S (expected one of: %s)\n"
              name
              (String.concat ", " Explore.Workloads.names);
            exit 2)
    | None -> (
        match scheduler with
        | "pstack" -> Explore.Workloads.gen_pstack
        | "native" -> Explore.Workloads.gen_native
        | other ->
            Printf.eprintf
              "ptrace: unknown scheduler %S (expected pstack or native)\n" other;
            exit 2)
  in
  Option.iter check_output out;
  Option.iter check_output flight;
  (* The flight recorder rides along on the recording handle: a ring
     sink that dumps the last events as JSONL to --flight on Deadlock /
     Crash, or at the end of the run if nothing tripped it. *)
  let ring =
    match flight with
    | None -> None
    | Some path ->
        let dump body =
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc body)
        in
        Some (path, Obs.Sink.ring ~capacity:ring_cap ~flight:dump ())
  in
  let attach =
    Option.map (fun (_, rb) o -> Obs.attach o (Obs.Sink.ring_sink rb)) ring
  in
  let r =
    Explore.Replay.record
      ~policy:(Pcont_sched.Sched.Randomized (Int64.of_int seed))
      ~faults ?attach target
  in
  (match out with
  | None -> print_string r.Explore.Replay.rec_trace
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc r.Explore.Replay.rec_trace));
  (match ring with
  | None -> ()
  | Some (path, rb) ->
      if Obs.Sink.ring_dumps rb = 0 then
        Out_channel.with_open_bin path (fun oc ->
            Obs.Sink.ring_dump rb (Out_channel.output_string oc));
      Printf.eprintf "flight: %d event(s) (%d dropped) to %s%s\n"
        (Obs.Sink.ring_stored rb) (Obs.Sink.ring_dropped rb) path
        (if Obs.Sink.ring_dumps rb > 0 then " (auto-dumped on failure)" else ""));
  Printf.eprintf "outcome: %s\n" r.Explore.Replay.rec_outcome;
  0

(* ---- top ------------------------------------------------------------- *)

(* Live dashboard over a growing JSONL file: tail new complete lines,
   feed them through Analysis.Snapshot, redraw.  Tolerant of a file
   that does not exist yet (the run may not have started) and of a
   torn final line (kept buffered until its newline arrives). *)
let run_top path interval once =
  let snap = Analysis.Snapshot.create () in
  let carry = Buffer.create 4096 in
  let pos = ref 0 in
  let feed_new () =
    (try
       let ic = open_in_bin path in
       let len = in_channel_length ic in
       if len < !pos then pos := 0 (* file truncated/replaced: start over *);
       if len > !pos then begin
         seek_in ic !pos;
         Buffer.add_string carry (really_input_string ic (len - !pos));
         pos := len
       end;
       close_in ic
     with Sys_error _ -> ());
    let s = Buffer.contents carry in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | None -> start
      | Some nl ->
          let line = String.sub s start (nl - start) in
          (if String.trim line <> "" then
             match Trace.parse_string line with
             | Ok evs -> Array.iter (Analysis.Snapshot.feed snap) evs
             | Error _ -> () (* garbage line mid-write: skip, keep tailing *));
          go (nl + 1)
    in
    let consumed = go 0 in
    if consumed > 0 then begin
      let rest = String.sub s consumed (String.length s - consumed) in
      Buffer.clear carry;
      Buffer.add_string carry rest
    end
  in
  let render () =
    if not once then print_string "\027[2J\027[H";
    Format.printf "ptrace top — %s@,%a@." path Analysis.Snapshot.pp snap
  in
  if once then begin
    feed_new ();
    render ();
    0
  end
  else begin
    Sys.catch_break true;
    (try
       while true do
         feed_new ();
         render ();
         Unix.sleepf interval
       done
     with Sys.Break -> ());
    0
  end

(* ---- replay / explore ------------------------------------------------ *)

(* Both subcommands need a target; either a built-in workload by name or
   an ad-hoc Scheme expression on the pstack scheduler (native programs
   cannot be passed on a command line — use --workload for those). *)
let resolve_target workload expr =
  match (workload, expr) with
  | Some _, Some _ ->
      Printf.eprintf "ptrace: --workload and --expr are mutually exclusive\n";
      exit 2
  | None, None ->
      Printf.eprintf "ptrace: need a program: --workload NAME or --expr EXPR\n";
      Printf.eprintf "ptrace: built-in workloads: %s\n"
        (String.concat ", " Explore.Workloads.names);
      exit 2
  | Some name, None -> (
      match Explore.Workloads.find name with
      | Some t -> t
      | None ->
          Printf.eprintf "ptrace: unknown workload %S (expected one of: %s)\n" name
            (String.concat ", " Explore.Workloads.names);
          exit 2)
  | None, Some src -> Explore.pstack_target "expr" src

let run_replay input workload expr out json =
  let target = resolve_target workload expr in
  (* When the input is a trace we hold the recording to a byte-identity
     standard; a bare schedule file (e.g. an exploration witness) has no
     reference bytes, so only divergence can fail it. *)
  let reference =
    match Trace.load input with
    | Ok evs when Array.length evs > 0 ->
        Some (In_channel.with_open_bin input In_channel.input_all)
    | Ok _ | Error _ -> None
  in
  let sched =
    match Explore.Schedule.load input with
    | Ok s -> s
    | Error m ->
        Printf.eprintf "ptrace: %s: %s\n" input m;
        exit 2
  in
  Option.iter check_output out;
  let r, div = Explore.Replay.replay target sched in
  (match out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc r.Explore.Replay.rec_trace));
  let identical =
    match reference with
    | None -> None
    | Some bytes -> Some (String.equal bytes r.Explore.Replay.rec_trace)
  in
  let ok = div = None && identical <> Some false in
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("target", Obs.Json.Str target.Explore.tg_name);
              ( "decisions",
                Obs.Json.Num
                  (float_of_int (Array.length sched.Explore.Schedule.decisions)) );
              ("outcome", Obs.Json.Str r.Explore.Replay.rec_outcome);
              ( "diverged",
                match div with
                | None -> Obs.Json.Bool false
                | Some d -> Obs.Json.Str (Explore.Replay.pp_divergence d) );
              ( "byte_identical",
                match identical with
                | None -> Obs.Json.Null
                | Some b -> Obs.Json.Bool b );
            ]))
  else begin
    Printf.printf "replayed %s: %d decisions, outcome: %s\n" target.Explore.tg_name
      (Array.length sched.Explore.Schedule.decisions)
      r.Explore.Replay.rec_outcome;
    (match div with
    | None -> ()
    | Some d -> Printf.printf "diverged at %s\n" (Explore.Replay.pp_divergence d));
    match (identical, reference) with
    | Some true, _ -> print_endline "trace byte-identical to the recording"
    | Some false, Some bytes ->
        Printf.printf "trace differs from the recording: %s\n"
          (Explore.Replay.first_diff bytes r.Explore.Replay.rec_trace)
    | _ -> ()
  end;
  if ok then 0 else 1

let run_explore workload expr max_runs sweep fault_menu out expect_bug json =
  at_least "--max-runs" 1 max_runs;
  let target = resolve_target workload expr in
  Option.iter check_output out;
  let st = Explore.Dpor.explore ~max_runs ~fault_menu target in
  let sweep_res =
    if sweep > 0 then Some (Explore.Dpor.seed_sweep ~seeds:sweep ~fault_menu target)
    else None
  in
  (match (out, st.Explore.Dpor.s_witness) with
  | Some path, Some w -> Explore.Schedule.save path w.Explore.Dpor.w_schedule
  | Some _, None | None, _ -> ());
  if json then begin
    let sweep_json =
      match sweep_res with
      | None -> []
      | Some sw ->
          [
            ( "sweep",
              Obs.Json.Obj
                [
                  ("seeds", Obs.Json.Num (float_of_int sw.Explore.Dpor.sw_seeds));
                  ( "skeletons",
                    Obs.Json.Num (float_of_int sw.Explore.Dpor.sw_skeletons) );
                  ( "found",
                    match sw.Explore.Dpor.sw_found with
                    | None -> Obs.Json.Null
                    | Some (seed, kind) ->
                        Obs.Json.Obj
                          [
                            ("seed", Obs.Json.Num (float_of_int seed));
                            ("kind", Obs.Json.Str kind);
                          ] );
                ] );
          ]
    in
    let witness_json =
      match st.Explore.Dpor.s_witness with
      | None -> Obs.Json.Null
      | Some w ->
          Obs.Json.Obj
            [
              ("kind", Obs.Json.Str w.Explore.Dpor.w_kind);
              ("outcome", Obs.Json.Str w.Explore.Dpor.w_outcome);
              ("runs_to_find", Obs.Json.Num (float_of_int w.Explore.Dpor.w_runs_to_find));
              ("forced", Obs.Json.Num (float_of_int w.Explore.Dpor.w_forced));
              ( "decisions",
                Obs.Json.Num
                  (float_of_int
                     (Array.length w.Explore.Dpor.w_schedule.Explore.Schedule.decisions))
              );
              ( "faults",
                Obs.Json.Arr
                  (List.map
                     (fun f -> Obs.Json.Str (Explore.Fault.to_string f))
                     w.Explore.Dpor.w_schedule.Explore.Schedule.faults) );
            ]
    in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            ([
               ("target", Obs.Json.Str target.Explore.tg_name);
               ("runs", Obs.Json.Num (float_of_int st.Explore.Dpor.s_runs));
               ("probes", Obs.Json.Num (float_of_int st.Explore.Dpor.s_probes));
               ("schedules", Obs.Json.Num (float_of_int st.Explore.Dpor.s_schedules));
               ("skeletons", Obs.Json.Num (float_of_int st.Explore.Dpor.s_skeletons));
               ("races", Obs.Json.Num (float_of_int st.Explore.Dpor.s_races));
               ("witness", witness_json);
             ]
            @ sweep_json)))
  end
  else begin
    Printf.printf "explored %s: %d runs (+%d minimization probes), %d schedules, %d skeletons, %d races\n"
      target.Explore.tg_name st.Explore.Dpor.s_runs st.Explore.Dpor.s_probes
      st.Explore.Dpor.s_schedules st.Explore.Dpor.s_skeletons st.Explore.Dpor.s_races;
    (match st.Explore.Dpor.s_witness with
    | None -> print_endline "no violation found"
    | Some w ->
        Printf.printf "violation: %s (outcome: %s)\n" w.Explore.Dpor.w_kind
          w.Explore.Dpor.w_outcome;
        Printf.printf "found after %d runs; witness: %d decisions, %d forced\n"
          w.Explore.Dpor.w_runs_to_find
          (Array.length w.Explore.Dpor.w_schedule.Explore.Schedule.decisions)
          w.Explore.Dpor.w_forced;
        (match w.Explore.Dpor.w_schedule.Explore.Schedule.faults with
        | [] -> ()
        | fs ->
            Printf.printf "witness faults: %s\n"
              (String.concat ", " (List.map Explore.Fault.to_string fs)));
        match out with
        | Some path -> Printf.printf "witness schedule written to %s\n" path
        | None -> ());
    match sweep_res with
    | None -> ()
    | Some sw ->
        Printf.printf "seed sweep: %d seeds, %d skeletons, %s\n"
          sw.Explore.Dpor.sw_seeds sw.Explore.Dpor.sw_skeletons
          (match sw.Explore.Dpor.sw_found with
          | None -> "no violation found"
          | Some (seed, kind) -> Printf.sprintf "seed %d hit %s" seed kind)
  end;
  let found = st.Explore.Dpor.s_witness <> None in
  if expect_bug then if found then 0 else 1 else if found then 1 else 0

open Cmdliner

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

(* Fault kinds on the command line use the same spellings as the
   in-trace markers, minus the "inject:" prefix: crash, wake:RESOURCE,
   drop:CHAN. *)
let fault_kind_of_string s = Explore.Fault.kind_of_marker ("inject:" ^ s)

let fault_conv =
  let parse s =
    match String.index_opt s '@' with
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "expected KIND@SLICE (e.g. crash@12, wake:channel.recv@3, \
                 drop:0@7), got %S" s))
    | Some i -> (
        let kind = String.sub s 0 i in
        let at = String.sub s (i + 1) (String.length s - i - 1) in
        match (fault_kind_of_string kind, int_of_string_opt at) with
        | Some kind, Some at when at >= 0 -> Ok { Explore.Fault.at; kind }
        | None, _ -> Error (`Msg (Printf.sprintf "unknown fault kind %S" kind))
        | _, _ -> Error (`Msg (Printf.sprintf "bad fault slice %S" at)))
  in
  let print ppf f = Format.pp_print_string ppf (Explore.Fault.to_string f) in
  Arg.conv (parse, print)

let fault_kind_conv =
  let parse s =
    match fault_kind_of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown fault kind %S (expected crash, wake:RESOURCE or \
                 drop:CHAN)" s))
  in
  let print ppf k =
    Format.pp_print_string ppf (Explore.Fault.kind_to_string k)
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt_all fault_conv []
    & info [ "fault" ] ~docv:"KIND@SLICE"
        ~doc:
          "Inject a fault just before global slice $(i,SLICE) (repeatable): \
           $(b,crash@N) delivers Injected_crash to the fiber scheduled at \
           slice N, $(b,wake:RES@N) spuriously wakes every fiber parked on \
           waitset RES, $(b,drop:C@N) drops one buffered message from \
           channel C.  Faults are recorded as in-trace markers, so the \
           resulting trace replays byte-identically.")

let trace_arg p name =
  Arg.(required & pos p (some file) None & info [] ~docv:name ~doc:"JSONL trace file.")

let check_cmd =
  let doc = "lint a trace against the event-stream invariants" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const run_check $ trace_arg 0 "TRACE" $ json)

let report_cmd =
  let doc = "causal profile: critical path, utilization, blocked time" in
  let top =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Cap the per-process table at the $(docv) processes with the most \
             on-CPU virtual time (pretty output only; JSON always carries \
             every row).")
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run_report $ trace_arg 0 "TRACE" $ json $ top)

let slo_cmd =
  let doc = "per-scenario SLO rollup of a load-generator trace" in
  let asserts =
    Arg.(
      value
      & opt_all string []
      & info [ "assert" ] ~docv:"EXPR"
          ~doc:
            "SLO bound over completed-request span latency, \
             $(b,[scenario:]p50|p99|p999<=N) (virtual ticks); repeatable.  \
             Exit 1 on violation.")
  in
  Cmd.v
    (Cmd.info "slo" ~doc)
    Term.(const run_slo $ trace_arg 0 "TRACE" $ asserts $ json)

let diff_cmd =
  let doc = "first causal divergence between two traces" in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(const run_diff $ trace_arg 0 "LEFT" $ trace_arg 1 "RIGHT" $ json)

let gen_cmd =
  let doc = "trace a built-in workload on one of the schedulers" in
  let scheduler =
    Arg.(
      value & opt string "pstack"
      & info [ "scheduler" ] ~docv:"S" ~doc:"$(b,pstack) or $(b,native).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Interleaving seed.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Trace this built-in workload instead of the gen pair: one of \
                %s."
               (String.concat ", " Pcont_explore.Explore.Workloads.names)))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the trace to $(docv) (default stdout).")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Attach a flight-recorder ring sink and write its JSONL dump to \
             $(docv): automatically on deadlock or crash, otherwise at the end \
             of the run.  The dump is an ordinary trace — feed it back to \
             $(b,ptrace check)/$(b,report)/$(b,replay).")
  in
  let ring_cap =
    Arg.(
      value & opt int 4096
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Flight-recorder capacity: keep the last $(docv) events (at \
             least 1).")
  in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(
      const run_gen $ scheduler $ seed $ workload $ faults_arg $ out $ flight
      $ ring_cap)

let top_cmd =
  let doc = "live dashboard over a growing trace file" in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "JSONL trace file to tail; it may still be growing (psi \
             --trace-out) or not exist yet.")
  in
  let interval =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Polling interval.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single snapshot and exit (no screen clearing).")
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run_top $ file $ interval $ once)

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Built-in workload to run: one of %s."
             (String.concat ", " Pcont_explore.Explore.Workloads.names)))

let expr =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"EXPR"
        ~doc:"Ad-hoc Scheme program to run on the pstack scheduler.")

let replay_cmd =
  let doc = "re-run a workload pinned to a recorded trace or schedule" in
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"INPUT"
          ~doc:"A JSONL trace (replay must be byte-identical) or a schedule file.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the replayed trace to $(docv).")
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run_replay $ input $ workload $ expr $ out $ json)

let explore_cmd =
  let doc = "DPOR schedule exploration: find and minimize a racing-schedule bug" in
  let max_runs =
    Arg.(
      value & opt int 200
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Stop after $(docv) explored schedules (at least 1).")
  in
  let sweep =
    Arg.(
      value & opt int 0
      & info [ "sweep" ] ~docv:"N"
          ~doc:
            "Also run a naive $(docv)-seed Randomized sweep on the same workload \
             and report what it found, for comparison.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the minimized witness schedule to $(docv) (replay it with \
                $(b,ptrace replay)).")
  in
  let fault_menu =
    Arg.(
      value
      & opt_all fault_kind_conv []
      & info [ "fault-menu" ] ~docv:"KIND"
          ~doc:
            "Also explore fault placements (repeatable): after the fault-free \
             root run, try each $(docv) ($(b,crash), $(b,wake:RES), \
             $(b,drop:C)) at every slice of the root schedule, then explore \
             races within each placement.  The sweep (if any) derives one \
             random placement per seed from the same menu.")
  in
  let expect_bug =
    Arg.(
      value & flag
      & info [ "expect-bug" ]
          ~doc:
            "Invert the exit status: 0 when a violation is found, 1 when none is \
             (for CI jobs asserting an injected bug is caught).")
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run_explore $ workload $ expr $ max_runs $ sweep $ fault_menu $ out
      $ expect_bug $ json)

let cmd =
  let doc = "analyze scheduler traces: check invariants, profile, diff, replay, explore" in
  Cmd.group (Cmd.info "ptrace" ~version:"1.0.0" ~doc)
    [ check_cmd; report_cmd; slo_cmd; diff_cmd; gen_cmd; replay_cmd;
      explore_cmd; top_cmd ]

let () = exit (Cmd.eval' cmd)
