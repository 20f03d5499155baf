(* pload — deterministic open-loop load generation over the
   process-tree scheduler.

     pload                       run all four scenarios (quick profile)
     pload -s pool -s ring       just these scenarios
     pload --full                bench-scale profile (~10^5 fibers)
     pload --seed 11             a different (still deterministic) run
     pload --trace-out d         write one JSONL trace per scenario to
                                 d/<scenario>.jsonl (feed to ptrace slo)
     pload --flight FILE         ride a flight-recorder ring along and
                                 dump it on crash/deadlock
     pload --assert p99<=N       exit 1 unless every scenario's
                                 completed-request p99 (virtual ticks,
                                 measured from the scheduled arrival)
                                 is within the bound; repeatable, and
                                 a scenario prefix narrows the bound
                                 (pool:p999<=4000)
     pload --json                machine-readable stats on stdout

   Everything is a pure function of (profile, seed): stats and traces
   are byte-identical across runs.

   Exit codes: 0 on success; 1 when an --assert bound fails, or when a
   scenario deadlocks ("pload: <scenario>: deadlock: ...", after the
   --flight dump is written); 2 for bad arguments, before any scenario
   runs: an unknown scenario, a malformed --assert, a negative
   --requests, --workers or --deadline, or an output path that cannot
   be written ("pload: <path>: <reason>"). *)

module Obs = Pcont_obs.Obs
module Analysis = Pcont_obs.Analysis
module Load = Pcont_load.Load
module Sched = Pcont_sched.Sched
open Cmdliner

(* Open an output file named on the command line, or report why not and
   exit 2 before any scenario runs. *)
let open_output path =
  try open_out path
  with Sys_error msg ->
    Printf.eprintf "pload: %s\n" msg;
    exit 2

let run_load scens full seed requests workers deadline trace_out flight asserts
    json =
  List.iter
    (function
      | flag, Some v when v < 0 ->
          Printf.eprintf "pload: %s must be at least 0, got %d\n" flag v;
          exit 2
      | _ -> ())
    [ ("--requests", requests); ("--workers", workers);
      ("--deadline", deadline) ];
  let profile = if full then Load.full else Load.quick in
  let profile =
    { profile with
      Load.requests = Option.value ~default:profile.Load.requests requests;
      workers = Option.value ~default:profile.Load.workers workers;
      deadline = Option.value ~default:profile.Load.deadline deadline;
    }
  in
  let scens =
    match scens with
    | [] -> Load.scenarios
    | names ->
        List.map
          (fun n ->
            match Load.scenario_of_name n with
            | Some s -> s
            | None ->
                Printf.eprintf "pload: unknown scenario %S\n" n;
                exit 2)
          names
  in
  let asserts =
    List.map
      (fun a ->
        match Analysis.Slo.parse_assert a with
        | Ok a -> a
        | Error m ->
            Printf.eprintf "pload: %s\n" m;
            exit 2)
      asserts
  in
  (* Every output is opened, or checked, before the first scenario runs:
     a bad path fails in milliseconds, not after the load. *)
  let traces =
    match trace_out with
    | None -> List.map (fun _ -> None) scens
    | Some dir ->
        (try Unix.mkdir dir 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
            Printf.eprintf "pload: %s: %s\n" dir (Unix.error_message e);
            exit 2);
        List.map
          (fun scen ->
            Some (open_output (Filename.concat dir (Load.scenario_name scen ^ ".jsonl"))))
          scens
  in
  Option.iter (fun path -> close_out (open_output path)) flight;
  let all =
    List.map2
      (fun scen trace ->
        (* Each sink with the channel it writes.  A handle exists only to
           carry them, so an untraced run does no tracing work. *)
        let sinks =
          List.filter_map Fun.id
            [
              Option.map (fun oc -> (oc, Obs.Sink.jsonl (Obs.Sink.of_channel oc))) trace;
              Option.map
                (fun path ->
                  let oc = open_out path in
                  (oc, Obs.Sink.ring_sink (Obs.Sink.ring ~flight:(Obs.Sink.of_channel oc) ())))
                flight;
            ]
        in
        let obs = match sinks with [] -> None | _ -> Some (Obs.create ()) in
        Option.iter (fun o -> List.iter (fun (_, sink) -> Obs.attach o sink) sinks) obs;
        let finish () =
          Option.iter Obs.close obs;
          List.iter (fun (oc, _) -> close_out oc) sinks
        in
        match
          Fun.protect ~finally:finish (fun () ->
              Load.run ?obs profile ~seed:(Int64.of_int seed) scen)
        with
        | st -> st
        | exception Sched.Deadlock msg ->
            Printf.eprintf "pload: %s: %s\n" (Load.scenario_name scen) msg;
            exit 1)
      scens traces
  in
  if json then
    print_endline
      (Obs.Json.to_string (Obs.Json.Arr (List.map Load.stats_to_json all)))
  else
    List.iter (fun st -> Format.printf "%a@." Load.pp_stats st) all;
  (* Evaluate the SLO assertions against the in-process sketches (the
     arrival-anchored numbers; ptrace slo applies the same check to the
     span latencies of an exported trace). *)
  let latencies =
    List.map (fun st -> (st.Load.st_scenario, st.Load.st_latency)) all
  in
  let failures = List.concat_map (Analysis.Slo.check latencies) asserts in
  List.iter (Printf.eprintf "pload: %s\n") failures;
  if failures = [] then 0 else 1

let scenario_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "s"; "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario to run ($(b,pool), $(b,ring), $(b,pipeline), \
           $(b,stream)); repeatable.  Default: all four.")

let full_arg =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:"Bench-scale profile (~10^5 peak fibers per scenario) instead of \
              the quick (~10^4) one.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ] ~docv:"N"
        ~doc:"Override the profile's request count (0 or more).")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:"Override the pool-worker / ring-actor count (0 or more).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline" ] ~docv:"TICKS"
        ~doc:
          "Override the per-request deadline (0 or more; 0 disables \
           deadlines).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"DIR"
        ~doc:"Write one JSONL trace per scenario to $(docv)/<scenario>.jsonl.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:"Attach a flight-recorder ring; its window is dumped to $(docv) \
              on crash or deadlock.")

let assert_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "assert" ] ~docv:"EXPR"
        ~doc:
          "SLO bound over completed-request latency, \
           $(b,[scenario:]p50|p99|p999<=N) (virtual ticks); repeatable.  \
           Exit 1 on violation.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output.")

let cmd =
  let doc = "deterministic open-loop load scenarios with SLO attribution" in
  Cmd.v
    (Cmd.info "pload" ~version:"1.0.0" ~doc)
    Term.(
      const run_load $ scenario_arg $ full_arg $ seed_arg $ requests_arg
      $ workers_arg $ deadline_arg $ trace_out_arg $ flight_arg $ assert_arg
      $ json_arg)

let () = exit (Cmd.eval' cmd)
