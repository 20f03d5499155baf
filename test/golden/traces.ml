(* Golden traces: [traces native] and [traces pstack] print the JSONL
   trace of one program per scheduler at a fixed [Randomized] seed.  The
   dune rules beside this file diff them against the committed
   [*.trace.expected] files, so any change to the event stream of
   either scheduler shows up in [dune runtest]; [dune promote] accepts
   an intentional one. *)

module Obs = Pcont_obs.Obs
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Resil = Pcont_resil.Resil
module Interp = Pcont_syntax.Interp
module Concur = Pcont_pstack.Concur

let seed = 42L

(* A capture of a pcall subtree that is grafted straight back; a fiber
   parked on a waitset when a capture prunes it, revived by the graft
   and re-checking its gate; a timeout that cancels a sleeper; a
   channel; a future. *)
let native_main () =
  let ch = Channel.create ~capacity:2 () in
  let f = Sched.future (fun () -> 21) in
  let captured =
    Sched.spawn (fun c ->
        let a, b =
          Sched.pcall2
            (fun () -> Sched.control c (fun pk -> Sched.resume pk 10))
            (fun () ->
              Sched.yield ();
              5)
        in
        a + b)
  in
  let gate = Sched.Waitset.create "gate" in
  let opened = ref false in
  let revived =
    Sched.spawn (fun c ->
        let a, b =
          Sched.pcall2
            (fun () ->
              while not !opened do
                Sched.block gate
              done;
              7)
            (fun () ->
              Sched.yield ();
              Sched.control c (fun pk ->
                  opened := true;
                  Sched.wake gate;
                  Sched.resume pk 3))
        in
        a + b)
  in
  let timed_out =
    match
      Resil.with_timeout 3 (fun () ->
          Sched.sleep 100;
          1)
    with
    | Ok v -> v
    | Error _ -> 100
  in
  let xs =
    Sched.pcall
      [
        (fun () ->
          List.iter (Channel.send ch) [ 1; 2; 3; 4 ];
          Channel.close ch;
          0);
        (fun () ->
          let s = ref 0 in
          Channel.iter (fun v -> s := !s + v) ch;
          !s);
        (fun () -> Sched.touch f);
      ]
  in
  captured + revived + timed_out + List.fold_left ( + ) 0 xs

(* Fork, future, park, capture and two grafts of one continuation. *)
let pstack_src =
  "(let ([f (future (* 6 7))])\n\
  \  (pcall +\n\
  \    (spawn (lambda (c) (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))\n\
  \    (touch f)))"

let () =
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl print_string);
  (match Sys.argv with
  | [| _; "native" |] -> ignore (Sched.run ~policy:(Sched.Randomized seed) ~obs:o native_main)
  | [| _; "pstack" |] ->
      let mode = Interp.Concurrent (Concur.Randomized seed) in
      ignore (Interp.eval_value ~mode ~obs:o (Interp.create ()) pstack_src)
  | _ ->
      prerr_endline "usage: traces (native|pstack)";
      exit 2);
  Obs.close o
