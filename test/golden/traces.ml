(* Golden traces: [traces native POLICY] and [traces pstack POLICY]
   print the JSONL trace of one program per scheduler under one of the
   three policies: [random] (a fixed [Randomized] seed), [rr]
   ([Round_robin]) or [last] (a [Driven_pids] policy that always steps
   the last runnable pid).  The dune rules beside this file diff them
   against the committed [*.trace.expected] files, so any change to the
   event stream of either scheduler under any of its round loops shows
   up in [dune runtest]; [dune promote] accepts an intentional one. *)

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

let usage () =
  prerr_endline "usage: traces (native|pstack) [random|rr|last]";
  exit 2

let () =
  let policy =
    match Array.sub Sys.argv 2 (Array.length Sys.argv - 2) with
    | [||] | [| "random" |] -> Sched.Randomized seed
    | [| "rr" |] -> Sched.Round_robin
    | [| "last" |] -> Sched.Driven_pids (fun pids -> Array.length pids - 1)
    | _ -> usage ()
    | exception Invalid_argument _ -> usage ()
  in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl print_string);
  (match Sys.argv.(1) with
  | "native" -> ignore (Sched.run ~policy ~obs:o native_main)
  | "pstack" ->
      let mode = Interp.Concurrent policy in
      ignore (Interp.eval_value ~mode ~obs:o (Interp.create ()) pstack_src)
  | _ -> usage ());
  Obs.close o
