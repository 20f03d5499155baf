module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

exception Closed

type 'a t = {
  id : int;  (* per-run id tagging the channel's trace events *)
  buf : (int * 'a) Queue.t;  (* (sender's span, value): receivers adopt it *)
  capacity : int;
  mutable closed : bool;
  senders : Sched.Waitset.t;  (* parked on a full channel *)
  receivers : Sched.Waitset.t;  (* parked on an empty channel *)
}

let create ?(capacity = 16) () =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  let ch =
    {
      id = Sched.fresh_chan_id ();
      buf = Queue.create ();
      capacity;
      closed = false;
      senders = Sched.Waitset.create "channel.send";
      receivers = Sched.Waitset.create "channel.recv";
    }
  in
  (* Fault-injection hook (Drop): losing a buffered message frees a
     slot, so parked senders must be woken exactly as a real consumer
     would wake them. *)
  Sched.register_dropper ch.id (fun () ->
      match Queue.take_opt ch.buf with
      | Some _ -> Some ch.senders
      | None -> None);
  ch

(* Blocked operations park on the channel's waitsets and re-check on
   wake-up (the scheduler is cooperative, so there is no check-then-park
   race).  A sender parked on a full channel observes a close that
   happens under it: close wakes the senders, and the re-check raises
   Closed. *)
let rec send ch v =
  if ch.closed then raise Closed
  else if Queue.length ch.buf >= ch.capacity then begin
    Sched.block ch.senders;
    send ch v
  end
  else begin
    (* stamp the message with the sender's span so the receiver's work
       is attributed to the same request *)
    Queue.add (Sched.Span.current (), v) ch.buf;
    (match Sched.obs () with
    | None -> ()
    | Some o -> Obs.emit o (E.Send { pid = Sched.self_pid (); chan = ch.id }));
    Sched.wake ch.receivers
  end

let try_recv ch =
  match Queue.take_opt ch.buf with
  | Some (span, v) ->
      Sched.Span.adopt span;
      (match Sched.obs () with
      | None -> ()
      | Some o -> Obs.emit o (E.Recv { pid = Sched.self_pid (); chan = ch.id }));
      (* Even a non-blocking take frees a slot: wake parked senders or
         they would miss it and sit parked forever. *)
      Sched.wake ch.senders;
      Some v
  | None -> None

let rec recv_opt ch =
  match Queue.take_opt ch.buf with
  | Some (span, v) ->
      Sched.Span.adopt span;
      (match Sched.obs () with
      | None -> ()
      | Some o -> Obs.emit o (E.Recv { pid = Sched.self_pid (); chan = ch.id }));
      Sched.wake ch.senders;
      Some v
  | None ->
      if ch.closed then None
      else begin
        Sched.block ch.receivers;
        recv_opt ch
      end

let recv ch = match recv_opt ch with Some v -> v | None -> raise Closed

let close ch =
  if not ch.closed then begin
    ch.closed <- true;
    (* Parked senders re-check and raise Closed; parked receivers
       re-check, drain what is buffered, then observe end-of-stream. *)
    Sched.wake ch.senders;
    Sched.wake ch.receivers
  end

let is_closed ch = ch.closed

let length ch = Queue.length ch.buf

let rec iter f ch =
  match recv_opt ch with
  | None -> ()
  | Some v ->
      f v;
      iter f ch

let of_producer ?capacity produce =
  let ch = create ?capacity () in
  let _ : unit Sched.future =
    Sched.future (fun () ->
        (* The channel must close on any exit — otherwise consumers
           blocked on it deadlock — and a producer failure must not
           escape the fiber (it would abort the whole run); consumers
           just see the stream end after the values sent so far. *)
        match produce ~send:(send ch) with
        | () -> close ch
        | exception _ -> close ch)
  in
  ch
