(* Tests for the always-on telemetry layer: the event wire schema
   (one table behind JSONL encode/decode, the Chrome args and the
   ring's codec), the flight-recorder ring (unboxed storage,
   wrap-around, dumps that the whole ptrace toolchain accepts), the
   quantile sketch's relative-error bound on assorted distributions,
   metrics merging, sink fan-out hardening, causal spans on both
   schedulers, and deterministic head sampling. *)

module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Json = Pcont_obs.Obs.Json
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Explore = Pcont_explore.Explore
module Interp = Pcont_syntax.Interp
module Concur = Pcont_pstack.Concur
module Pstack = Pcont_pstack
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel

let parse_ok what s =
  match Trace.parse_string s with
  | Ok evs -> evs
  | Error m -> Alcotest.failf "%s does not parse: %s" what m

let check_clean what s =
  let evs = parse_ok what s in
  match Analysis.Check.run evs with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s violates %s: %s" what v.Analysis.Check.v_rule
        v.Analysis.Check.v_msg

let jsonl_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let ring_dump_string r =
  let buf = Buffer.create 1024 in
  Obs.Sink.ring_dump r (Buffer.add_string buf);
  Buffer.contents buf

(* ---------------- wire schema ---------------- *)

(* One event per constructor with its wire payload, pinned byte for
   byte.  Three tests share it: the JSONL round trip, the Chrome args,
   and the ring's unboxed encode/decode (including the boxed fallback
   for the two array-carrying events). *)
let all_constructors =
  [
    (E.Spawn { pid = 1; parent = -1; kind = "root" }, {|"pid":1,"parent":-1,"kind":"root"|});
    ( E.Spawn_batch { pid = 1; kind = "graft"; nodes = [| (2, 1); (3, 2) |] },
      {|"pid":1,"kind":"graft","nodes":[[2,1],[3,2]]|} );
    (E.Slice_begin { pid = 1 }, {|"pid":1|});
    (E.Slice_end { pid = 1; fuel = 17 }, {|"pid":1,"fuel":17|});
    (E.Park { pid = 2; resource = "future" }, {|"pid":2,"resource":"future"|});
    (E.Wake { pid = 2; resource = "channel.send" }, {|"pid":2,"resource":"channel.send"|});
    ( E.Capture { pid = 1; label = 4; root_pid = 1; control_points = 2; size = 5 },
      {|"pid":1,"label":4,"root_pid":1,"control_points":2,"size":5|} );
    (E.Reinstate { pid = 2; label = 4; size = 5 }, {|"pid":2,"label":4,"size":5|});
    (E.Send { pid = 1; chan = 0 }, {|"pid":1,"chan":0|});
    (E.Recv { pid = 2; chan = 0 }, {|"pid":2,"chan":0|});
    ( E.Cancel { pid = 1; scope = 2; reason = "timeout"; pids = [| 2; 3 |] },
      {|"pid":1,"scope":2,"reason":"timeout","pids":[2,3]|} );
    (E.Timeout { pid = 9; deadline = 77 }, {|"pid":9,"deadline":77|});
    (E.Crash { pid = 2; fault = "inject:crash" }, {|"pid":2,"fault":"inject:crash"|});
    ( E.Restart { pid = 1; child = 2; attempt = 1; backoff = 8; limit = 3 },
      {|"pid":1,"child":2,"attempt":1,"backoff":8,"limit":3|} );
    (E.Invalid_controller { pid = 5; label = 9 }, {|"pid":5,"label":9|});
    (E.Deadlock { parked = 2 }, {|"parked":2|});
    ( E.Span_begin { pid = 1; span = 0; parent = -1; name = "work" },
      {|"pid":1,"span":0,"parent":-1,"name":"work"|} );
    (E.Span_end { pid = 1; span = 0 }, {|"pid":1,"span":0|});
    (E.Exit { pid = 1 }, {|"pid":1|});
  ]

let events = List.map fst all_constructors

let test_schema_round_trip () =
  Alcotest.(check int) "one entry per constructor" 19
    (List.length (List.sort_uniq compare (List.map E.name events)));
  List.iteri
    (fun seq (ev, payload) ->
      let ts = 3 * seq in
      let line = Json.to_string (E.to_json ~seq ~ts ev) in
      Alcotest.(check string) "wire bytes"
        (Printf.sprintf {|{"seq":%d,"ts":%d,"ev":"%s",%s}|} seq ts (E.name ev) payload)
        line;
      match Result.bind (Json.parse line) E.of_json with
      | Ok (seq', ts', ev') when seq' = seq && ts' = ts && ev' = ev -> ()
      | Ok (_, _, ev') -> Alcotest.failf "%s decoded to %s" line (E.to_human ev')
      | Error m -> Alcotest.failf "%s does not decode: %s" line m)
    all_constructors

(* Every instant's args are its wire fields minus pid, each array shown
   as its length; slices and spans are the only other records. *)
let test_chrome_args_are_wire_fields () =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.chrome (Buffer.add_string buf));
  List.iter (Obs.emit o) events;
  Obs.close o;
  let records =
    match Json.parse (Buffer.contents buf) with
    | Ok (Json.Arr rs) -> rs
    | Ok _ -> Alcotest.fail "chrome output is not an array"
    | Error m -> Alcotest.failf "chrome output is not JSON: %s" m
  in
  let ph r = Json.member "ph" r in
  let instants = List.filter (fun r -> ph r = Some (Json.Str "i")) records in
  let expected =
    List.filter
      (function
        | E.Slice_begin _ | E.Slice_end _ | E.Span_begin _ | E.Span_end _ -> false
        | _ -> true)
      events
  in
  Alcotest.(check int) "one instant per non-slice, non-span event" (List.length expected)
    (List.length instants);
  List.iter2
    (fun ev r ->
      let num v = Json.Num (float_of_int v) in
      let args =
        List.filter_map
          (function
            | "pid", _ -> None
            | k, E.Int v -> Some (k, num v)
            | k, E.Str s -> Some (k, Json.Str s)
            | _, E.Ints a -> Some ("count", num (Array.length a))
            | _, E.Pairs a -> Some ("count", num (Array.length a)))
          (E.fields ev)
      in
      let got = Option.value ~default:(Json.Obj []) (Json.member "args" r) in
      if got <> Json.Obj args then
        Alcotest.failf "%s: args %s, expected %s" (E.name ev) (Json.to_string got)
          (Json.to_string (Json.Obj args));
      Alcotest.(check bool) "named after the event" true
        (Json.member "name" r = Some (Json.Str (E.name ev)));
      Alcotest.(check bool) "on the event's track" true
        (Json.member "tid" r = Some (num (max 0 (E.pid ev)))))
    expected instants;
  Alcotest.(check int) "one B and one E" 2
    (List.length
       (List.filter (fun r -> ph r = Some (Json.Str "B") || ph r = Some (Json.Str "E")) records))

(* A line with several bad fields is reported at the first in wire
   order, whatever order the decoder happens to evaluate them in. *)
let test_decoder_names_first_bad_field () =
  List.iter
    (fun (line, want) ->
      match Result.bind (Json.parse line) E.of_json with
      | Ok _ -> Alcotest.failf "%s decoded" line
      | Error m -> Alcotest.(check string) line want m)
    [
      ({|{"seq":0,"ts":0,"ev":"spawn"}|}, {|missing field "pid"|});
      ({|{"seq":0,"ts":0,"ev":"capture","pid":1}|}, {|missing field "label"|});
      ( {|{"seq":0,"ts":0,"ev":"restart","pid":"a","child":2,"attempt":1,"backoff":8,"limit":"b"}|},
        {|field "pid" is not an integer|} );
      ({|{"ts":"x","ev":"bogus"}|}, {|missing field "seq"|});
      ({|{"seq":0,"ts":0,"ev":"bogus","pid":"x"}|}, {|unknown event tag "bogus"|});
      ({|{"seq":0,"ts":0,"ev":"cancel","pid":1,"scope":2,"reason":"r","pids":[1,"x",1e30]}|},
        {|field "pids" entries must be integers|});
      ({|{"seq":0,"ts":0,"ev":"cancel","pid":1,"scope":2,"reason":7,"pids":3}|},
        {|field "reason" is not a string|});
      ({|{"seq":0,"ts":0,"ev":"cancel","pid":1,"scope":2,"reason":"r","pids":3}|},
        {|field "pids" is not an array|});
      ({|{"seq":0,"ts":0,"ev":"spawn-batch","pid":1,"kind":"graft","nodes":[[2]]}|},
        {|field "nodes" entries must be [pid,parent] int pairs|});
    ]

(* Random events, with ints anywhere in the exact range and strings
   carrying quotes, backslashes, control and non-ASCII bytes, encode to
   the same bytes after a decode, and the ring dumps exactly the JSONL
   sink's bytes. *)
let gen_event =
  let open QCheck.Gen in
  let bound = 999_999_999_999_999 in
  let i = oneof [ small_signed_int; int_range (-bound) bound; oneofl [ bound; -bound ] ] in
  let s = string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\000'; '\x7f' ] ]) (int_bound 8) in
  let is n = array_size (int_bound 4) n in
  oneof
    [
      (let+ pid = i and+ parent = i and+ kind = s in E.Spawn { pid; parent; kind });
      (let+ pid = i and+ kind = s and+ nodes = is (pair i i) in
       E.Spawn_batch { pid; kind; nodes });
      map (fun pid -> E.Exit { pid }) i;
      map (fun pid -> E.Slice_begin { pid }) i;
      map2 (fun pid fuel -> E.Slice_end { pid; fuel }) i i;
      map2 (fun pid resource -> E.Park { pid; resource }) i s;
      map2 (fun pid resource -> E.Wake { pid; resource }) i s;
      (let+ pid = i and+ label = i and+ root_pid = i and+ control_points = i and+ size = i in
       E.Capture { pid; label; root_pid; control_points; size });
      map3 (fun pid label size -> E.Reinstate { pid; label; size }) i i i;
      map2 (fun pid chan -> E.Send { pid; chan }) i i;
      map2 (fun pid chan -> E.Recv { pid; chan }) i i;
      (let+ pid = i and+ scope = i and+ reason = s and+ pids = is i in
       E.Cancel { pid; scope; reason; pids });
      map2 (fun pid deadline -> E.Timeout { pid; deadline }) i i;
      map2 (fun pid fault -> E.Crash { pid; fault }) i s;
      (let+ pid = i and+ child = i and+ attempt = i and+ backoff = i and+ limit = i in
       E.Restart { pid; child; attempt; backoff; limit });
      map2 (fun pid label -> E.Invalid_controller { pid; label }) i i;
      map (fun parked -> E.Deadlock { parked }) i;
      (let+ pid = i and+ span = i and+ parent = i and+ name = s in
       E.Span_begin { pid; span; parent; name });
      map2 (fun pid span -> E.Span_end { pid; span }) i i;
    ]

let prop_schema_round_trip =
  QCheck.Test.make ~name:"random events round-trip through JSONL and the ring" ~count:300
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map E.to_human evs))
       QCheck.Gen.(list_size (int_range 1 8) gen_event))
    (fun evs ->
      let buf = Buffer.create 256 in
      let r = Obs.Sink.ring ~capacity:8 () in
      let o = Obs.create () in
      Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
      Obs.attach o (Obs.Sink.ring_sink r);
      List.iteri
        (fun k ev ->
          Obs.advance o k;
          Obs.emit o ev)
        evs;
      let jsonl = Buffer.contents buf in
      let reencoded =
        List.map2
          (fun line ev ->
            match Result.bind (Json.parse line) E.of_json with
            | Ok (seq, ts, ev') when ev' = ev -> Json.to_string (E.to_json ~seq ~ts ev') ^ "\n"
            | Ok _ -> QCheck.Test.fail_reportf "%s decoded to a different event" line
            | Error m -> QCheck.Test.fail_reportf "%s does not decode: %s" line m)
          (jsonl_lines jsonl) evs
      in
      String.concat "" reencoded = jsonl && ring_dump_string r = jsonl)

(* ---------------- flight-recorder ring ---------------- *)

let test_ring_roundtrip_all_constructors () =
  let r = Obs.Sink.ring ~capacity:32 () in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.ring_sink r);
  List.iteri
    (fun i ev ->
      Obs.advance o (if i mod 3 = 0 then 2 else 0);
      Obs.emit o ev)
    events;
  let evs = parse_ok "ring dump" (ring_dump_string r) in
  Alcotest.(check int) "all events stored" (List.length events) (Array.length evs);
  List.iteri
    (fun i expected ->
      let got = evs.(i) in
      Alcotest.(check int) "original seq preserved" i got.Trace.seq;
      if got.Trace.ev <> expected then
        Alcotest.failf "event %d decoded to %s, expected %s" i
          (E.to_human got.Trace.ev) (E.to_human expected))
    events

let test_ring_wraparound () =
  let cap = 8 and total = 21 in
  let r = Obs.Sink.ring ~capacity:cap () in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.ring_sink r);
  for pid = 0 to total - 1 do
    Obs.emit o (E.Exit { pid })
  done;
  Alcotest.(check int) "stored = capacity" cap (Obs.Sink.ring_stored r);
  Alcotest.(check int) "dropped = total - capacity" (total - cap)
    (Obs.Sink.ring_dropped r);
  let evs = parse_ok "wrapped dump" (ring_dump_string r) in
  Alcotest.(check int) "dump holds capacity events" cap (Array.length evs);
  Array.iteri
    (fun k e ->
      (* Oldest surviving event first, original stamps intact. *)
      Alcotest.(check int) "seq windowed + ordered" (total - cap + k) e.Trace.seq;
      match e.Trace.ev with
      | E.Exit { pid } -> Alcotest.(check int) "payload matches seq" e.Trace.seq pid
      | ev -> Alcotest.failf "unexpected event %s" (E.to_human ev))
    evs

let test_ring_dump_then_continue () =
  let r = Obs.Sink.ring ~capacity:4 () in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.ring_sink r);
  for pid = 0 to 5 do Obs.emit o (E.Exit { pid }) done;
  let first = ring_dump_string r in
  Alcotest.(check int) "first window" 4 (Array.length (parse_ok "dump 1" first));
  (* Dumping is read-only: recording continues where it left off. *)
  for pid = 6 to 9 do Obs.emit o (E.Exit { pid }) done;
  let second = parse_ok "dump 2" (ring_dump_string r) in
  Alcotest.(check int) "second window" 4 (Array.length second);
  Alcotest.(check int) "window advanced" 6 second.(0).Trace.seq;
  Alcotest.(check int) "nothing lost in between" 10 (Obs.Sink.ring_stored r + Obs.Sink.ring_dropped r)

(* The strongest decode-fidelity check: on a real scheduler run, the
   ring dump must be byte-for-byte the tail of the full JSONL trace. *)
let span_src =
  "(let ([s (span-begin \"outer\")])\n\
  \  (let ([f (future (let ([i (span-begin \"inner\")])\n\
  \                     (let ([x (* 6 7)])\n\
  \                       (let ([d (span-end i)]) x))))])\n\
  \    (let ([v (pcall + (touch f) 2)])\n\
  \      (let ([d (span-end s)]) v))))"

let pstack_run ?obs ?(seed = 42) src =
  let t = Interp.create () in
  let mode = Interp.Concurrent (Concur.Randomized (Int64.of_int seed)) in
  Interp.eval_value ~mode ?obs t src

let test_ring_dump_is_trace_tail () =
  let run capacity =
    let buf = Buffer.create 4096 in
    let o = Obs.create () in
    Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
    let r = Obs.Sink.ring ~capacity () in
    Obs.attach o (Obs.Sink.ring_sink r);
    ignore (pstack_run ~obs:o span_src);
    Obs.close o;
    (Buffer.contents buf, r)
  in
  let full, big = run 65536 in
  Alcotest.(check int) "unwrapped ring" 0 (Obs.Sink.ring_dropped big);
  Alcotest.(check string) "unwrapped dump = whole trace" full
    (ring_dump_string big);
  check_clean "ring dump" (ring_dump_string big);
  let full2, small = run 16 in
  Alcotest.(check bool) "ring wrapped" true (Obs.Sink.ring_dropped small > 0);
  let tail =
    let lines = jsonl_lines full2 in
    let n = List.length lines in
    List.filteri (fun i _ -> i >= n - 16) lines
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""
  in
  Alcotest.(check string) "wrapped dump = trace tail" tail
    (ring_dump_string small);
  (* seq-dense accepts the windowed base, so a wrapped dump still
     passes every checker rule. *)
  check_clean "wrapped ring dump" (ring_dump_string small)

let test_ring_flight_dump_on_crash () =
  let dumps = ref [] in
  let r = Obs.Sink.ring ~capacity:8 ~flight:(fun s -> dumps := s :: !dumps) () in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.ring_sink r);
  Obs.emit o (E.Spawn { pid = 0; parent = -1; kind = "root" });
  for pid = 1 to 4 do Obs.emit o (E.Spawn { pid; parent = 0; kind = "branch" }) done;
  Obs.emit o (E.Exit { pid = 3 });
  Obs.emit o (E.Exit { pid = 4 });
  Alcotest.(check int) "no dump yet" 0 (Obs.Sink.ring_dumps r);
  Obs.emit o (E.Crash { pid = 2; fault = "inject:crash" });
  Alcotest.(check int) "crash dumped" 1 (Obs.Sink.ring_dumps r);
  Obs.emit o (E.Deadlock { parked = 0 });
  Alcotest.(check int) "deadlock dumped" 2 (Obs.Sink.ring_dumps r);
  match !dumps with
  | [ second; first ] ->
      let f = parse_ok "flight dump" first in
      Alcotest.(check int) "crash is last event of its dump" 7
        f.(Array.length f - 1).Trace.seq;
      check_clean "flight dump" first;
      (* The second dump wrapped (9 events through a ring of 8): a
         mid-run window, still accepted by every checker rule. *)
      let s = parse_ok "flight dump 2" second in
      Alcotest.(check int) "second dump holds the window" 8 (Array.length s);
      Alcotest.(check int) "windowed base" 1 s.(0).Trace.seq;
      check_clean "wrapped flight dump" second
  | l -> Alcotest.failf "expected 2 dumps, got %d" (List.length l)

(* ---------------- quantile sketch accuracy ---------------- *)

(* Explicit PRNG so the distributions are reproducible everywhere. *)
let splitmix st =
  st := Int64.add !st 0x9e3779b97f4a7c15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform01 st =
  let bits = Int64.to_float (Int64.shift_right_logical (splitmix st) 11) in
  (bits +. 1.) /. 9007199254740994. (* in (0,1), never exactly 0 *)

let check_sketch_accuracy name values =
  let alpha = 0.01 in
  let sk = Obs.Metrics.Sketch.create () in
  Array.iter (Obs.Metrics.Sketch.observe sk) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  List.iter
    (fun q ->
      (* Same rank convention as the sketch: value at floor(q·(n−1)). *)
      let exact = sorted.(int_of_float (q *. float_of_int (n - 1))) in
      let est = Obs.Metrics.Sketch.quantile sk q in
      if est > float_of_int (Obs.Metrics.Sketch.max sk) then
        Alcotest.failf "%s: q=%.3f estimate %.2f exceeds the max %d" name q est
          (Obs.Metrics.Sketch.max sk);
      let rel = abs_float (est -. float_of_int exact) /. float_of_int exact in
      if rel > alpha *. 1.001 then
        Alcotest.failf "%s: q=%.3f estimate %.2f vs exact %d (rel %.4f > %.4f)"
          name q est exact rel alpha)
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_sketch_accuracy () =
  let n = 10_000 in
  let st = ref 1L in
  let uniform =
    Array.init n (fun _ -> 1 + Int64.to_int (Int64.rem (splitmix st) 10_000L))
  in
  check_sketch_accuracy "uniform" (Array.map abs uniform);
  let pareto =
    (* xm = 10, shape 1.5: a heavy tail spanning several decades. *)
    Array.init n (fun _ ->
        int_of_float (10. /. (uniform01 st ** (1. /. 1.5))) |> max 1)
  in
  check_sketch_accuracy "pareto" pareto;
  let bimodal =
    Array.init n (fun i ->
        let jitter = 1 + Int64.to_int (Int64.rem (splitmix st) 5L) in
        if i mod 2 = 0 then 10 + jitter else 100_000 + (100 * jitter))
  in
  check_sketch_accuracy "bimodal" bimodal;
  (* 900's bucket midpoint is 907: only the clamp keeps it at the max *)
  check_sketch_accuracy "one value" [| 900 |]

(* ---------------- sink fan-out hardening ---------------- *)

let memory_sink acc =
  Obs.Sink.memory (fun (seq, _ts, ev) -> acc := (seq, ev) :: !acc)

let raising_sink () =
  {
    Obs.sink_event = (fun ~seq:_ ~ts:_ _ -> failwith "boom");
    Obs.sink_close = (fun () -> ());
  }

let test_fanout_detaches_raising_sink () =
  let before = ref [] and after = ref [] in
  let o = Obs.create () in
  Obs.attach o (memory_sink before);
  Obs.attach o (raising_sink ());
  Obs.attach o (memory_sink after);
  Obs.emit o (E.Exit { pid = 0 });
  Obs.emit o (E.Exit { pid = 1 });
  Obs.emit o (E.Exit { pid = 2 });
  let got l = List.rev_map (fun (s, e) -> (s, E.name e, E.pid e)) !l in
  let expect =
    [
      (0, "exit", 0);
      (* the detachment warning goes to the surviving sinks *)
      (1, "crash", -1);
      (2, "exit", 1);
      (3, "exit", 2);
    ]
  in
  Alcotest.(check (list (triple int string int))) "sink before survives" expect (got before);
  Alcotest.(check (list (triple int string int))) "sink after survives" expect (got after);
  (match List.rev !before with
  | _ :: (_, E.Crash { fault; _ }) :: _ ->
      Alcotest.(check bool) "warning names the sink failure" true
        (String.length fault > 5 && String.sub fault 0 5 = "sink:")
  | _ -> Alcotest.fail "no crash warning recorded");
  Alcotest.(check int) "seq advanced once per event" 4 (Obs.seq o)

let test_fanout_single_raising_sink () =
  (* The single-sink fast path must harden identically: detach, keep
     the sequence dense, and not propagate the exception. *)
  let o = Obs.create () in
  Obs.attach o (raising_sink ());
  Obs.emit o (E.Exit { pid = 0 });
  Alcotest.(check bool) "raising sink detached" false (Obs.has_sink o);
  Alcotest.(check int) "event + warning stamped" 2 (Obs.seq o);
  Obs.emit o (E.Exit { pid = 1 });
  Alcotest.(check int) "later emits still stamp" 3 (Obs.seq o)

(* ---------------- causal spans ---------------- *)

let test_pstack_spans () =
  let buf = Buffer.create 4096 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let v = pstack_run ~obs:o span_src in
  Obs.close o;
  Alcotest.(check string) "program result" "44" (Pstack.Value.to_string v);
  let trace = Buffer.contents buf in
  check_clean "pstack span trace" trace;
  let evs = parse_ok "pstack span trace" trace in
  let begins =
    Array.to_list evs
    |> List.filter_map (fun e ->
           match e.Trace.ev with
           | E.Span_begin { span; name; parent; _ } -> Some (span, name, parent)
           | _ -> None)
  in
  let ends =
    Array.to_list evs
    |> List.filter_map (fun e ->
           match e.Trace.ev with E.Span_end { span; _ } -> Some span | _ -> None)
  in
  Alcotest.(check int) "two spans" 2 (List.length begins);
  Alcotest.(check bool) "outer at top level" true
    (List.exists (fun (_, n, p) -> n = "outer" && p = -1) begins);
  (* The future's branch inherits the opener's context, so "inner"
     nests under "outer" even though it runs in another tree. *)
  let outer_id =
    match List.find_opt (fun (_, n, _) -> n = "outer") begins with
    | Some (id, _, _) -> id
    | None -> Alcotest.fail "outer span missing"
  in
  Alcotest.(check bool) "inner nests under outer" true
    (List.exists (fun (_, n, p) -> n = "inner" && p = outer_id) begins);
  List.iter
    (fun (id, n, _) ->
      Alcotest.(check bool) (n ^ " closed") true (List.mem id ends))
    begins;
  (* Span rows reach the causal report. *)
  match Analysis.Report.of_trace evs with
  | [ r ] ->
      let names = List.map (fun s -> s.Analysis.Report.sp_name) r.Analysis.Report.r_spans in
      Alcotest.(check (list string)) "report span rows" [ "inner"; "outer" ] names
  | rs -> Alcotest.failf "expected one run, got %d" (List.length rs)

let test_pstack_span_determinism () =
  let run () =
    let buf = Buffer.create 4096 in
    let o = Obs.create () in
    Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
    ignore (pstack_run ~obs:o ~seed:11 span_src);
    Obs.close o;
    Buffer.contents buf
  in
  Alcotest.(check string) "span ids byte-stable per seed" (run ()) (run ())

(* Span ids are program-visible, so a program must see the same ids
   with or without a trace handle: dense from 0, continuing across a
   session's forms. *)
let test_span_ids_independent_of_tracing () =
  let run obs =
    let t = Interp.create () in
    Interp.eval_string ~mode:(Interp.Concurrent Concur.Round_robin) ?obs t
      "(list (span-begin \"a\") (span-begin \"b\"))\n(span-begin \"c\")"
    |> List.map Interp.result_to_string
  in
  let traced = run (Some (Obs.create ())) in
  Alcotest.(check (list string)) "traced ids" [ "(0 1)"; "2" ] traced;
  Alcotest.(check (list string)) "untraced ids" traced (run None)

let native_span_main () =
  let ch = Channel.create ~capacity:1 () in
  let producer =
    Sched.future (fun () ->
        Sched.Span.with_ "produce" (fun () ->
            Channel.send ch 21;
            1))
  in
  Sched.Span.with_ "request" (fun () ->
      let doubled =
        Sched.Span.with_ "consume" (fun () ->
            (* recv adopts the sender's span mid-block, then this span
               context continues; either way every span still closes. *)
            2 * Channel.recv ch)
      in
      doubled + (21 * Sched.touch producer))

let test_native_spans () =
  let buf = Buffer.create 4096 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  let r = Sched.run ~policy:(Sched.Randomized 3L) ~obs:o native_span_main in
  Alcotest.(check int) "result" 63 r;
  Obs.close o;
  let trace = Buffer.contents buf in
  check_clean "native span trace" trace;
  let evs = parse_ok "native span trace" trace in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Alcotest.(check int) (s.Analysis.Report.sp_name ^ " closed") 0
            s.Analysis.Report.sp_open)
        r.Analysis.Report.r_spans)
    (Analysis.Report.of_trace evs);
  let begins =
    Array.to_list evs
    |> List.filter_map (fun e ->
           match e.Trace.ev with
           | E.Span_begin { name; _ } -> Some name
           | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "three spans begun"
    [ "consume"; "produce"; "request" ] begins;
  let end_count =
    Array.to_list evs
    |> List.filter (fun e ->
           match e.Trace.ev with E.Span_end _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "three spans ended" 3 end_count

(* A fiber inside a span is captured and grafted back onto a fresh
   node.  Closing the span restores the parent on the node the fiber
   runs on by then, so what it does next is outside the span. *)
let test_native_span_across_graft () =
  let after = ref 0 and child = ref 0 in
  Sched.run ~obs:(Obs.create ()) (fun () ->
      Sched.spawn (fun c ->
          Sched.Span.with_ "s" (fun () -> Sched.control c (fun pk -> Sched.resume pk ()));
          after := Sched.Span.current ();
          ignore (Sched.pcall2 (fun () -> child := Sched.Span.current ()) ignore)));
  Alcotest.(check int) "span after close" (-1) !after;
  Alcotest.(check int) "child's span" (-1) !child

(* ---------------- deterministic sampling ---------------- *)

let sampled_pstack_trace ~seed ~rate () =
  let buf = Buffer.create 4096 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.sampled ~seed ~rate (Obs.Sink.jsonl (Buffer.add_string buf)));
  ignore (pstack_run ~obs:o ~seed:5 span_src);
  Obs.close o;
  Buffer.contents buf

let test_sampling_deterministic () =
  let a = sampled_pstack_trace ~seed:9L ~rate:0.4 () in
  let b = sampled_pstack_trace ~seed:9L ~rate:0.4 () in
  Alcotest.(check string) "same seed+rate, byte-identical" a b;
  let full = sampled_pstack_trace ~seed:9L ~rate:1.0 () in
  Alcotest.(check bool) "sampling drops events" true
    (List.length (jsonl_lines a) < List.length (jsonl_lines full));
  (* Structural events always pass: every spawn and exit survives. *)
  let count tag s =
    jsonl_lines s
    |> List.filter (fun l ->
           match Json.parse l with
           | Ok v -> Json.member "ev" v = Some (Json.Str tag)
           | Error _ -> false)
    |> List.length
  in
  Alcotest.(check int) "spawns kept" (count "spawn" full) (count "spawn" a);
  Alcotest.(check int) "exits kept" (count "exit" full) (count "exit" a)

let test_sampling_native_deterministic () =
  let run () =
    let buf = Buffer.create 4096 in
    let o = Obs.create () in
    Obs.attach o
      (Obs.Sink.sampled ~seed:13L ~rate:0.3 (Obs.Sink.jsonl (Buffer.add_string buf)));
    ignore (Sched.run ~policy:(Sched.Randomized 8L) ~obs:o native_span_main);
    Obs.close o;
    Buffer.contents buf
  in
  Alcotest.(check string) "native sampled trace byte-stable" (run ()) (run ())

let test_sampler_does_not_perturb_full_trace () =
  let run with_sampler =
    let buf = Buffer.create 4096 in
    let o = Obs.create () in
    Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
    if with_sampler then
      Obs.attach o (Obs.Sink.sampled ~seed:2L ~rate:0.5 (Obs.Sink.jsonl ignore));
    ignore (pstack_run ~obs:o ~seed:17 span_src);
    Obs.close o;
    Buffer.contents buf
  in
  Alcotest.(check string) "full trace identical with sampler attached"
    (run false) (run true)

(* Snapshot is the one derivation of the distributions the events
   carry.  A root spawn starts a run whose pids are fresh, so a wake the
   last run never consumed must not time a slice of the next; span ids
   belong to the handle, so a span stays open across runs. *)
let test_snapshot_folds_events () =
  let snap = Analysis.Snapshot.create () in
  List.iteri
    (fun seq (ts, ev) -> Analysis.Snapshot.feed snap { Trace.seq; ts; ev })
    [
      (0, E.Spawn { pid = 0; parent = -1; kind = "root" });
      (0, E.Span_begin { pid = 0; span = 0; parent = -1; name = "req" });
      (0, E.Spawn { pid = 1; parent = 0; kind = "branch" });
      (1, E.Park { pid = 1; resource = "future" });
      (5, E.Wake { pid = 1; resource = "future" });
      (6, E.Capture { pid = 0; label = 1; root_pid = 0; control_points = 2; size = 3 });
      (10, E.Spawn { pid = 0; parent = -1; kind = "root" });
      (10, E.Spawn { pid = 1; parent = 0; kind = "branch" });
      (20, E.Slice_begin { pid = 1 });
      (22, E.Slice_end { pid = 1; fuel = 2 });
      (22, E.Cancel { pid = 0; scope = 0; reason = "r"; pids = [| 1 |] });
      (30, E.Span_end { pid = 0; span = 0 });
    ];
  let stat name =
    match Obs.Metrics.find (Analysis.Snapshot.metrics snap) name with
    | Some sk -> (Obs.Metrics.Sketch.count sk, Obs.Metrics.Sketch.max sk)
    | None -> (0, 0)
  in
  List.iter
    (fun (name, want) -> Alcotest.(check (pair int int)) name want (stat name))
    [
      ("wake.to.run", (0, 0));
      ("span.duration", (1, 30));
      ("slice.fuel", (1, 2));
      ("capture.control-points", (1, 2));
      ("capture.size", (1, 3));
      ("cancel.pids", (1, 1));
    ]

let test_record_with_ring_attached () =
  (* Extra sinks hung on a recording's handle (the flight-recorder
     hook) must not change the recorded bytes or break replay. *)
  let target = Explore.Workloads.gen_pstack in
  let plain = Explore.Replay.record target in
  let r = Obs.Sink.ring ~capacity:256 () in
  let with_ring =
    Explore.Replay.record ~attach:(fun o -> Obs.attach o (Obs.Sink.ring_sink r)) target
  in
  Alcotest.(check string) "recorded bytes unperturbed"
    plain.Explore.Replay.rec_trace with_ring.Explore.Replay.rec_trace;
  Alcotest.(check bool) "ring saw the stream" true (Obs.Sink.ring_stored r > 0);
  match Explore.Replay.check_roundtrip target with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let () =
  Alcotest.run "telemetry"
    [
      ( "schema",
        [
          Alcotest.test_case "every constructor round-trips" `Quick test_schema_round_trip;
          Alcotest.test_case "chrome args are the wire fields" `Quick
            test_chrome_args_are_wire_fields;
          Alcotest.test_case "decoder names the first bad field" `Quick
            test_decoder_names_first_bad_field;
          QCheck_alcotest.to_alcotest prop_schema_round_trip;
        ] );
      ( "ring",
        [
          Alcotest.test_case "all constructors round-trip" `Quick
            test_ring_roundtrip_all_constructors;
          Alcotest.test_case "wrap-around ordering" `Quick test_ring_wraparound;
          Alcotest.test_case "dump then continue" `Quick test_ring_dump_then_continue;
          Alcotest.test_case "dump = trace tail, checks clean" `Quick
            test_ring_dump_is_trace_tail;
          Alcotest.test_case "flight dump on crash/deadlock" `Quick
            test_ring_flight_dump_on_crash;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "relative-error bound" `Quick test_sketch_accuracy;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot folds the events" `Quick
            test_snapshot_folds_events;
        ] );
      ( "fan-out",
        [
          Alcotest.test_case "raising sink detached" `Quick
            test_fanout_detaches_raising_sink;
          Alcotest.test_case "single-sink fast path hardened" `Quick
            test_fanout_single_raising_sink;
        ] );
      ( "spans",
        [
          Alcotest.test_case "pstack propagation + balance" `Quick test_pstack_spans;
          Alcotest.test_case "pstack span ids deterministic" `Quick
            test_pstack_span_determinism;
          Alcotest.test_case "span ids independent of tracing" `Quick
            test_span_ids_independent_of_tracing;
          Alcotest.test_case "native propagation + balance" `Quick test_native_spans;
          Alcotest.test_case "native span closed across a graft" `Quick
            test_native_span_across_graft;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "pstack deterministic" `Quick test_sampling_deterministic;
          Alcotest.test_case "native deterministic" `Quick
            test_sampling_native_deterministic;
          Alcotest.test_case "full trace unperturbed" `Quick
            test_sampler_does_not_perturb_full_trace;
          Alcotest.test_case "record with ring attached" `Quick
            test_record_with_ring_attached;
        ] );
    ]
