(* Tests for the observability library (lib/obs) and its wiring into
   both schedulers: JSON helpers, metrics sketches, trace determinism
   (same seed => byte-identical traces), Chrome trace well-formedness,
   and the no-handle path being observationally identical. *)

module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Json = Pcont_obs.Obs.Json
module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack
module Concur = Pcont_pstack.Concur
module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module C = Pcont_util.Counters
module Sketch = Pcont_obs.Obs.Metrics.Sketch
module Trace = Pcont_obs.Trace

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- JSON ---------------- *)

let test_json_escape () =
  Alcotest.(check string) "plain" "abc" (Json.escape "abc");
  Alcotest.(check string) "quote" "a\\\"b" (Json.escape "a\"b");
  Alcotest.(check string) "backslash" "a\\\\b" (Json.escape "a\\b");
  Alcotest.(check string) "newline+tab" "a\\nb\\tc" (Json.escape "a\nb\tc");
  Alcotest.(check string) "control" "\\u0001" (Json.escape "\x01");
  (* Bytes >= 0x80 must pass through untouched — OCaml's %S turns them
     into decimal escapes like \195, which is not JSON. *)
  Alcotest.(check string) "high bytes pass through" "caf\xc3\xa9"
    (Json.escape "caf\xc3\xa9")

let test_json_quote_parses () =
  (* Every quoted string must round-trip through the parser — the
     property the old %S-based bench writer violated. *)
  List.iter
    (fun s ->
      match Json.parse (Json.quote s) with
      | Ok (Json.Str _) -> ()
      | Ok _ -> Alcotest.failf "parsed %S to a non-string" s
      | Error m -> Alcotest.failf "quote %S does not parse: %s" s m)
    [ "plain"; "with \"quotes\""; "back\\slash"; "new\nline"; "caf\xc3\xa9"; "\x01\x02" ]

let test_json_parse () =
  (match Json.parse {| {"a": [1, 2.5, true, null], "b": {"c": "x"}} |} with
  | Ok v -> (
      (match Json.member "a" v with
      | Some (Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Bool true; Json.Null ]) -> ()
      | _ -> Alcotest.fail "member a");
      match Json.member "b" v with
      | Some b -> (
          match Json.member "c" b with
          | Some (Json.Str "x") -> ()
          | _ -> Alcotest.fail "member b.c")
      | None -> Alcotest.fail "member b")
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "\"\\q\""; "[1] trailing"; "\"\x01\""; "nul" ]

let test_json_parse_edges () =
  (* Deep nesting: the parser must take 512 levels of arrays without
     blowing the stack or mis-counting brackets. *)
  let deep n =
    String.concat "" (List.init n (fun _ -> "["))
    ^ "0"
    ^ String.concat "" (List.init n (fun _ -> "]"))
  in
  (match Json.parse (deep 512) with
  | Ok v ->
      let rec depth = function Json.Arr [ x ] -> 1 + depth x | _ -> 0 in
      Alcotest.(check int) "depth preserved" 512 (depth v)
  | Error m -> Alcotest.failf "deep nesting rejected: %s" m);
  (* Escape sequences, including \uXXXX for ASCII code points. *)
  (match Json.parse {|"A\t\"\\\/b"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "escapes decode" "A\t\"\\/b" s
  | Ok _ -> Alcotest.fail "escaped string parsed to non-string"
  | Error m -> Alcotest.failf "escapes rejected: %s" m);
  (match Json.parse "\"\\u0041\\u00e9\"" with
  | Ok (Json.Str s) ->
      (* ASCII \u escapes decode; non-ASCII ones are kept textually. *)
      Alcotest.(check string) "unicode escapes" "A\\u00e9" s
  | Ok _ -> Alcotest.fail "\\u string parsed to non-string"
  | Error m -> Alcotest.failf "\\u escapes rejected: %s" m);
  (* Truncated input of every flavour is an error, not a crash. *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted truncated JSON %S" bad
      | Error _ -> ())
    [ "{\"a\":"; "[1, 2"; "\"unterminated"; "\"esc\\"; "\"u\\u00"; "tru"; "-"; "" ];
  (* Duplicate keys: member returns the first binding. *)
  match Json.parse {|{"k": 1, "k": 2}|} with
  | Ok v -> (
      match Json.member "k" v with
      | Some (Json.Num n) -> Alcotest.(check (float 0.)) "first binding wins" 1. n
      | _ -> Alcotest.fail "member k")
  | Error m -> Alcotest.failf "duplicate keys rejected: %s" m

let test_json_to_string () =
  let v =
    Json.Obj
      [
        ("i", Json.Num 42.);
        ("f", Json.Num 2.5);
        ("neg", Json.Num (-17.));
        ("s", Json.Str "a\"b\nc");
        ("arr", Json.Arr [ Json.Bool true; Json.Null ]);
        ("empty", Json.Obj []);
      ]
  in
  let s = Json.to_string v in
  (* Compact, and integral numbers print with no fractional part. *)
  Alcotest.(check string) "serialization"
    {|{"i":42,"f":2.5,"neg":-17,"s":"a\"b\nc","arr":[true,null],"empty":{}}|} s;
  (* Round-trip: parse (to_string v) = v, including field order. *)
  (match Json.parse s with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error m -> Alcotest.failf "to_string output does not parse: %s" m);
  (* Large-but-integral stays exact; non-integral keeps precision. *)
  Alcotest.(check string) "big int" "123456789012" (Json.to_string (Json.Num 123456789012.));
  match Json.parse (Json.to_string (Json.Num 0.1)) with
  | Ok (Json.Num f) -> Alcotest.(check (float 1e-15)) "precision kept" 0.1 f
  | _ -> Alcotest.fail "0.1 round-trip"

(* ---------------- metrics ---------------- *)

let test_metrics_histogram () =
  let m = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe m "h") [ 0; 1; 2; 3; 9; 3_000_000 ];
  match Obs.Metrics.find m "h" with
  | None -> Alcotest.fail "sketch not created"
  | Some sk ->
      Alcotest.(check int) "count" 6 (Sketch.count sk);
      Alcotest.(check int) "sum" 3_000_015 (Sketch.sum sk);
      Alcotest.(check int) "max" 3_000_000 (Sketch.max sk);
      (* rank floor(q * 5) of the six observations, within alpha = 1% *)
      List.iter
        (fun (q, v) ->
          let est = Sketch.quantile sk q in
          if Float.abs (est -. v) > 0.01 *. v then
            Alcotest.failf "q%.1f: %g is not within 1%% of %g" q est v)
        [ (0., 0.); (0.2, 1.); (0.4, 2.); (0.6, 3.); (0.8, 9.); (1., 3_000_000.) ]

(* ---------------- trace capture helpers ---------------- *)

let jsonl_handle () =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  (o, buf)

let chrome_handle () =
  let buf = Buffer.create 1024 in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.chrome (Buffer.add_string buf));
  (o, buf)

(* One pstack-scheduler run of [src] with a fresh interpreter, returning
   the trace bytes.  Exercises fork, capture, graft, future and park. *)
let pstack_trace ~seed src =
  let o, buf = jsonl_handle () in
  let t = Interp.create () in
  let mode = Interp.Concurrent (Concur.Randomized (Int64.of_int seed)) in
  ignore (Interp.eval_value ~mode ~obs:o t src);
  Obs.close o;
  Buffer.contents buf

let pstack_src =
  "(let ([f (future (* 6 7))])\n\
  \  (pcall +\n\
  \    (spawn (lambda (c) (pcall + 1 (c (lambda (k) (* (k 2) (k 5)))))))\n\
  \    (touch f)))"

(* A native-scheduler workload covering pcall, spawn/control/resume,
   futures and channels (sends park on the small buffer). *)
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
  captured + List.fold_left ( + ) 0 xs

let native_trace ~seed () =
  let o, buf = jsonl_handle () in
  let r = Sched.run ~policy:(Sched.Randomized (Int64.of_int seed)) ~obs:o native_main in
  Obs.close o;
  (r, Buffer.contents buf)

(* ---------------- determinism ---------------- *)

let check_trace_lines trace =
  Alcotest.(check bool) "trace is non-trivial" true (String.length trace > 200);
  String.split_on_char '\n' trace
  |> List.filter (fun l -> l <> "")
  |> List.iteri (fun i line ->
         match Json.parse line with
         | Error m -> Alcotest.failf "line %d is not JSON (%s): %s" i m line
         | Ok v -> (
             match Json.member "seq" v with
             | Some (Json.Num s) ->
                 Alcotest.(check int) "dense sequence numbers" i (int_of_float s)
             | _ -> Alcotest.failf "line %d has no seq" i))

let test_pstack_determinism () =
  let a = pstack_trace ~seed:42 pstack_src in
  let b = pstack_trace ~seed:42 pstack_src in
  check_trace_lines a;
  Alcotest.(check bool) "saw a capture" true
    (contains ~needle:"\"ev\":\"capture\"" a);
  Alcotest.(check string) "same seed, byte-identical trace" a b;
  let c = pstack_trace ~seed:43 pstack_src in
  Alcotest.(check bool) "different seed, different schedule allowed" true
    (String.length c > 0)

let test_native_determinism () =
  let r1, a = native_trace ~seed:7 () in
  let r2, b = native_trace ~seed:7 () in
  Alcotest.(check int) "same result" r1 r2;
  check_trace_lines a;
  Alcotest.(check string) "same seed, byte-identical trace" a b;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (contains ~needle a))
    [
      "\"ev\":\"spawn\"";
      "\"ev\":\"capture\"";
      "\"ev\":\"reinstate\"";
      "\"ev\":\"park\"";
      "\"ev\":\"wake\"";
      "\"ev\":\"send\"";
      "\"ev\":\"recv\"";
      "\"ev\":\"exit\"";
    ]

(* ---------------- chrome export ---------------- *)

let test_chrome_well_formed () =
  let o, buf = chrome_handle () in
  let r = Sched.run ~obs:o native_main in
  Obs.close o;
  Alcotest.(check bool) "ran" true (r > 0);
  match Json.parse (Buffer.contents buf) with
  | Error m -> Alcotest.failf "chrome output is not JSON: %s" m
  | Ok (Json.Arr records) ->
      Alcotest.(check bool) "has records" true (List.length records > 10);
      (* Per track (tid), B/E pairs must balance and never go negative. *)
      let depth = Hashtbl.create 8 in
      let begins = ref 0 in
      List.iter
        (fun r ->
          let str k = match Json.member k r with Some (Json.Str s) -> Some s | _ -> None in
          let num k = match Json.member k r with Some (Json.Num n) -> Some n | _ -> None in
          match (str "ph", num "tid") with
          | Some "B", Some tid ->
              incr begins;
              let d = try Hashtbl.find depth tid with Not_found -> 0 in
              Hashtbl.replace depth tid (d + 1)
          | Some "E", Some tid ->
              let d = try Hashtbl.find depth tid with Not_found -> 0 in
              if d <= 0 then Alcotest.fail "E without matching B on track";
              Hashtbl.replace depth tid (d - 1)
          | Some ("i" | "M"), _ -> ()
          | Some ph, _ -> Alcotest.failf "unexpected phase %S" ph
          | None, _ -> Alcotest.fail "record without ph")
        records;
      Alcotest.(check bool) "saw run slices" true (!begins > 0);
      Hashtbl.iter
        (fun tid d ->
          if d <> 0 then Alcotest.failf "track %.0f ends with depth %d" tid d)
        depth
  | Ok _ -> Alcotest.fail "chrome output is not an array"

let test_chrome_empty () =
  let o, buf = chrome_handle () in
  Obs.close o;
  match Json.parse (Buffer.contents buf) with
  | Ok (Json.Arr []) -> ()
  | Ok _ -> Alcotest.fail "expected []"
  | Error m -> Alcotest.failf "empty chrome trace invalid: %s" m

(* ---------------- no handle = no observable change ---------------- *)

let counters_list t = C.to_list (Interp.config t).Pstack.Machine.counters

let test_pstack_no_handle_equivalence () =
  let run obs =
    let t = Interp.create () in
    let mode = Interp.Concurrent (Concur.Randomized 99L) in
    let v = Interp.eval_value ~mode ?obs t pstack_src in
    (v, counters_list t)
  in
  let v_plain, c_plain = run None in
  let o, _buf = jsonl_handle () in
  let v_traced, c_traced = run (Some o) in
  Obs.close o;
  Alcotest.(check string) "same value"
    (Pstack.Value.to_string v_plain)
    (Pstack.Value.to_string v_traced);
  Alcotest.(check (list (pair string int))) "same machine counters" c_plain c_traced

let test_native_no_handle_equivalence () =
  let plain = Sched.run ~policy:(Sched.Randomized 5L) native_main in
  let o, _buf = jsonl_handle () in
  let traced = Sched.run ~policy:(Sched.Randomized 5L) ~obs:o native_main in
  Obs.close o;
  Alcotest.(check int) "same result" plain traced

(* ---------------- handle plumbing + summary ---------------- *)

let test_handle_seq_and_clock () =
  let o = Obs.create () in
  Alcotest.(check bool) "no sink" false (Obs.has_sink o);
  Obs.emit o (E.Exit { pid = 0 });
  Obs.emit o (E.Exit { pid = 1 });
  Alcotest.(check int) "seq counts emissions" 2 (Obs.seq o);
  Obs.advance o 5;
  Obs.advance o (-3);
  Alcotest.(check int) "clock advances, never backwards" 5 (Obs.now o)

let test_summary_totals () =
  let events = ref [] in
  let o = Obs.create () in
  Obs.attach o
    (Obs.Sink.memory (fun (seq, ts, ev) -> events := { Trace.seq; ts; ev } :: !events));
  ignore (Sched.run ~obs:o native_main);
  Obs.close o;
  let run = (Trace.reconstruct (Array.of_list (List.rev !events))).(0) in
  let nodes = Array.to_list run.Trace.r_nodes in
  Alcotest.(check bool) "several processes" true (List.length nodes > 3);
  let total f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  Alcotest.(check bool) "fuel accumulated" true (total (fun n -> n.Trace.n_fuel) > 0);
  Alcotest.(check int) "channel conservation"
    (total (fun n -> n.Trace.n_sends))
    (total (fun n -> n.Trace.n_recvs))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escape" `Quick test_json_escape;
          Alcotest.test_case "quote parses" `Quick test_json_quote_parses;
          Alcotest.test_case "parser" `Quick test_json_parse;
          Alcotest.test_case "parser edge cases" `Quick test_json_parse_edges;
          Alcotest.test_case "to_string" `Quick test_json_to_string;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pstack trace byte-stable" `Quick test_pstack_determinism;
          Alcotest.test_case "native trace byte-stable" `Quick test_native_determinism;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "well-formed B/E" `Quick test_chrome_well_formed;
          Alcotest.test_case "empty trace" `Quick test_chrome_empty;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "pstack: no handle equivalent" `Quick
            test_pstack_no_handle_equivalence;
          Alcotest.test_case "native: no handle equivalent" `Quick
            test_native_no_handle_equivalence;
        ] );
      ( "handle",
        [
          Alcotest.test_case "seq + clock" `Quick test_handle_seq_and_clock;
          Alcotest.test_case "summary totals" `Quick test_summary_totals;
        ] );
    ]
