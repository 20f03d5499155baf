(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md.

     dune exec bench/main.exe            -- run everything (moderate sizes)
     dune exec bench/main.exe -- e1 e4   -- run selected experiments
     dune exec bench/main.exe -- quick   -- smaller sizes (CI)
     dune exec bench/main.exe -- micro   -- bechamel micro-benchmarks only
     dune exec bench/main.exe -- quick --json out.json
                                         -- also dump rows as JSON to a file
     dune exec bench/main.exe -- quick --json out.json --baseline BENCH_baseline.json
                                         -- and gate on per-experiment median
                                            ratio vs a previous dump
                                            (--regress-pct N, default 25)

   The paper (Hieb & Dybvig, PPoPP 1990) reports no measured tables; its
   quantitative claims are complexity claims (Section 7) and work-saving
   claims (Sections 3/5).  Each experiment below prints a table whose
   SHAPE checks one claim; EXPERIMENTS.md records the expected shapes and
   measured results. *)

module C = Pcont_util.Counters
module Obs = Pcont_obs.Obs
module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack
module Sched = Pcont_sched.Sched
module Ops = Pcont_sched.Ops
module M = Pcont_machine
module Load = Pcont_load.Load

let quick = ref false

(* ------------------------------------------------------------------ *)
(* JSON row dump (--json FILE)                                         *)
(* ------------------------------------------------------------------ *)

let json_file : string option ref = ref None

let json_rows : Buffer.t = Buffer.create 256

(* Rows are built as [Obs.Json.t] values and serialized with
   [Obs.Json.to_string], the same serializer the trace sinks use, so the
   file always round-trips through [Obs.Json.parse]. *)
let pint k v = (k, Obs.Json.Num (float_of_int v))

let pstr k v = (k, Obs.Json.Str v)

let baseline_file : string option ref = ref None

let regress_pct = ref 25.0

let jrow ?(metrics = []) ?words ~name ~params ns =
  match (!json_file, !baseline_file) with
  | None, None -> ()
  | _ ->
      if Buffer.length json_rows > 0 then Buffer.add_string json_rows ",\n";
      let obj =
        Obs.Json.Obj
          (("name", Obs.Json.Str name)
           :: ("params", Obs.Json.Obj params)
           :: ("ns_per_op", Obs.Json.Num ns)
           ::
           ((* minor-heap words allocated per operation ([Gc.minor_words]
               delta over one run / ops), when the experiment measures it *)
            match words with
            | None -> []
            | Some w -> [ ("words_per_op", Obs.Json.Num w) ])
           @
           (match metrics with
           | [] -> []
           | ms ->
               [
                 ( "metrics",
                   Obs.Json.Obj
                     (List.map (fun (k, v) -> (k, Obs.Json.Num (float_of_int v))) ms)
                 );
               ]))
      in
      Buffer.add_string json_rows ("  " ^ Obs.Json.to_string obj)

let write_json () =
  match !json_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      Buffer.output_buffer oc json_rows;
      output_string oc "\n]\n";
      close_out oc;
      Printf.printf "\nwrote JSON rows to %s\n" path

(* --baseline FILE: pair this run's rows against a previous --json dump
   by (name, params) and gate on the per-experiment median ratio.  The
   median is the right pairing statistic here: individual rows are
   best-of-3 wall times and still jitter by tens of percent on shared
   CI machines, but half of an experiment's rows drifting past the
   threshold together is a real regression.  Rows present on only one
   side are counted but never gate. *)
let compare_baseline () =
  match !baseline_file with
  | None -> 0
  | Some path ->
      let read_rows path =
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        match Obs.Json.parse s with
        | Ok (Obs.Json.Arr rows) -> rows
        | Ok _ -> failwith (path ^ ": expected a JSON array of rows")
        | Error m -> failwith (path ^ ": " ^ m)
      in
      let key row =
        match
          (Obs.Json.member "name" row, Obs.Json.member "params" row)
        with
        | Some (Obs.Json.Str n), Some p -> Some (n ^ " " ^ Obs.Json.to_string p)
        | _ -> None
      in
      let ns row =
        match Obs.Json.member "ns_per_op" row with
        | Some (Obs.Json.Num v) when v > 0. -> Some v
        | _ -> None
      in
      let base = Hashtbl.create 256 in
      List.iter
        (fun row ->
          match (key row, ns row) with
          | Some k, Some v -> Hashtbl.replace base k v
          | _ -> ())
        (read_rows path);
      let current =
        match Obs.Json.parse ("[" ^ Buffer.contents json_rows ^ "]") with
        | Ok (Obs.Json.Arr rows) -> rows
        | _ -> failwith "internal: bench rows failed to round-trip"
      in
      (* experiment prefix ("e3", "micro") -> paired cur/base ratios *)
      let groups : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
      let paired = ref 0 and unpaired = ref 0 in
      List.iter
        (fun row ->
          match (key row, ns row) with
          | Some k, Some v -> (
              match Hashtbl.find_opt base k with
              | None -> incr unpaired
              | Some b ->
                  incr paired;
                  let exp =
                    let name = List.hd (String.split_on_char ' ' k) in
                    match String.index_opt name '.' with
                    | Some i -> String.sub name 0 i
                    | None -> name
                  in
                  let cell =
                    match Hashtbl.find_opt groups exp with
                    | Some c -> c
                    | None ->
                        let c = ref [] in
                        Hashtbl.add groups exp c;
                        c
                  in
                  cell := (v /. b) :: !cell)
          | _ -> ())
        current;
      let median l =
        let a = Array.of_list l in
        Array.sort compare a;
        a.(Array.length a / 2)
      in
      let rows =
        Hashtbl.fold (fun exp rs acc -> (exp, median !rs, List.length !rs) :: acc)
          groups []
        |> List.sort compare
      in
      Printf.printf "\nbaseline compare vs %s (%d paired rows, %d new)\n" path
        !paired !unpaired;
      Printf.printf "%-8s %8s %6s\n" "exp" "median" "rows";
      let limit = 1. +. (!regress_pct /. 100.) in
      let failures =
        List.filter_map
          (fun (exp, m, n) ->
            Printf.printf "%-8s %7.2fx %6d%s\n" exp m n
              (if m > limit then "  <-- regression" else "");
            if m > limit then Some exp else None)
          rows
      in
      if !paired = 0 then (
        print_endline "no paired rows: nothing to gate on";
        0)
      else if failures = [] then 0
      else (
        Printf.printf "regression gate: median ratio over %.2fx for %s\n" limit
          (String.concat ", " failures);
        3)

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (r, t1 -. t0)

(* Best-of-n wall time: robust against scheduler noise for coarse runs. *)
let time_best ?(n = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let r, t = time_once f in
    result := Some r;
    if t < !best then best := t
  done;
  (Option.get !result, !best)

(* [time_best] that also reports the minor-heap words allocated by the
   first run (allocation is deterministic, so one sample suffices). *)
let time_best_alloc ?(n = 3) f =
  let w0 = Gc.minor_words () in
  let r0, t0 = time_once f in
  let words = Gc.minor_words () -. w0 in
  let best = ref t0 in
  let result = ref r0 in
  for _ = 2 to n do
    let r, t = time_once f in
    result := r;
    if t < !best then best := t
  done;
  (!result, !best, words)

let ns_per t ops = t *. 1e9 /. float_of_int ops

let header title = Printf.printf "\n==== %s ====\n" title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Scheme helpers                                                      *)
(* ------------------------------------------------------------------ *)

let repeat_defs =
  {|
(define (repeat n thunk)
  (if (zero? n) 0 (begin (thunk) (repeat (- n 1) thunk))))
(define (deep n thunk)
  (if (zero? n) (thunk) (+ 1 (deep (- n 1) thunk))))
|}

let eval_scheme ?mode ?fastpath ?n ~strategy src =
  let t = Interp.create ~strategy ?fastpath () in
  ignore (Interp.eval_string t repeat_defs);
  let (), dt, words =
    time_best_alloc ?n (fun () ->
        ignore (Interp.eval_value ?mode ~fuel:2_000_000_000 t src))
  in
  (Interp.config t, dt, words)

(* ------------------------------------------------------------------ *)
(* E1: controller capture cost vs continuation size                    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1  capture+reinstate cost vs frame depth (1 root, K captures)";
  Printf.printf "%8s %6s | %14s %14s | %16s %16s\n" "frames" "K" "linked ns/op"
    "copying ns/op" "linked frm/op" "copying frm/op";
  let k = if !quick then 20 else 100 in
  let depths = if !quick then [ 10; 100; 1000 ] else [ 10; 100; 1000; 5000; 20000 ] in
  List.iter
    (fun n ->
      (* Subtract the capture-free baseline so the one-time cost of
         building and unwinding the [deep] frames does not pollute the
         per-capture figure. *)
      let src =
        Printf.sprintf
          "(spawn (lambda (c) (deep %d (lambda () (repeat %d (lambda () (c (lambda (k) (k 0)))))))))"
          n k
      in
      let baseline =
        Printf.sprintf
          "(spawn (lambda (c) (deep %d (lambda () (repeat %d (lambda () 0))))))" n k
      in
      let run strategy =
        let _, dt0, w0 = eval_scheme ~strategy baseline in
        let cfg, dt, w = eval_scheme ~strategy src in
        let frames =
          C.get cfg.Pstack.Machine.counters "capture.frames"
          + C.get cfg.Pstack.Machine.counters "reinstate.frames"
        in
        (ns_per (Float.max 0. (dt -. dt0)) k, frames,
         Float.max 0. (w -. w0) /. float_of_int k)
      in
      let lt, lframes, lw = run Pstack.Types.Linked in
      let ct, cframes, cw = run Pstack.Types.Copying in
      let lf = float_of_int lframes /. float_of_int k
      and cf = float_of_int cframes /. float_of_int k in
      jrow ~name:"e1.capture.linked"
        ~params:[ pint "frames" n; pint "k" k ]
        ~metrics:[ ("frames.moved", lframes) ] ~words:lw lt;
      jrow ~name:"e1.capture.copying"
        ~params:[ pint "frames" n; pint "k" k ]
        ~metrics:[ ("frames.moved", cframes) ] ~words:cw ct;
      row "%8d %6d | %14.0f %14.0f | %16.1f %16.1f\n" n k lt ct lf cf)
    depths;
  print_endline "shape: linked columns flat in frames; copying columns linear in frames.";
  print_endline "claim (paper S7): control operations are linear in control points, not size.";
  (* Ablation: captures crossing dynamic-wind frames pay per WINDER (their
     thunks must run), never per plain frame. *)
  Printf.printf "\n%8s %8s | %14s  (linked, %d captures across winders)\n" "frames"
    "winders" "ns/op" k;
  List.iter
    (fun (frames, winders) ->
      let program inner =
        Printf.sprintf
          "(define (wind-deep w thunk)
             (if (zero? w) (thunk)
                 (dynamic-wind (lambda () 0)
                               (lambda () (wind-deep (- w 1) thunk))
                               (lambda () 0))))
           (spawn (lambda (c)
             (deep %d (lambda ()
               (wind-deep %d (lambda ()
                 (repeat %d (lambda () %s))))))))"
          frames winders k inner
      in
      let _, dt0, _ = eval_scheme ~strategy:Pstack.Types.Linked (program "0") in
      let _, dt, _ =
        eval_scheme ~strategy:Pstack.Types.Linked (program "(c (lambda (k) (k 0)))")
      in
      let ns = ns_per (Float.max 0. (dt -. dt0)) k in
      jrow ~name:"e1.winders" ~params:[ pint "frames" frames; pint "winders" winders ] ns;
      row "%8d %8d | %14.0f\n" frames winders ns)
    (if !quick then [ (100, 0); (100, 8) ]
     else [ (1000, 0); (1000, 4); (1000, 16); (1000, 64); (20000, 16) ]);
  print_endline "shape: cost tracks winders crossed, independent of plain frames."

(* ------------------------------------------------------------------ *)
(* E2: capture cost vs number of control points                        *)
(* ------------------------------------------------------------------ *)

let nested_roots_src roots k =
  let buf = Buffer.create 256 in
  for i = 1 to roots do
    Buffer.add_string buf (Printf.sprintf "(spawn (lambda (c%d) " i)
  done;
  Buffer.add_string buf
    (Printf.sprintf "(repeat %d (lambda () (c1 (lambda (k) (k 0)))))" k);
  for _ = 1 to roots do
    Buffer.add_string buf "))"
  done;
  Buffer.contents buf

let e2 () =
  header "E2  capture+reinstate cost vs control points (roots), frames fixed";
  Printf.printf "%8s %6s | %14s | %16s\n" "roots" "K" "linked ns/op" "segments/op";
  let k = if !quick then 20 else 100 in
  let roots = if !quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  List.iter
    (fun r ->
      let src = nested_roots_src r k in
      let cfg, dt, w = eval_scheme ~strategy:Pstack.Types.Linked src in
      let segs =
        C.get cfg.Pstack.Machine.counters "capture.segments"
        + C.get cfg.Pstack.Machine.counters "reinstate.segments"
      in
      jrow ~name:"e2.capture"
        ~params:[ pint "roots" r; pint "k" k ]
        ~metrics:
          [
            ("segments.moved", segs);
            ("controller.applications", C.get cfg.Pstack.Machine.counters "controller");
          ]
        ~words:(w /. float_of_int k)
        (ns_per dt k);
      row "%8d %6d | %14.0f | %16.1f\n" r k (ns_per dt k)
        (float_of_int segs /. float_of_int k))
    roots;
  print_endline "shape: both columns linear in roots (the control points).";
  print_endline "claim (paper S7): cost scales with labels and forks only."

(* ------------------------------------------------------------------ *)
(* E3: nonlocal exit cost (native): spawn_exit vs exception vs none    *)
(* ------------------------------------------------------------------ *)

exception Found_zero

let e3 () =
  header "E3  product with nonlocal exit (native)";
  let n = if !quick then 10_000 else 100_000 in
  let make_list ~zero_at =
    List.init n (fun i -> if Some i = zero_at then 0 else 1 + (i mod 7))
  in
  let product_exit ls =
    Pcont.Exit.spawn_exit (fun e ->
        let rec go acc = function
          | [] -> acc
          | 0 :: _ -> e.Pcont.Exit.exit 0
          | x :: rest -> go (acc * x mod 1000003) rest
        in
        go 1 ls)
  in
  let product_exn ls =
    try
      let rec go acc = function
        | [] -> acc
        | 0 :: _ -> raise Found_zero
        | x :: rest -> go (acc * x mod 1000003) rest
      in
      go 1 ls
    with Found_zero -> 0
  in
  let product_plain ls =
    let rec go acc = function
      | [] -> acc
      | x :: rest -> go (acc * max x 1 mod 1000003) rest
    in
    go 1 ls
  in
  Printf.printf "%12s | %12s %12s %12s   (microseconds per product, n=%d)\n" "zero at"
    "spawn_exit" "exception" "no-exit" n;
  let positions =
    [ ("none", None); ("10%", Some (n / 10)); ("50%", Some (n / 2)); ("90%", Some (n * 9 / 10)) ]
  in
  List.iter
    (fun (label, zero_at) ->
      let ls = make_list ~zero_at in
      let reps = 20 in
      let t_of f =
        let _, dt = time_best (fun () -> for _ = 1 to reps do ignore (f ls) done) in
        dt /. float_of_int reps *. 1e6
      in
      let te = t_of product_exit in
      let tx = t_of product_exn in
      let tp = t_of product_plain in
      jrow ~name:"e3.spawn_exit" ~params:[ pstr "zero_at" label ] (te *. 1e3);
      jrow ~name:"e3.exception" ~params:[ pstr "zero_at" label ] (tx *. 1e3);
      jrow ~name:"e3.plain" ~params:[ pstr "zero_at" label ] (tp *. 1e3);
      row "%12s | %12.1f %12.1f %12.1f\n" label te tx tp)
    positions;
  print_endline "shape: spawn_exit within a small constant factor of exceptions;";
  print_endline "       earlier zeroes cost less (the exit aborts pending work)."

(* ------------------------------------------------------------------ *)
(* E4: parallel-or abandons losing branches                            *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4  parallel-or: work and time vs position of the witness";
  Printf.printf "%10s | %12s %12s | %12s %12s\n" "witness" "seq work" "par work"
    "seq us" "par us";
  let widths = if !quick then [ 10; 100 ] else [ 10; 100; 1000; 10000 ] in
  List.iter
    (fun w ->
      (* Branch A finds the witness after w yields; branch B would need
         10*w before returning false. *)
      let work = ref 0 in
      let branch_a () =
        for _ = 1 to w do
          incr work;
          Sched.yield ()
        done;
        true
      in
      let branch_b () =
        for _ = 1 to 10 * w do
          incr work;
          Sched.yield ()
        done;
        false
      in
      let seq () =
        work := 0;
        ignore (Sched.run (fun () -> branch_b () || branch_a ()));
        !work
      in
      let par () =
        work := 0;
        ignore (Sched.run (fun () -> Ops.parallel_or [ branch_b; branch_a ]));
        !work
      in
      let seq_work, seq_t = time_best seq in
      let par_work, par_t = time_best par in
      jrow ~name:"e4.seq" ~params:[ pint "witness" w ] (seq_t *. 1e9);
      jrow ~name:"e4.par" ~params:[ pint "witness" w ] (par_t *. 1e9);
      row "%10d | %12d %12d | %12.0f %12.0f\n" w seq_work par_work (seq_t *. 1e6)
        (par_t *. 1e6))
    widths;
  print_endline "shape: parallel work ~ 2x witness position; sequential ~ 11x.";
  print_endline "claim (paper S5): the losing branch is abandoned on first true."

(* ------------------------------------------------------------------ *)
(* E5: parallel-search suspend/resume throughput                       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5  parallel-search: suspension cost vs plain traversal";
  Printf.printf "%7s %8s | %12s %12s | %14s\n" "depth" "matches" "walk us" "search us"
    "us/suspension";
  let depths = if !quick then [ 6; 8 ] else [ 6; 8; 10; 12 ] in
  List.iter
    (fun d ->
      let tree = Ops.perfect ~depth:d (fun i -> i) in
      let pred x = x mod 5 = 0 in
      let rec walk acc = function
        | Ops.Leaf -> acc
        | Ops.Node (l, x, r) ->
            let acc = walk acc l in
            let acc = if pred x then x :: acc else acc in
            walk acc r
      in
      let baseline () = List.length (walk [] tree) in
      let search () = List.length (Sched.run (fun () -> Ops.search_all tree pred)) in
      let matches, wt = time_best baseline in
      let matches', st = time_best search in
      assert (matches = matches');
      jrow ~name:"e5.walk" ~params:[ pint "depth" d ] (wt *. 1e9);
      jrow ~name:"e5.search" ~params:[ pint "depth" d ] (st *. 1e9);
      row "%7d %8d | %12.1f %12.1f | %14.1f\n" d matches (wt *. 1e6) (st *. 1e6)
        ((st -. wt) *. 1e6 /. float_of_int (max matches 1)))
    depths;
  print_endline "shape: cost per suspension grows with live tree size (whole-tree";
  print_endline "       prune+graft), but stays far below re-searching from scratch.";
  print_endline "claim (paper S5): each match suspends and resumes the whole search."

(* ------------------------------------------------------------------ *)
(* E6: derived control abstractions: switch overhead                   *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6  coroutine / engine / generator switch overhead (native)";
  let n = if !quick then 20_000 else 200_000 in
  let co_time =
    let co =
      Pcont.Coroutine.create (fun ~yield first ->
          let v = ref first in
          let rec loop () =
            v := yield !v;
            loop ()
          in
          loop ())
    in
    let _, dt =
      time_best ~n:1 (fun () ->
          for i = 1 to n do
            ignore (Pcont.Coroutine.resume co i)
          done)
    in
    ns_per dt n
  in
  let eng_time =
    let slices = n / 10 in
    let e =
      Pcont.Engine.make (fun ~tick ->
          let rec spin i =
            tick ();
            if i = 0 then 0 else spin (i - 1)
          in
          spin max_int)
    in
    let cur = ref e in
    let _, dt =
      time_best ~n:1 (fun () ->
          for _ = 1 to slices do
            match Pcont.Engine.run !cur ~fuel:1 with
            | Pcont.Engine.Expired e' -> cur := e'
            | Pcont.Engine.Done _ -> assert false
          done)
    in
    ns_per dt slices
  in
  let gen_time =
    let g = Pcont.Generator.ints () in
    let _, dt =
      time_best ~n:1 (fun () ->
          for _ = 1 to n do
            ignore (Pcont.Generator.next g)
          done)
    in
    ns_per dt n
  in
  let spawn_time =
    let _, dt =
      time_best (fun () ->
          for i = 1 to n do
            ignore (Pcont.Spawn.spawn (fun _c -> i))
          done)
    in
    ns_per dt n
  in
  let control_time =
    let _, dt =
      time_best (fun () ->
          for i = 1 to n do
            ignore
              (Pcont.Spawn.spawn (fun c ->
                   Pcont.Spawn.control c (fun k -> Pcont.Spawn.resume k i)))
          done)
    in
    ns_per dt n
  in
  jrow ~name:"e6.spawn" ~params:[] spawn_time;
  jrow ~name:"e6.control_resume" ~params:[] control_time;
  jrow ~name:"e6.coroutine" ~params:[] co_time;
  jrow ~name:"e6.generator" ~params:[] gen_time;
  jrow ~name:"e6.engine" ~params:[] eng_time;
  row "  spawn (empty process)      : %8.0f ns\n" spawn_time;
  row "  control + resume           : %8.0f ns\n" control_time;
  row "  coroutine resume/yield pair: %8.0f ns\n" co_time;
  row "  generator next             : %8.0f ns\n" gen_time;
  row "  engine slice (run+expire)  : %8.0f ns\n" eng_time;
  print_endline "shape: all switches are sub-microsecond constants.";
  print_endline "claim (paper S8): spawn suffices to build process abstractions."

(* ------------------------------------------------------------------ *)
(* E7: Scheme-level: call/cc vs spawn/exit vs plain recursion          *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7  interpreted product: plain vs call/cc exit vs spawn/exit";
  Printf.printf "%8s %10s | %10s %12s %12s  (milliseconds)\n" "n" "zero?" "plain"
    "call/cc" "spawn/exit";
  let defs =
    {|
(define (make-list-n n zero-at)
  (let loop ([i 0])
    (cond [(= i n) '()]
          [(= i zero-at) (cons 0 (loop (+ i 1)))]
          [else (cons (+ 1 (modulo i 7)) (loop (+ i 1)))])))
(define (product-plain ls)
  (if (null? ls) 1 (* (car ls) (product-plain (cdr ls)))))
(define (product0 ls exit)
  (cond [(null? ls) 1]
        [(= (car ls) 0) (exit 0)]
        [else (* (car ls) (product0 (cdr ls) exit))]))
(define (product-cc ls)
  (call/cc (lambda (exit) (product0 ls exit))))
(define (product-se ls)
  (spawn/exit (lambda (exit) (product0 ls exit))))
|}
  in
  let sizes = if !quick then [ 200; 1000 ] else [ 200; 1000; 5000 ] in
  List.iter
    (fun n ->
      List.iter
        (fun (zlabel, zero_at) ->
          let t = Interp.create () in
          ignore (Interp.eval_string t defs);
          ignore
            (Interp.eval_string t
               (Printf.sprintf "(define ls (make-list-n %d %d))" n zero_at));
          let run src =
            let _, dt =
              time_best (fun () -> ignore (Interp.eval_value ~fuel:2_000_000_000 t src))
            in
            dt *. 1e3
          in
          let tplain = run "(product-plain ls)" in
          let tcc = run "(product-cc ls)" in
          let tse = run "(product-se ls)" in
          jrow ~name:"e7.plain" ~params:[ pint "n" n; pstr "zero" zlabel ] (tplain *. 1e6);
          jrow ~name:"e7.callcc" ~params:[ pint "n" n; pstr "zero" zlabel ] (tcc *. 1e6);
          jrow ~name:"e7.spawn_exit" ~params:[ pint "n" n; pstr "zero" zlabel ]
            (tse *. 1e6);
          row "%8d %10s | %10.2f %12.2f %12.2f\n" n zlabel tplain tcc tse)
        [ ("none", -1); ("middle", n / 2) ])
    sizes;
  print_endline "shape: spawn/exit comparable to call/cc; a middle zero halves";
  print_endline "       the work for both exit variants.";
  print_endline "claim (paper S3/S5): spawn provides the exits call/cc provides, delimited."

(* ------------------------------------------------------------------ *)
(* E8: semantics machine throughput                                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8  Section 6 machine: rewrite throughput, naive vs zipper stepper";
  Printf.printf "%-28s %10s %12s %12s %9s\n" "program" "steps" "naive ms" "zipper ms"
    "speedup";
  let bench name term =
    match M.Eval.steps_to_value ~fuel:5_000_000 term with
    | None -> row "%-28s %10s\n" name "stuck/fuel"
    | Some steps ->
        (* Repeat small programs so the measured interval is meaningful. *)
        let reps = max 1 (20_000 / max steps 1) in
        let timed eval =
          let _, dt =
            time_best (fun () ->
                for _ = 1 to reps do
                  ignore (eval term)
                done)
          in
          dt /. float_of_int reps
        in
        let naive = timed (M.Eval.eval ~fuel:5_000_000) in
        let zipper = timed (M.Zipper.eval ~fuel:15_000_000) in
        jrow ~name:"e8.naive" ~params:[ pstr "program" name ] (naive *. 1e9);
        jrow ~name:"e8.zipper" ~params:[ pstr "program" name ] (zipper *. 1e9);
        row "%-28s %10d %12.3f %12.3f %8.1fx\n" name steps (naive *. 1e3)
          (zipper *. 1e3) (naive /. zipper)
  in
  let n = if !quick then 40 else 150 in
  bench "reinstated (S4 ex.3)" M.Examples.reinstated_applied;
  bench "pk-twice" M.Examples.pk_twice;
  bench
    (Printf.sprintf "product [1..%d]" n)
    (M.Examples.product_of (List.init n (fun i -> 1 + (i mod 5))));
  bench
    (Printf.sprintf "product w/ zero @%d" (n / 2))
    (M.Examples.product_of (List.init n (fun i -> if i = n / 2 then 0 else 1 + (i mod 5))));
  bench "nested spawns (depth 8)" (M.Examples.nested_spawn_depth 8);
  print_endline "shape: early-exit product takes roughly half the steps of the full one."

(* ------------------------------------------------------------------ *)
(* E9: tree-of-stacks scheduler overhead (grain size and quantum)      *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9  concurrent scheduler: fork overhead vs grain size";
  Printf.printf "%8s %8s | %10s %12s %12s | %10s\n" "leaves" "grain" "forks"
    "seq ms" "conc ms" "us/fork";
  (* Sum 2^depth numbers with a pcall tree; below [grain] leaves the branch
     sums sequentially.  Small grain = many forks = scheduler-bound. *)
  let defs =
    {|
(define (tsum lo hi grain)
  (if (<= (- hi lo) grain)
      (let loop ([i lo] [acc 0])
        (if (> i hi) acc (loop (+ i 1) (+ acc i))))
      (let ([mid (quotient (+ lo hi) 2)])
        (pcall + (tsum lo mid grain) (tsum (+ mid 1) hi grain)))))
|}
  in
  let n = if !quick then 1 lsl 8 else 1 lsl 11 in
  List.iter
    (fun grain ->
      let t = Interp.create () in
      ignore (Interp.eval_string t defs);
      let src = Printf.sprintf "(tsum 1 %d %d)" n grain in
      let expected = n * (n + 1) / 2 in
      let run mode =
        let (), dt =
          time_best (fun () ->
              match Interp.eval_value ~mode ~fuel:2_000_000_000 t src with
              | Pstack.Types.Int v when v = expected -> ()
              | v -> failwith ("bad sum " ^ Pstack.Value.to_string v))
        in
        dt
      in
      let seq_t = run Interp.Sequential in
      let cfg = Interp.config t in
      Pcont_util.Counters.reset cfg.Pstack.Machine.counters;
      let conc_t = run (Interp.Concurrent Pstack.Concur.Round_robin) in
      let forks = C.get cfg.Pstack.Machine.counters "concur.fork" in
      jrow ~name:"e9.seq" ~params:[ pint "n" n; pint "grain" grain ] (seq_t *. 1e9);
      jrow ~name:"e9.conc"
        ~params:[ pint "n" n; pint "grain" grain ]
        ~metrics:[ ("concur.fork", forks) ]
        (conc_t *. 1e9);
      row "%8d %8d | %10d %12.2f %12.2f | %10.2f\n" n grain forks (seq_t *. 1e3)
        (conc_t *. 1e3)
        ((conc_t -. seq_t) *. 1e6 /. float_of_int (max forks 1)))
    (if !quick then [ 8; 64 ] else [ 2; 8; 32; 128; 512 ]);
  print_endline "shape: per-fork overhead roughly constant; coarse grains amortize it.";

  Printf.printf "\n%8s | %12s  (quantum sweep, grain 8, same workload)\n" "quantum"
    "conc ms";
  List.iter
    (fun q ->
      let t = Interp.create () in
      ignore (Interp.eval_string t defs);
      let src = Printf.sprintf "(tsum 1 %d 8)" n in
      let (), dt =
        time_best (fun () ->
            ignore
              (Interp.eval_value
                 ~mode:(Interp.Concurrent Pstack.Concur.Round_robin)
                 ~quantum:q ~fuel:2_000_000_000 t src))
      in
      jrow ~name:"e9.quantum" ~params:[ pint "n" n; pint "quantum" q ] (dt *. 1e9);
      row "%8d | %12.2f\n" q (dt *. 1e3))
    (if !quick then [ 1; 16 ] else [ 1; 4; 16; 64; 256 ]);
  print_endline "shape: larger quanta cut round-robin overhead until fairness stops mattering."

(* ------------------------------------------------------------------ *)
(* E10: blocked waiters — parked vs spinning (native scheduler)        *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10  blocked fibers: N waiters on one future, spinning vs parked";
  (* One worker future yields [work] times before completing; N fibers
     wait for it.  A spinning waiter (poll + yield, the pre-parked-waiter
     implementation of touch) is re-stepped every round, so total cost
     grows with waiters x work.  A parked waiter (touch) leaves the run
     queue until the delivery wakes it: rounds iterate only the runnable
     worker, so cost is O(work + waiters). *)
  Printf.printf "%8s %8s | %12s %12s | %10s\n" "waiters" "work" "spin ms"
    "park ms" "spin/park";
  let work = if !quick then 200 else 1000 in
  let spin f =
    let rec go () =
      match Sched.poll f with
      | Some v -> v
      | None ->
          Sched.yield ();
          go ()
    in
    go ()
  in
  let run_with wait n =
    Sched.run (fun () ->
        let f =
          Sched.future (fun () ->
              for _ = 1 to work do
                Sched.yield ()
              done;
              42)
        in
        let vs = Sched.pcall (List.init n (fun _ () -> wait f)) in
        List.fold_left ( + ) 0 vs)
  in
  List.iter
    (fun n ->
      let check v = if v <> 42 * n then failwith "bad sum" in
      let (), spin_t = time_best (fun () -> check (run_with spin n)) in
      let (), park_t = time_best (fun () -> check (run_with Sched.touch n)) in
      jrow ~name:"e10.spin" ~params:[ pint "waiters" n; pint "work" work ]
        (spin_t *. 1e9);
      jrow ~name:"e10.park" ~params:[ pint "waiters" n; pint "work" work ]
        (park_t *. 1e9);
      row "%8d %8d | %12.3f %12.3f | %9.1fx\n" n work (spin_t *. 1e3)
        (park_t *. 1e3) (spin_t /. park_t))
    (if !quick then [ 1; 16; 64 ] else [ 1; 10; 100; 1000 ]);
  print_endline "shape: spin cost grows with waiters x work (every blocked fiber is";
  print_endline "       re-stepped every round); parked cost is O(work + waiters) —";
  print_endline "       per-round cost is independent of the number of blocked fibers."

(* ------------------------------------------------------------------ *)
(* E11: trace analysis throughput (ingest + check + report)            *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11  trace analysis: JSONL ingest, invariant check, causal report";
  (* Generate a large trace in memory: N fibers that yield in a loop
     produce two slice events per yield, so events scale directly. *)
  let fibers = 8 in
  let yields = if !quick then 250 else 6_000 in
  let buf = Buffer.create (1 lsl 20) in
  let o = Obs.create () in
  Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
  ignore
    (Sched.run ~obs:o (fun () ->
         Sched.pcall
           (List.init fibers (fun _ () ->
                for _ = 1 to yields do
                  Sched.yield ()
                done;
                0))));
  Obs.close o;
  let body = Buffer.contents buf in
  let events =
    match Pcont_obs.Trace.parse_string body with
    | Ok events -> events
    | Error m -> failwith ("e11 trace does not parse: " ^ m)
  in
  let n = Array.length events in
  let _, ingest_t = time_best (fun () -> Pcont_obs.Trace.parse_string body) in
  let violations, check_t =
    time_best (fun () -> Pcont_obs.Analysis.Check.run events)
  in
  if violations <> [] then failwith "e11 trace fails its own invariant check";
  let _, report_t = time_best (fun () -> Pcont_obs.Analysis.Report.of_trace events) in
  let stage label t =
    let evs = float_of_int n /. t in
    jrow
      ~name:("e11." ^ label)
      ~params:[ pint "events" n ]
      ~metrics:[ ("events", n) ]
      (ns_per t n);
    row "  %-22s %10.1f ms   %12.0f events/s\n" label (t *. 1e3) evs
  in
  Printf.printf "  %d events (%d fibers x %d yields)\n" n fibers yields;
  stage "ingest" ingest_t;
  stage "check" check_t;
  stage "report" report_t;
  print_endline "shape: all three stages stream in O(events); the analyzer keeps up";
  print_endline "       with traces far larger than any experiment in this suite."

(* ------------------------------------------------------------------ *)
(* E12: capture fast path — one-shot move + segment pool vs always-copy *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12  capture fast path: one-shot move + segment pool vs baseline";
  (* Two capture-heavy one-shot workloads, each run twice on the same
     sources: with the fast path (segment pool + one-shot move, the
     default) and with [~fastpath:false] (every capture pins and every
     spawn allocates — the pre-fast-path behavior).  Reported per
     capture: wall time, minor-heap words ([Gc.minor_words] delta), and
     the fast path's own counters (pool hits and moved captures).

     - gen:   generator pipelines — K/100 spawns of 100 yields each
              ((c (lambda (k) (k 0)))); the one-shot move skips pinning
              and copy-on-write on every yield, and each generator's
              spawn segment cycles through the pool.
     - prune: parallel-or-style pruning — K spawns that each build a few
              frames and then abort ((c (lambda (k) 0)) never applies k),
              discarding the pending work; the pool recycles the erased
              spawn segments. *)
  Printf.printf "%7s %9s | %10s %10s | %11s %11s | %9s %9s\n" "work" "captures"
    "fast ns" "base ns" "fast w/cap" "base w/cap" "pool.hit" "moved";
  let ks = if !quick then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let workloads =
    [
      ( "gen",
        fun k ->
          (* a pipeline of k/100 generators, 100 yields each: the yields
             exercise the one-shot move, the generator spawns cycle
             their segments through the pool *)
          Printf.sprintf
            "(repeat %d (lambda () (spawn (lambda (c) (repeat 100 (lambda () (c (lambda (k) (k 0)))))))))"
            (k / 100) );
      ( "prune",
        fun k ->
          Printf.sprintf
            "(repeat %d (lambda () (spawn (lambda (c) (deep 8 (lambda () (c (lambda (k) 0))))))))"
            k );
    ]
  in
  List.iter
    (fun (wname, src_of) ->
      List.iter
        (fun k ->
          let src = src_of k in
          let run fastpath =
            (* Normalize heap state between measurements: the fast/base
               comparison is ns-level, and major-heap growth from earlier
               rows otherwise bleeds into later ones. *)
            Gc.compact ();
            let cfg, dt, words =
              eval_scheme ~strategy:Pstack.Types.Linked ~fastpath ~n:9 src
            in
            let get name = C.get cfg.Pstack.Machine.counters name in
            ( ns_per dt k,
              words /. float_of_int k,
              [
                ("machine.pool.hit", get "machine.pool.hit");
                ("machine.pool.miss", get "machine.pool.miss");
                ("machine.capture.moved", get "machine.capture.moved");
              ] )
          in
          let fns, fw, fm = run true in
          let bns, bw, _ = run false in
          jrow
            ~name:(Printf.sprintf "e12.%s.fast" wname)
            ~params:[ pint "captures" k ]
            ~metrics:fm ~words:fw fns;
          jrow
            ~name:(Printf.sprintf "e12.%s.base" wname)
            ~params:[ pint "captures" k ]
            ~words:bw bns;
          row "%7s %9d | %10.0f %10.0f | %11.1f %11.1f | %9d %9d\n" wname k fns
            bns fw bw (List.assoc "machine.pool.hit" fm)
            (List.assoc "machine.capture.moved" fm))
        ks)
    workloads;
  print_endline "shape: fast rows allocate fewer words per capture than base rows;";
  print_endline "       capture.moved tracks the captures 1:1 and pool.hit tracks the";
  print_endline "       spawns (gen) or the aborted captures (prune).";
  print_endline "claim: one-shot captures skip pinning and copy-on-write entirely, and";
  print_endline "       the pool recycles spawn segments that die without escaping."

(* ------------------------------------------------------------------ *)
(* E13: DPOR schedule exploration vs naive seed sweep                  *)
(* ------------------------------------------------------------------ *)

module X = Pcont_explore.Explore

let e13 () =
  header "E13  schedule exploration: DPOR backtracking vs Randomized seed sweep";
  (* Two comparisons against the blind baseline (Randomized seeds 1..n):
     coverage — on the bug-free racing(n) workload, how many DISTINCT
     causal skeletons each strategy reaches per run (redundancy =
     runs/skeletons; a sweep keeps re-executing the same few orders) —
     and bug-finding — runs until the injected lost-wakeup/stolen-relay
     deadlocks show, where the sweep finds nothing at any seed count
     because round-based schedules cannot reach the buggy window. *)
  Printf.printf "%-13s | %5s %6s %7s %7s %9s | %6s %7s %7s\n" "workload" "runs"
    "skels" "redund" "races" "sched/s" "seeds" "skels" "redund";
  let ns = if !quick then [ 2 ] else [ 2; 3 ] in
  List.iter
    (fun n ->
      let target = X.Workloads.racing n in
      let budget = if !quick then 60 else 150 in
      let st, dt = time_best ~n:1 (fun () -> X.Dpor.explore ~max_runs:budget target) in
      let runs = st.X.Dpor.s_runs in
      let sw = X.Dpor.seed_sweep ~seeds:runs target in
      let redund r s = float_of_int r /. float_of_int (max 1 s) in
      let rate = float_of_int runs /. dt in
      jrow
        ~name:(Printf.sprintf "e13.racing%d.dpor" n)
        ~params:[ pint "branches" (2 * n) ]
        ~metrics:
          [
            ("runs", runs);
            ("skeletons", st.X.Dpor.s_skeletons);
            ("races", st.X.Dpor.s_races);
          ]
        (ns_per dt runs);
      jrow
        ~name:(Printf.sprintf "e13.racing%d.sweep" n)
        ~params:[ pint "branches" (2 * n) ]
        ~metrics:[ ("seeds", sw.X.Dpor.sw_seeds); ("skeletons", sw.X.Dpor.sw_skeletons) ]
        0.;
      row "%-13s | %5d %6d %7.1f %7d %9.0f | %6d %7d %7.1f\n"
        (Printf.sprintf "racing(%d)" n)
        runs st.X.Dpor.s_skeletons
        (redund runs st.X.Dpor.s_skeletons)
        st.X.Dpor.s_races rate sw.X.Dpor.sw_seeds sw.X.Dpor.sw_skeletons
        (redund sw.X.Dpor.sw_seeds sw.X.Dpor.sw_skeletons))
    ns;
  Printf.printf "%-13s | %21s | %s\n" "bug" "dpor runs-to-find" "sweep (100 seeds)";
  List.iter
    (fun (label, target) ->
      let st = X.Dpor.explore ~max_runs:200 target in
      let found =
        match st.X.Dpor.s_witness with
        | Some w -> w.X.Dpor.w_runs_to_find
        | None -> -1
      in
      let sw = X.Dpor.seed_sweep ~seeds:100 target in
      jrow
        ~name:(Printf.sprintf "e13.bug.%s" label)
        ~params:[]
        ~metrics:
          [
            ("runs_to_find", found);
            ("sweep_found", match sw.X.Dpor.sw_found with Some _ -> 1 | None -> 0);
          ]
        0.;
      row "%-13s | %21s | %s\n" label
        (if found < 0 then "not found" else string_of_int found)
        (match sw.X.Dpor.sw_found with
        | None -> "not found"
        | Some (s, k) -> Printf.sprintf "seed %d: %s" s k))
    [
      ("lost-wakeup", X.Workloads.lost_wakeup);
      ("stolen-relay", X.Workloads.stolen_relay);
    ];
  print_endline "shape: per run, DPOR reaches several times more distinct skeletons";
  print_endline "       (Mazurkiewicz classes) than the sweep, whose seeds re-execute";
  print_endline "       equivalent orders; both injected deadlocks are found within a";
  print_endline "       handful of runs while no Randomized seed ever reaches them.";
  print_endline "claim: racing-pair backtracking explores distinct orders, not seeds."

(* ------------------------------------------------------------------ *)
(* E14: timeout/cancel sweep — cancel latency and cleanup cost at scale *)
(* ------------------------------------------------------------------ *)

module Resil = Pcont_resil.Resil

let e14 () =
  header "E14  fault tolerance at scale: timed-out fibers, cancel latency and cleanup";
  (* n tasks, each a [Resil.with_timeout] scope around a virtual-time
     sleep with a heavy-tailed (bounded-Pareto, alpha=1) duration: most
     tasks finish well inside the deadline, the tail blows past it and
     is cancelled by the timer.  Tasks run [batch] at a time — every
     slice advances the shared virtual clock by one unit, so the skew
     between a scope's service sleep and its timeout timer is bounded
     by the batch's slice count, not by n.  Everything is deterministic
     (service times from a splitmix-hashed stream, schedule from
     Round_robin), so the cancelled/completed split is a fixed property
     of (n, deadline).

     Measured from the run's Obs.Metrics histograms:
     - cancel latency: virtual-time units between the scope's deadline
       and its caller observing [Error (Cancelled _)] (scope machinery
       plus scheduling delay, in clock units);
     - cleanup cost: fibers discarded per scope abort
       (sched.cancel.pids) — the subtree the abort swept. *)
  let deadline = 500 and batch = 8 in
  let service i =
    (* bounded Pareto by inverse transform on a hashed uniform:
       s = lo/u, clamped; P(s > deadline) = lo/deadline = 10% *)
    let h = Int64.of_int (i + 1) in
    let h = Int64.mul h 0x9E3779B97F4A7C15L in
    let h = Int64.logxor h (Int64.shift_right_logical h 31) in
    let u =
      (Int64.to_float (Int64.logand h 0xFFFFFFFFL) +. 1.) /. 4294967296.
    in
    min 20_000 (int_of_float (50. /. u))
  in
  let ns = if !quick then [ 1_000 ] else [ 1_000; 10_000 ] in
  Printf.printf "%7s | %9s %9s | %9s %9s %9s | %9s %9s\n" "fibers" "cancelled"
    "completed" "lat p50" "lat mean" "lat max" "swept/cxl" "us/fiber";
  List.iter
    (fun n ->
      let run () =
        let o = Obs.create () in
        let cancelled = ref 0 and completed = ref 0 in
        Sched.run ~obs:o (fun () ->
            let i = ref 0 in
            while !i < n do
              let b = min batch (n - !i) in
              let base = !i in
              ignore
                (Sched.pcall
                   (List.init b (fun j () ->
                        let t0 = Sched.now () in
                        (match
                           Resil.with_timeout deadline (fun () ->
                               Sched.sleep (service (base + j)))
                         with
                        | Ok () -> incr completed
                        | Error _ ->
                            incr cancelled;
                            Obs.observe o "resil.cancel.latency"
                              (Sched.now () - t0 - deadline));
                        0)));
              i := !i + b
            done);
        (o, !cancelled, !completed)
      in
      let (o, ncxl, ndone), dt = time_best ~n:(if !quick then 1 else 2) run in
      let m = Obs.metrics o in
      let hist name =
        match Obs.Metrics.find m name with
        | Some h -> (Obs.Metrics.hist_mean h, Obs.Metrics.hist_max h)
        | None -> (0., 0)
      in
      let lat_mean, lat_max = hist "resil.cancel.latency" in
      (* median from the power-of-two buckets: the bound of the bucket
         where the cumulative count crosses half *)
      let lat_p50 =
        match Obs.Metrics.find m "resil.cancel.latency" with
        | None -> "-"
        | Some h ->
            let half = (Obs.Metrics.hist_count h + 1) / 2 in
            let acc = ref 0 and med = ref "-" in
            List.iter
              (fun (b, c) ->
                if !acc < half then begin
                  acc := !acc + c;
                  if !acc >= half then med := b
                end)
              (Obs.Metrics.hist_buckets h);
            !med
      in
      let swept_mean, _ = hist "sched.cancel.pids" in
      jrow
        ~name:(Printf.sprintf "e14.timeout%d" n)
        ~params:[ pint "fibers" n; pint "deadline" deadline ]
        ~metrics:
          [
            ("cancelled", ncxl);
            ("completed", ndone);
            ("cancel_latency_mean", int_of_float lat_mean);
            ("cancel_latency_max", lat_max);
            ("swept_per_cancel", int_of_float swept_mean);
          ]
        (ns_per dt n);
      row "%7d | %9d %9d | %9s %9.1f %9d | %9.1f %9.2f\n" n ncxl ndone lat_p50
        lat_mean lat_max swept_mean
        (dt *. 1e6 /. float_of_int n))
    ns;
  print_endline "shape: the cancelled share tracks the tail mass past the deadline";
  print_endline "       (~10% under alpha=1, lo/deadline=0.1); cancel latency is bounded";
  print_endline "       by the batch's slice count (it does not grow with n), and each";
  print_endline "       abort sweeps the constant-size scope subtree.";
  print_endline "claim: cancellation is capture-and-discard, so its cost is the same";
  print_endline "       traversal the paper's control operator already pays."

(* ------------------------------------------------------------------ *)
(* E15: telemetry overhead — no handle vs metrics vs ring vs full JSONL *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15  telemetry overhead: none vs metrics-only vs flight ring vs full JSONL";
  (* The e9 fork-tree workload at fine grain (>= 10^4 fibers), run on
     the pstack concurrent scheduler once per observation config:
     - none:    no handle — the baseline the overhead ratios are against;
     - metrics: a handle with no sinks: each event costs one sequence
       increment, each observation feeds a histogram and a sketch;
     - ring:    the flight recorder — events formatted into a fixed ring
       of lines, no I/O on the hot path;
     - jsonl:   every event serialized into a growing buffer (the full
       always-on trace).
     The sizes do not shrink under quick: the CI smoke asserts the ring
     config stays within 10% of baseline at this fiber count.  Quantum
     is the production grain (e9's sweep shows 16 is rotation-bound):
     overhead is per slice, so the ratio is a statement about slices of
     useful size, not about the scheduler's context-switch floor. *)
  let defs =
    {|
(define (tsum lo hi grain)
  (if (<= (- hi lo) grain)
      (let loop ([i lo] [acc 0])
        (if (> i hi) acc (loop (+ i 1) (+ acc i))))
      (let ([mid (quotient (+ lo hi) 2)])
        (pcall + (tsum lo mid grain) (tsum (+ mid 1) hi grain)))))
|}
  in
  let n = 1 lsl 15 and grain = 4 and quantum = 256 in
  let reps = if !quick then 2 else 3 in
  let configs =
    [
      ("none", fun () -> None);
      ("metrics", fun () -> Some (Obs.create ()));
      ( "ring",
        fun () ->
          (* default capacity — the configuration psi --flight and
             ptrace gen --flight attach; it also keeps the ring's
             working set inside L2, which is part of why it is cheap *)
          let o = Obs.create () in
          Obs.attach o (Obs.Sink.ring_sink (Obs.Sink.ring ()));
          Some o );
      ( "jsonl",
        fun () ->
          let o = Obs.create () in
          let buf = Buffer.create (1 lsl 22) in
          Obs.attach o (Obs.Sink.jsonl (Buffer.add_string buf));
          Some o );
    ]
  in
  Printf.printf "%8s | %12s %10s | %8s\n" "config" "ms" "overhead" "fibers";
  let base = ref 0. in
  List.iter
    (fun (label, mk) ->
      let t = Interp.create () in
      ignore (Interp.eval_string t defs);
      let src = Printf.sprintf "(tsum 1 %d %d)" n grain in
      let expected = n * (n + 1) / 2 in
      let obs = mk () in
      let cfg = Interp.config t in
      C.reset cfg.Pstack.Machine.counters;
      let (), dt =
        time_best ~n:reps (fun () ->
            match
              Interp.eval_value
                ~mode:(Interp.Concurrent Pstack.Concur.Round_robin)
                ~quantum ?obs ~fuel:2_000_000_000 t src
            with
            | Pstack.Types.Int v when v = expected -> ()
            | v -> failwith ("bad sum " ^ Pstack.Value.to_string v))
      in
      let forks = C.get cfg.Pstack.Machine.counters "concur.fork" / reps in
      (* every pcall forks three children (operator + two operands) *)
      let fibers = 1 + (3 * forks) in
      if fibers < 10_000 then failwith "e15: workload below 10^4 fibers";
      if label = "none" then base := dt;
      let overhead_pct =
        int_of_float (Float.round ((dt /. !base -. 1.) *. 100.))
      in
      jrow
        ~name:("e15." ^ label)
        ~params:
          [ pint "n" n; pint "grain" grain; pint "quantum" quantum; pint "fibers" fibers ]
        ~metrics:[ ("overhead_pct", overhead_pct); ("fibers", fibers) ]
        (dt *. 1e9);
      row "%8s | %12.2f %9d%% | %8d\n" label (dt *. 1e3) overhead_pct fibers)
    configs;
  print_endline "shape: metrics-only and the ring stay within a few percent of the";
  print_endline "       unobserved run (the flight recorder is safe to leave on);";
  print_endline "       full JSONL pays for serializing every event.";
  print_endline "claim: always-on telemetry costs <=10% at 10^4 fibers (CI-asserted)."

(* ------------------------------------------------------------------ *)
(* e16: open-loop server scenarios with SLO latency attribution        *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "e16  open-loop server scenarios (latency in virtual ticks)";
  let profile = if !quick then Load.quick else Load.full in
  let floor_fibers = if !quick then 10_000 else 100_000 in
  row "%-9s %8s %6s %6s | %7s %7s %7s | %6s %6s %6s %6s | %7s %9s\n" "scenario"
    "requests" "ok" "t/o" "p50" "p99" "p999" "queue" "svc" "wake" "join" "peak"
    "req/ktick";
  List.iter
    (fun scen ->
      let st, dt = time_best ~n:3 (fun () -> Load.run profile ~seed:1L scen) in
      if st.Load.st_attr_residual <> 0 then
        failwith "e16: latency attribution does not sum to end-to-end";
      if st.Load.st_peak_live < floor_fibers then
        failwith
          (Printf.sprintf "e16: %s peaked at %d fibers (< %d)"
             st.Load.st_scenario st.Load.st_peak_live floor_fibers);
      let q p =
        int_of_float (Obs.Metrics.Sketch.quantile st.Load.st_latency p)
      in
      let mean sk = Obs.Metrics.Sketch.mean sk in
      let imean sk = int_of_float (mean sk) in
      jrow
        ~name:("e16." ^ st.Load.st_scenario)
        ~params:[ pint "requests" st.Load.st_requests; pint "seed" 1 ]
        ~metrics:
          [
            ("p50", q 0.50);
            ("p99", q 0.99);
            ("p999", q 0.999);
            ("queue_mean", imean st.Load.st_queue);
            ("service_mean", imean st.Load.st_service);
            ("wake_mean", imean st.Load.st_wake);
            ("join_mean", imean st.Load.st_join);
            ("completed", st.Load.st_completed);
            ("timedout", st.Load.st_timedout);
            ("peak_fibers", st.Load.st_peak_live);
            ("fairness_pm", int_of_float (st.Load.st_fairness *. 1000.));
            ("goodput_cpkt", int_of_float (st.Load.st_goodput *. 100.));
            ("attr_residual", st.Load.st_attr_residual);
          ]
        (dt *. 1e9 /. float_of_int st.Load.st_requests);
      row "%-9s %8d %6d %6d | %7d %7d %7d | %6d %6d %6d %6d | %7d %9.2f\n"
        st.Load.st_scenario st.Load.st_requests st.Load.st_completed
        st.Load.st_timedout (q 0.50) (q 0.99) (q 0.999)
        (imean st.Load.st_queue)
        (imean st.Load.st_service)
        (imean st.Load.st_wake)
        (imean st.Load.st_join)
        st.Load.st_peak_live st.Load.st_goodput)
    Load.scenarios;
  print_endline "shape: queue-wait dominates under overload (open-loop arrivals do";
  print_endline "       not slow down with the server); the four phases sum exactly";
  print_endline "       to end-to-end latency (residual CI-asserted to 0).";
  print_endline "claim: four server scenarios sustain >=10^5 concurrent fibers";
  print_endline "       (>=10^4 quick) with seed-deterministic traces."

(* ------------------------------------------------------------------ *)
(* micro: bechamel measurements of the native primitives               *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "micro  bechamel OLS estimates (ns/run)";
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"spawn" (Staged.stage (fun () -> Pcont.Spawn.spawn (fun _ -> 0)));
      Test.make ~name:"control+resume"
        (Staged.stage (fun () ->
             Pcont.Spawn.spawn (fun c ->
                 Pcont.Spawn.control c (fun k -> Pcont.Spawn.resume k 0))));
      Test.make ~name:"spawn_exit(abort)"
        (Staged.stage (fun () -> Pcont.Exit.spawn_exit (fun e -> e.Pcont.Exit.exit 0)));
      Test.make ~name:"generator next"
        (let g = Pcont.Generator.ints () in
         Staged.stage (fun () -> ignore (Pcont.Generator.next g)));
    ]
  in
  let test = Test.make_grouped ~name:"pcont" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] |> List.sort compare in
  List.iter
    (fun name ->
      let res = Hashtbl.find results name in
      match Analyze.OLS.estimates res with
      | Some [ est ] ->
          jrow ~name:("micro." ^ name) ~params:[] est;
          row "  %-24s %10.1f ns\n" name est
      | Some ests ->
          row "  %-24s %s\n" name
            (String.concat ", " (List.map (Printf.sprintf "%.1f") ests))
      | None -> row "  %-24s (no estimate)\n" name)
    names

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "quick" :: rest ->
        quick := true;
        parse acc rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse acc rest
    | [ "--json" ] ->
        prerr_endline "--json requires a file argument";
        exit 2
    | "--baseline" :: file :: rest ->
        baseline_file := Some file;
        parse acc rest
    | [ "--baseline" ] ->
        prerr_endline "--baseline requires a file argument";
        exit 2
    | "--regress-pct" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some p when p > 0. ->
            regress_pct := p;
            parse acc rest
        | _ ->
            prerr_endline "--regress-pct requires a positive number";
            exit 2)
    | [ "--regress-pct" ] ->
        prerr_endline "--regress-pct requires a number argument";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    match args with [] | [ "all" ] -> List.map fst experiments | picks -> picks
  in
  (* Refuse bad arguments before any experiment runs: an unknown name,
     or a --json file that cannot be written. *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) selected with
  | [] -> ()
  | bad ->
      List.iter
        (fun name ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" name
            (String.concat ", " (List.map fst experiments)))
        bad;
      exit 2);
  (match !json_file with
  | None -> ()
  | Some path -> (
      try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
      with Sys_error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2));
  print_endline "pcont benchmark harness (Hieb & Dybvig, PPoPP 1990 reproduction)";
  if !quick then print_endline "(quick mode: reduced sizes)";
  List.iter (fun name -> (List.assoc name experiments) ()) selected;
  write_json ();
  exit (compare_baseline ())
