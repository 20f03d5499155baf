(* The five workloads.  Each one's op count is fixed by its input; the
   seed changes the input's values, never its shape.  Inputs are drawn
   from the stdlib PRNG so they do not depend on the code under test. *)

module Obs = Pcont_obs.Obs
module Sketch = Obs.Metrics.Sketch
module Load = Pcont_load.Load
module Interp = Pcont_syntax.Interp
module Expand = Pcont_syntax.Expand
module Machine = Pcont_pstack.Machine
module Counters = Pcont_util.Counters

type kind =
  | Server  (** [Load.run] over the native scheduler, always with a handle *)
  | Concur  (** Scheme under the pstack tree-of-stacks scheduler *)
  | Sequential  (** Scheme under the sequential stack-of-stacks driver *)

type outcome = {
  failed : int;  (** ops that did not complete *)
  fingerprint : string;  (** equal across reps of one seed *)
  errors : string list;  (** wrong outputs; any fails the run *)
}

type instance = {
  rep : unit -> unit -> outcome;
      (** run one untraced rep; the returned thunk checks it, outside the
          timed region *)
  traced_rep : Traced.t -> outcome * (string * float) list;
      (** one rep under the traced sink, plus the rep's own totals
          (machine counters, or the load generator's latency split) *)
}

type t = {
  name : string;
  kind : kind;
  ops : int;  (** ops per rep *)
  prepare : unit -> instance;  (** builds the inputs: the timed set-up *)
}

let names =
  [ "server-ring"; "server-stream"; "scheme-forks"; "scheme-gen"; "scheme-amb" ]

(* ------------------------------------------------------------------ *)
(* Servers.                                                            *)
(* ------------------------------------------------------------------ *)

let server name scen ~seed =
  let profile = Load.full and seed = Int64.of_int seed in
  let check (st : Load.stats) =
    let errors =
      List.filter_map
        (fun (ok, msg) -> if ok then None else Some (name ^ ": " ^ msg))
        [
          (st.st_requests = profile.requests, "request count differs from the profile");
          ( st.st_completed + st.st_timedout + st.st_cancelled + st.st_crashed
            = st.st_requests,
            "fates do not partition the requests" );
          (st.st_attr_residual = 0, "latency attribution residual is not 0");
        ]
    in
    {
      failed = st.st_timedout + st.st_cancelled + st.st_crashed;
      fingerprint = Obs.Json.to_string (Load.stats_to_json st);
      errors;
    }
  in
  let totals (st : Load.stats) =
    [
      ("queue_mean", Sketch.mean st.st_queue);
      ("service_mean", Sketch.mean st.st_service);
      ("wake_mean", Sketch.mean st.st_wake);
      ("join_mean", Sketch.mean st.st_join);
      ("vlat_p50", Sketch.quantile st.st_latency 0.5);
      ("vlat_p999", Sketch.quantile st.st_latency 0.999);
      ("vlat_count", float_of_int (Sketch.count st.st_latency));
    ]
  in
  {
    name;
    kind = Server;
    ops = profile.requests;
    prepare =
      (fun () ->
        (* the input is the arrival schedule; [Load.run] derives the same
           one from the seed *)
        ignore (Sys.opaque_identity (Load.arrivals profile ~seed));
        {
          rep =
            (fun () ->
              let st = Load.run profile ~seed scen in
              fun () -> check st);
          traced_rep =
            (fun tr ->
              let st = Load.run ~obs:(Traced.handle tr) profile ~seed scen in
              (check st, totals st));
        });
  }

(* ------------------------------------------------------------------ *)
(* Scheme.                                                             *)
(* ------------------------------------------------------------------ *)

let fuel = max_int

let load_defs it defs =
  List.iter
    (function
      | Interp.Error msg -> failwith ("definitions failed to load: " ^ msg)
      | Interp.Value _ | Interp.Defined _ -> ())
    (Interp.eval_string it defs)

(* Evaluate every form of [src] as the sequential driver would, with a
   benchmark-side loop over [Machine.step_exn] that counts transitions
   into [tr], one slice per form.  Returns the last form's value. *)
let eval_steps tr it src =
  let since = ref (Traced.now ()) in
  match Expand.parse_program ~macros:(Interp.macros it) src with
  | Error msg -> failwith msg
  | Ok tops ->
      let cfg = Interp.config it and genv = Interp.env it in
      List.fold_left
        (fun _ top ->
          match top with
          | Expand.Expr ir -> (
              let st = Machine.initial (Pcont_pstack.Resolve.toplevel genv ir) in
              let steps = ref 0 and b = Traced.now () in
              let rec loop st =
                incr steps;
                loop (Machine.step_exn cfg st)
              in
              match loop st with
              | (_ : Machine.stepped) -> assert false
              | exception Machine.Stop (Machine.Final v) ->
                  let e = Traced.now () in
                  Traced.record_slice tr ~fuel:!steps ~since:!since b e;
                  since := e;
                  v
              | exception Machine.Stop _ -> failwith "program stopped without a value")
          | Expand.Define _ | Expand.Defsyntax _ -> failwith "unexpected definition")
        Pcont_pstack.Types.Unit tops

let counter_names =
  [ "controller"; "pk-invoke"; "machine.capture.moved"; "machine.pool.hit";
    "machine.pool.miss"; "concur.fork" ]

let scheme ~name ~kind ~ops ~defs ~src ~expected ~expected_counts =
  let mode =
    match kind with
    | Concur -> Interp.Concurrent Pcont_pstack.Concur.Round_robin
    | Sequential | Server -> Interp.Sequential
  in
  let check v extra =
    let errors =
      (match v with
      | Pcont_pstack.Types.Int n when n = expected -> []
      | v ->
          [ Printf.sprintf "%s: got %s, expected %d" name
              (Pcont_pstack.Value.to_string v) expected ])
      @ extra
    in
    { failed = (if errors = [] then 0 else ops); fingerprint = ""; errors }
  in
  {
    name;
    kind;
    ops;
    prepare =
      (fun () ->
        let it = Interp.create () in
        load_defs it defs;
        let counters = (Interp.config it).Machine.counters in
        let eval ?obs () = Interp.eval_value ~mode ~quantum:256 ~fuel ?obs it src in
        {
          rep =
            (fun () ->
              let v = eval () in
              fun () -> check v []);
          traced_rep =
            (fun tr ->
              let before = List.map (Counters.get counters) counter_names in
              let v =
                match kind with
                | Concur -> eval ~obs:(Traced.handle tr) ()
                | Sequential | Server -> eval_steps tr it src
              in
              let deltas =
                List.map2 (fun n b -> (n, Counters.get counters n - b)) counter_names before
              in
              let mismatches =
                List.filter_map
                  (fun (n, want) ->
                    let got = List.assoc n deltas in
                    if got = want then None
                    else Some (Printf.sprintf "%s: counter %s = %d, expected %d" name n got want))
                  expected_counts
              in
              (check v mismatches, List.map (fun (n, d) -> (n, float_of_int d)) deltas));
        });
  }

(* e15's fork tree, four times larger: one pcall per internal node. *)
let forks ~seed =
  let st = Random.State.make [| seed; 1 |] in
  let n = 1 lsl 17 and grain = 4 in
  let lo = 1 + Random.State.int st 1_000_000 in
  let hi = lo + n - 1 in
  let rec pcalls lo hi =
    if hi - lo <= grain then 0
    else
      let mid = (lo + hi) / 2 in
      1 + pcalls lo mid + pcalls (mid + 1) hi
  in
  let p = pcalls lo hi in
  scheme ~name:"scheme-forks" ~kind:Concur
    ~ops:(1 + (3 * p)) (* every pcall forks operator + two operands *)
    ~defs:
      {|
(define (tsum lo hi grain)
  (if (<= (- hi lo) grain)
      (let loop ([i lo] [acc 0])
        (if (> i hi) acc (loop (+ i 1) (+ acc i))))
      (let ([mid (quotient (+ lo hi) 2)])
        (pcall + (tsum lo mid grain) (tsum (+ mid 1) hi grain)))))
|}
    ~src:(Printf.sprintf "(tsum %d %d %d)" lo hi grain)
    ~expected:((lo + hi) * n / 2)
    ~expected_counts:[ ("concur.fork", p) ]

let quoted xs = "'(" ^ String.concat " " (List.map string_of_int xs) ^ ")"

(* Generators: every yield is a one-shot capture whose body reinstates
   at once, so each capture takes the move fast path. *)
let gen ~seed =
  let st = Random.State.make [| seed; 2 |] in
  let gens = 10_000 and yields = 100 in
  let vs = List.init yields (fun _ -> Random.State.int st 1000) in
  let captures = gens * yields in
  scheme ~name:"scheme-gen" ~kind:Sequential ~ops:captures
    ~defs:
      {|
(define (yield-all c vs acc)
  (if (null? vs)
      acc
      (let ([v (car vs)])
        (yield-all c (cdr vs) (+ acc (c (lambda (k) (k v))))))))
(define (generators n vs)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        acc
        (loop (+ i 1) (+ acc (spawn (lambda (c) (yield-all c vs 0))))))))
|}
    ~src:(Printf.sprintf "(generators %d %s)" gens (quoted vs))
    ~expected:(gens * List.fold_left ( + ) 0 vs)
    ~expected_counts:
      [ ("controller", captures); ("pk-invoke", captures);
        ("machine.capture.moved", captures) ]

let shuffled st n =
  let a = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* amb by counting: each choice point's controller body reinstates the
   captured process once per alternative and sums what the runs return,
   so every reinstatement is multi-shot. *)
let amb ~seed =
  let st = Random.State.make [| seed; 3 |] in
  let legs = 40 and hyps = 60 in
  let as_ = shuffled st legs and bs = shuffled st legs and hs = shuffled st hyps in
  let triples =
    List.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc b ->
            List.fold_left
              (fun acc h -> if a < b && (a * a) + (b * b) = h * h then acc + 1 else acc)
              acc hs)
          acc bs)
      0 as_
  in
  scheme ~name:"scheme-amb" ~kind:Sequential ~ops:(legs * legs * hyps)
    ~defs:
      {|
(define (choose c ls)
  (c (lambda (k)
       (let loop ([ls ls] [n 0])
         (if (null? ls) n (loop (cdr ls) (+ n (k (car ls)))))))))
(define (triples as bs hs)
  (spawn (lambda (c)
    (let* ([a (choose c as)] [b (choose c bs)] [h (choose c hs)])
      (if (and (< a b) (= (+ (* a a) (* b b)) (* h h))) 1 0)))))
|}
    ~src:(Printf.sprintf "(triples %s %s %s)" (quoted as_) (quoted bs) (quoted hs))
    ~expected:triples
    ~expected_counts:
      [ ("controller", 1 + legs + (legs * legs));
        ("pk-invoke", legs + (legs * legs) + (legs * legs * hyps)) ]

let make name ~seed =
  match name with
  | "server-ring" -> Some (server name Load.Ring ~seed)
  | "server-stream" -> Some (server name Load.Stream ~seed)
  | "scheme-forks" -> Some (forks ~seed)
  | "scheme-gen" -> Some (gen ~seed)
  | "scheme-amb" -> Some (amb ~seed)
  | _ -> None
