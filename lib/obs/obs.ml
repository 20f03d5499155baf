(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let quote s = "\"" ^ escape s ^ "\""

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* The numbers [to_string] prints as exact integers, and so the only
     ones [int] reads back: larger ones print as %.12g, and
     [int_of_float] is unspecified outside [int]'s range. *)
  let exact f = Float.is_integer f && Float.abs f < 1e15

  let int = function Num f when exact f -> Some (int_of_float f) | _ -> None

  (* One serializer for every producer (sinks, bench rows, reports), so
     output always round-trips through [parse].  Integral floats print
     with no fractional part: the event stream's fields are all ints and
     must re-ingest exactly. *)
  let to_string v =
    let buf = Buffer.create 256 in
    let num f =
      if exact f then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f -> num f
      | Str s -> Buffer.add_string buf (quote s)
      | Arr vs ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char buf ',';
              go v)
            vs;
          Buffer.add_char buf ']'
      | Obj kvs ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf (quote k);
              Buffer.add_char buf ':';
              go v)
            kvs;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> incr pos
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ lit)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' ->
              incr pos;
              Buffer.contents buf
          | '\\' ->
              incr pos;
              if !pos >= n then fail "truncated escape"
              else begin
                (match s.[!pos] with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | 'r' -> Buffer.add_char buf '\r'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'u' ->
                    if !pos + 4 >= n then fail "truncated \\u escape";
                    let hex = String.sub s (!pos + 1) 4 in
                    (match int_of_string_opt ("0x" ^ hex) with
                    | None -> fail "bad \\u escape"
                    | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
                    | Some _ ->
                        (* Preserve the escape textually; the validator only
                           needs well-formedness, not Unicode decoding. *)
                        Buffer.add_string buf ("\\u" ^ hex));
                    pos := !pos + 4
                | c -> fail (Printf.sprintf "bad escape \\%c" c));
                incr pos;
                go ()
              end
          | c when Char.code c < 0x20 -> fail "control character in string"
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && numchar s.[!pos] do
        incr pos
      done;
      if !pos = start then fail "expected a JSON value"
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or } in object"
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ] in array"
            in
            elems []
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input after value";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

module Event = struct
  type t =
    | Spawn of { pid : int; parent : int; kind : string }
    | Spawn_batch of { pid : int; kind : string; nodes : (int * int) array }
        (* one event for a whole regrafted subtree: [nodes] lists the
           rebuilt nodes as (pid, parent) pairs in pre-order (parents
           before children), exactly the order the per-node announcements
           used to be emitted in.  [pid] is the announcing (grafting)
           node. *)
    | Exit of { pid : int }
    | Slice_begin of { pid : int }
    | Slice_end of { pid : int; fuel : int }
    | Park of { pid : int; resource : string }
    | Wake of { pid : int; resource : string }
    | Capture of {
        pid : int;
        label : int;
        root_pid : int;
        control_points : int;
        size : int;
      }
    | Reinstate of { pid : int; label : int; size : int }
    | Send of { pid : int; chan : int }
    | Recv of { pid : int; chan : int }
    | Cancel of { pid : int; scope : int; reason : string; pids : int array }
        (* node [pid] aborted the subtree rooted at [scope] (capture and
           decline to reinstate): [pids] lists every live node discarded,
           pre-order, including [pid] itself when it sat inside the
           scope.  Parked entries among them were released. *)
    | Timeout of { pid : int; deadline : int }
        (* the timer fiber [pid] fired at virtual time [deadline]; a
           Cancel for the timed-out scope follows. *)
    | Crash of { pid : int; fault : string }
        (* a fiber failed.  [fault] is ["inject:crash"], ["inject:wake:R"]
           or ["inject:drop:N"] for scheduler fault injections (these are
           the replayable markers a schedule re-extracts), or the
           exception description when a scope body raised.  [pid] is -1
           for faults that target a resource rather than a fiber. *)
    | Restart of { pid : int; child : int; attempt : int; backoff : int; limit : int }
        (* supervisor [pid] restarted the child whose failed incarnation
           was rooted at [child]; [attempt] counts restarts inside the
           current intensity window (1-based, never exceeds [limit]),
           [backoff] is the virtual-time delay slept before the restart. *)
    | Invalid_controller of { pid : int; label : int }
    | Deadlock of { parked : int }
    | Span_begin of { pid : int; span : int; parent : int; name : string }
        (* fiber [pid] opened causal span [span] (a per-handle id, dense
           in allocation order so traces stay byte-deterministic per
           seed); [parent] is the enclosing span id or -1.  The span
           context propagates through spawn, graft and channel
           send/recv, so one request's spans cross fiber boundaries. *)
    | Span_end of { pid : int; span : int }

  let name = function
    | Spawn _ -> "spawn"
    | Spawn_batch _ -> "spawn-batch"
    | Exit _ -> "exit"
    | Slice_begin _ -> "slice-begin"
    | Slice_end _ -> "slice-end"
    | Park _ -> "park"
    | Wake _ -> "wake"
    | Capture _ -> "capture"
    | Reinstate _ -> "reinstate"
    | Send _ -> "send"
    | Recv _ -> "recv"
    | Cancel _ -> "cancel"
    | Timeout _ -> "timeout"
    | Crash _ -> "crash"
    | Restart _ -> "restart"
    | Invalid_controller _ -> "invalid-controller"
    | Deadlock _ -> "deadlock"
    | Span_begin _ -> "span-begin"
    | Span_end _ -> "span-end"

  let pid = function
    | Spawn { pid; _ }
    | Spawn_batch { pid; _ }
    | Exit { pid }
    | Slice_begin { pid }
    | Slice_end { pid; _ }
    | Park { pid; _ }
    | Wake { pid; _ }
    | Capture { pid; _ }
    | Reinstate { pid; _ }
    | Send { pid; _ }
    | Recv { pid; _ }
    | Cancel { pid; _ }
    | Timeout { pid; _ }
    | Crash { pid; _ }
    | Restart { pid; _ }
    | Invalid_controller { pid; _ }
    | Span_begin { pid; _ }
    | Span_end { pid; _ } ->
        pid
    | Deadlock _ -> -1

  let to_human = function
    | Spawn { pid; parent; kind } ->
        Printf.sprintf "spawn   pid=%d parent=%d kind=%s" pid parent kind
    | Spawn_batch { pid; kind; nodes } ->
        Printf.sprintf "spawn*  pid=%d kind=%s nodes=[%s]" pid kind
          (String.concat ";"
             (Array.to_list
                (Array.map (fun (p, par) -> Printf.sprintf "%d<-%d" p par) nodes)))
    | Exit { pid } -> Printf.sprintf "exit    pid=%d" pid
    | Slice_begin { pid } -> Printf.sprintf "run     pid=%d" pid
    | Slice_end { pid; fuel } -> Printf.sprintf "ran     pid=%d fuel=%d" pid fuel
    | Park { pid; resource } -> Printf.sprintf "park    pid=%d on=%s" pid resource
    | Wake { pid; resource } -> Printf.sprintf "wake    pid=%d on=%s" pid resource
    | Capture { pid; label; root_pid; control_points; size } ->
        Printf.sprintf "capture pid=%d root=%d at=%d control-points=%d size=%d" pid
          label root_pid control_points size
    | Reinstate { pid; label; size } ->
        Printf.sprintf "graft   pid=%d root=%d size=%d" pid label size
    | Send { pid; chan } -> Printf.sprintf "send    pid=%d chan=%d" pid chan
    | Recv { pid; chan } -> Printf.sprintf "recv    pid=%d chan=%d" pid chan
    | Cancel { pid; scope; reason; pids } ->
        Printf.sprintf "cancel  pid=%d scope=%d reason=%s pids=[%s]" pid scope
          reason
          (String.concat ";" (Array.to_list (Array.map string_of_int pids)))
    | Timeout { pid; deadline } ->
        Printf.sprintf "timeout pid=%d deadline=%d" pid deadline
    | Crash { pid; fault } -> Printf.sprintf "crash   pid=%d fault=%s" pid fault
    | Restart { pid; child; attempt; backoff; limit } ->
        Printf.sprintf "restart pid=%d child=%d attempt=%d/%d backoff=%d" pid
          child attempt limit backoff
    | Invalid_controller { pid; label } ->
        Printf.sprintf "invalid pid=%d root=%d" pid label
    | Deadlock { parked } -> Printf.sprintf "deadlock parked=%d" parked
    | Span_begin { pid; span; parent; name } ->
        Printf.sprintf "span+   pid=%d id=%d parent=%d name=%s" pid span parent name
    | Span_end { pid; span } -> Printf.sprintf "span-   pid=%d id=%d" pid span

  (* The wire schema.  [fields] lists each event's payload in the fixed
     order JSONL writes it, so identical event streams serialize to
     byte-identical output; [to_json], [of_json] and the Chrome sink's
     args all read this one table. *)
  type field = Int of int | Str of string | Ints of int array | Pairs of (int * int) array

  let fields ev =
    let i k v = (k, Int v) and s k v = (k, Str v) in
    match ev with
    | Spawn { pid; parent; kind } -> [ i "pid" pid; i "parent" parent; s "kind" kind ]
    | Spawn_batch { pid; kind; nodes } -> [ i "pid" pid; s "kind" kind; ("nodes", Pairs nodes) ]
    | Exit { pid } | Slice_begin { pid } -> [ i "pid" pid ]
    | Slice_end { pid; fuel } -> [ i "pid" pid; i "fuel" fuel ]
    | Park { pid; resource } | Wake { pid; resource } -> [ i "pid" pid; s "resource" resource ]
    | Capture { pid; label; root_pid; control_points; size } ->
        [
          i "pid" pid;
          i "label" label;
          i "root_pid" root_pid;
          i "control_points" control_points;
          i "size" size;
        ]
    | Reinstate { pid; label; size } -> [ i "pid" pid; i "label" label; i "size" size ]
    | Send { pid; chan } | Recv { pid; chan } -> [ i "pid" pid; i "chan" chan ]
    | Cancel { pid; scope; reason; pids } ->
        [ i "pid" pid; i "scope" scope; s "reason" reason; ("pids", Ints pids) ]
    | Timeout { pid; deadline } -> [ i "pid" pid; i "deadline" deadline ]
    | Crash { pid; fault } -> [ i "pid" pid; s "fault" fault ]
    | Restart { pid; child; attempt; backoff; limit } ->
        [ i "pid" pid; i "child" child; i "attempt" attempt; i "backoff" backoff; i "limit" limit ]
    | Invalid_controller { pid; label } -> [ i "pid" pid; i "label" label ]
    | Deadlock { parked } -> [ i "parked" parked ]
    | Span_begin { pid; span; parent; name } ->
        [ i "pid" pid; i "span" span; i "parent" parent; s "name" name ]
    | Span_end { pid; span } -> [ i "pid" pid; i "span" span ]

  let num v = Json.Num (float_of_int v)

  let field_json = function
    | Int v -> num v
    | Str s -> Json.Str s
    | Ints a -> Json.Arr (List.map num (Array.to_list a))
    | Pairs a -> Json.Arr (List.map (fun (p, q) -> Json.Arr [ num p; num q ]) (Array.to_list a))

  let to_json ~seq ~ts ev =
    Json.Obj
      (("seq", num seq) :: ("ts", num ts) :: ("ev", Json.Str (name ev))
      :: List.map (fun (k, f) -> (k, field_json f)) (fields ev))

  (* The inverse of [fields].  A reader never stops the decode: it
     records its field's first error and returns a placeholder.  The
     error reported is the first in wire order, which [fields] of the
     decoded event defines, so the arms below need no order of their
     own. *)
  let of_json j =
    let errors = ref [] in
    let error k msg v =
      if not (List.mem_assoc k !errors) then errors := (k, msg) :: !errors;
      v
    in
    let bad k what v = error k (Printf.sprintf "field %S %s" k what) v in
    let field k default read =
      match Json.member k j with
      | Some v -> read v
      | None -> error k (Printf.sprintf "missing field %S" k) default
    in
    let whole k what v =
      match (Json.int v, v) with
      | Some n, _ -> n
      | None, Json.Num f when Float.is_integer f -> bad k "is out of range" 0
      | None, _ -> bad k what 0
    in
    let int k = field k 0 (whole k "is not an integer") in
    let str k = field k "" (function Json.Str s -> s | _ -> bad k "is not a string" "") in
    let arr k f =
      field k [||] (function
        | Json.Arr vs -> Array.of_list (List.map f vs)
        | _ -> bad k "is not an array" [||])
    in
    let ints k = arr k (whole k "entries must be integers") in
    let pairs k =
      let what = "entries must be [pid,parent] int pairs" in
      arr k (function
        | Json.Arr [ p; q ] ->
            let p = whole k what p in
            (p, whole k what q)
        | _ -> bad k what (0, 0))
    in
    let seq = int "seq" in
    let ts = int "ts" in
    let ev =
      match str "ev" with
      | "spawn" -> Spawn { pid = int "pid"; parent = int "parent"; kind = str "kind" }
      | "spawn-batch" ->
          Spawn_batch { pid = int "pid"; kind = str "kind"; nodes = pairs "nodes" }
      | "exit" -> Exit { pid = int "pid" }
      | "slice-begin" -> Slice_begin { pid = int "pid" }
      | "slice-end" -> Slice_end { pid = int "pid"; fuel = int "fuel" }
      | "park" -> Park { pid = int "pid"; resource = str "resource" }
      | "wake" -> Wake { pid = int "pid"; resource = str "resource" }
      | "capture" ->
          Capture
            {
              pid = int "pid";
              label = int "label";
              root_pid = int "root_pid";
              control_points = int "control_points";
              size = int "size";
            }
      | "reinstate" -> Reinstate { pid = int "pid"; label = int "label"; size = int "size" }
      | "send" -> Send { pid = int "pid"; chan = int "chan" }
      | "recv" -> Recv { pid = int "pid"; chan = int "chan" }
      | "cancel" ->
          Cancel { pid = int "pid"; scope = int "scope"; reason = str "reason"; pids = ints "pids" }
      | "timeout" -> Timeout { pid = int "pid"; deadline = int "deadline" }
      | "crash" -> Crash { pid = int "pid"; fault = str "fault" }
      | "restart" ->
          Restart
            {
              pid = int "pid";
              child = int "child";
              attempt = int "attempt";
              backoff = int "backoff";
              limit = int "limit";
            }
      | "invalid-controller" -> Invalid_controller { pid = int "pid"; label = int "label" }
      | "deadlock" -> Deadlock { parked = int "parked" }
      | "span-begin" ->
          Span_begin
            { pid = int "pid"; span = int "span"; parent = int "parent"; name = str "name" }
      | "span-end" -> Span_end { pid = int "pid"; span = int "span" }
      | tag -> error "ev" (Printf.sprintf "unknown event tag %S" tag) (Deadlock { parked = 0 })
    in
    match !errors with
    | [] -> Ok (seq, ts, ev)
    | (_, m) :: _ ->
        let wire = "seq" :: "ts" :: "ev" :: List.map fst (fields ev) in
        Error (Option.value ~default:m (List.find_map (fun k -> List.assoc_opt k !errors) wire))
end

(* ------------------------------------------------------------------ *)
(* Metrics: quantile sketches                                         *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* DDSketch-style quantile sketch.  Bucket [i] (i >= 0) holds every
     observation v with gamma^(i-1) < v <= gamma^i, where
     gamma = (1+alpha)/(1-alpha) and alpha = 0.01; zeros are counted
     exactly.  Reporting the bucket midpoint 2*gamma^i/(gamma+1) makes
     every quantile estimate within relative error alpha of some true
     observation: for v in the bucket, |est - v| / v <= alpha (the
     DDSketch bound).  The estimate is clamped to the exact max, which
     keeps the bound: a midpoint above the max lies further from every
     v in the bucket than the max does. *)
  module Sketch = struct
    let alpha = 0.01

    let gamma = (1. +. alpha) /. (1. -. alpha)

    let inv_log_gamma = 1. /. log gamma

    type t = {
      (* bucket counts indexed directly by bucket number — observation is
         an array increment, not a hashtable probe (this runs once per
         scheduler slice); grown by doubling when a large value lands
         past the end.  ~1150 buckets cover [1, 2^62]. *)
      mutable sk_buckets : int array;
      mutable sk_zero : int;  (* exact count of zero observations *)
      mutable sk_n : int;
      mutable sk_sum : int;
      mutable sk_max : int;
    }

    let create () = { sk_buckets = Array.make 64 0; sk_zero = 0; sk_n = 0; sk_sum = 0; sk_max = 0 }

    let count sk = sk.sk_n

    let sum sk = sk.sk_sum

    let max sk = sk.sk_max

    let mean sk =
      if sk.sk_n = 0 then 0. else float_of_int sk.sk_sum /. float_of_int sk.sk_n

    (* ceil(log_gamma v), clamped so v=1 lands in bucket 0.  The float
       log is exact enough: an off-by-one bucket is still within the
       advertised bound because adjacent buckets overlap at gamma^i. *)
    let bucket_of v = int_of_float (Float.ceil (log (float_of_int v) *. inv_log_gamma))

    let grow sk i =
      let rec cap m = if i < m then m else cap (2 * m) in
      let b = Array.make (cap (2 * Array.length sk.sk_buckets)) 0 in
      Array.blit sk.sk_buckets 0 b 0 (Array.length sk.sk_buckets);
      sk.sk_buckets <- b

    let observe sk v =
      let v = if v < 0 then 0 else v in
      sk.sk_n <- sk.sk_n + 1;
      sk.sk_sum <- sk.sk_sum + v;
      if v > sk.sk_max then sk.sk_max <- v;
      if v = 0 then sk.sk_zero <- sk.sk_zero + 1
      else begin
        let i = bucket_of v in
        if i >= Array.length sk.sk_buckets then grow sk i;
        sk.sk_buckets.(i) <- sk.sk_buckets.(i) + 1
      end

    (* Value at rank floor(q * (n-1)), walking buckets in index order —
       deterministic for a given stream, O(buckets log buckets). *)
    let quantile sk q =
      if sk.sk_n = 0 then 0.
      else begin
        let q = if q < 0. then 0. else if q > 1. then 1. else q in
        let rank = int_of_float (q *. float_of_int (sk.sk_n - 1)) in
        if rank < sk.sk_zero then 0.
        else begin
          let nb = Array.length sk.sk_buckets in
          let rec walk acc i =
            if i >= nb then float_of_int sk.sk_max
            else
              let acc = acc + sk.sk_buckets.(i) in
              if rank < acc then
                Float.min
                  (2. *. (gamma ** float_of_int i) /. (gamma +. 1.))
                  (float_of_int sk.sk_max)
              else walk acc (i + 1)
          in
          walk sk.sk_zero 0
        end
      end

    let to_json sk =
      Json.Obj
        [
          ("count", Json.Num (float_of_int sk.sk_n));
          ("p50", Json.Num (quantile sk 0.5));
          ("p99", Json.Num (quantile sk 0.99));
          ("p999", Json.Num (quantile sk 0.999));
          ("mean", Json.Num (mean sk));
          ("max", Json.Num (float_of_int sk.sk_max));
        ]
  end

  type t = (string, Sketch.t) Hashtbl.t

  let create () = Hashtbl.create 16

  type series = Sketch.t

  let series t name =
    match Hashtbl.find_opt t name with
    | Some sk -> sk
    | None ->
        let sk = Sketch.create () in
        Hashtbl.add t name sk;
        sk

  let observe t name v = Sketch.observe (series t name) v

  let find t name = Hashtbl.find_opt t name

  let sketches t =
    Hashtbl.fold (fun name sk acc -> (name, sk) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

type sink = {
  sink_event : seq:int -> ts:int -> Event.t -> unit;
  sink_close : unit -> unit;
}

type t = {
  mutable oseq : int;
  mutable oclock : int;
  mutable sinks : sink list;
  omx : Metrics.t;
  mutable onext_span : int;  (* next span id, dense in allocation order *)
}

let create () =
  { oseq = 0; oclock = 0; sinks = []; omx = Metrics.create (); onext_span = 0 }

let metrics t = t.omx

let attach t s = t.sinks <- t.sinks @ [ s ]

let has_sink t = t.sinks <> []

(* Deliver to every sink even if an earlier one raises; collect the
   raisers (allocation-free when nothing fails — the common case). *)
let rec sink_failures ~seq ~ts ev = function
  | [] -> []
  | s :: rest -> (
      match s.sink_event ~seq ~ts ev with
      | () -> sink_failures ~seq ~ts ev rest
      | exception exn -> (s, exn) :: sink_failures ~seq ~ts ev rest)

(* A sink whose [sink_event] raises must not take the handle down with
   it: the event stream is shared state (the seq counter is already
   advanced, later-attached sinks still expect delivery).  The faulty
   sink is detached and the failure is recorded in-stream as a Crash
   warning event with pid -1, so the surviving sinks' traces say why
   one consumer went quiet. *)
let rec emit t ev =
  let seq = t.oseq in
  t.oseq <- seq + 1;
  match t.sinks with
  | [] -> ()
  | [ s ] -> (
      (* single-sink fast path: the common always-on configuration (one
         ring) pays one closure call, no failure-list allocation *)
      try s.sink_event ~seq ~ts:t.oclock ev
      with exn ->
        t.sinks <- List.filter (fun s' -> s' != s) t.sinks;
        emit t
          (Event.Crash { pid = -1; fault = "sink: " ^ Printexc.to_string exn }))
  | sinks -> (
      match sink_failures ~seq ~ts:t.oclock ev sinks with
      | [] -> ()
      | failures ->
          t.sinks <-
            List.filter
              (fun s -> not (List.exists (fun (f, _) -> f == s) failures))
              t.sinks;
          List.iter
            (fun (_, exn) ->
              emit t
                (Event.Crash
                   { pid = -1; fault = "sink: " ^ Printexc.to_string exn }))
            (List.rev failures))

let advance t d = if d > 0 then t.oclock <- t.oclock + d

let now t = t.oclock

let seq t = t.oseq

let close t =
  let sinks = t.sinks in
  t.sinks <- [];
  List.iter (fun s -> s.sink_close ()) sinks

(* ------------------------------------------------------------------ *)
(* Causal spans                                                        *)
(* ------------------------------------------------------------------ *)

(* Span ids are allocated here (per handle, dense) so both schedulers
   share one id space per trace and allocation order — and therefore
   the trace bytes — stay deterministic per seed.  Durations are folded
   from the events ([Analysis.Snapshot]).  A span that never
   ends (its fiber was cancelled or captured away) just stays open;
   the checker's span-balance rule tolerates that, matching the
   cancellation model where cleanup is declined reinstatement. *)
module Span = struct
  let begin_ t ~pid ?(parent = -1) name =
    let id = t.onext_span in
    t.onext_span <- id + 1;
    emit t (Event.Span_begin { pid; span = id; parent; name });
    id

  let end_ t ~pid span = emit t (Event.Span_end { pid; span })
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

module Sink = struct
  let of_channel oc s = output_string oc s

  let human ?(prefix = "") write =
    {
      sink_event =
        (fun ~seq:_ ~ts ev ->
          write (Printf.sprintf "%s[%6d] %s\n" prefix ts (Event.to_human ev)));
      sink_close = (fun () -> ());
    }

  let jsonl write =
    {
      sink_event =
        (fun ~seq ~ts ev -> write (Json.to_string (Event.to_json ~seq ~ts ev) ^ "\n"));
      sink_close = (fun () -> ());
    }

  (* Chrome trace-event format (JSON array flavour).  One OS-level
     "process" (pid 1); each scheduler node is a thread/track (tid =
     node id) named on first sight via a thread_name metadata record.
     Run slices are B/E duration events; everything else an instant. *)
  let chrome write =
    let first = ref true in
    let item j =
      if !first then begin
        first := false;
        write "[\n  "
      end
      else write ",\n  ";
      write (Json.to_string j)
    in
    let num = Event.num in
    let named = Hashtbl.create 16 in
    let ensure_name pid label =
      if not (Hashtbl.mem named pid) then begin
        Hashtbl.add named pid ();
        item
          (Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", num 1);
               ("tid", num pid);
               ("args", Json.Obj [ ("name", Json.Str label) ]);
             ])
      end
    in
    (* Args are the event's wire fields minus those the record carries
       itself (pid as tid; a span's id and name), each array shown as its
       length. *)
    let args ev =
      List.filter_map
        (function
          | ("pid" | "span" | "name"), _ -> None
          | _, Event.Ints a -> Some ("count", num (Array.length a))
          | _, Event.Pairs a -> Some ("count", num (Array.length a))
          | k, f -> Some (k, Event.field_json f))
        (Event.fields ev)
    in
    let record ~cat ~ph extra ~ts tid name ev =
      item
        (Json.Obj
           (("name", Json.Str name) :: ("cat", Json.Str cat) :: ("ph", Json.Str ph) :: extra
           @ [ ("ts", num ts); ("pid", num 1); ("tid", num tid) ]
           @ match args ev with [] -> [] | a -> [ ("args", Json.Obj a) ]))
    in
    (* Spans map to async begin/end events (ph b/e): unlike B/E duration
       events they need no per-track nesting, which a span whose fiber
       was cancelled before the end annotation would violate.  Async
       ends must repeat the begin's name, so remember it per span id. *)
    let span_names = Hashtbl.create 16 in
    {
      sink_event =
        (fun ~seq:_ ~ts ev ->
          (* events on no node (deadlock, resource faults) go on track 0 *)
          let tid = max (Event.pid ev) 0 in
          (match ev with
          | Event.Spawn { kind; _ } -> ensure_name tid (Printf.sprintf "%s %d" kind tid)
          | Event.Spawn_batch { kind; nodes; _ } ->
              Array.iter (fun (p, _) -> ensure_name p (Printf.sprintf "%s %d" kind p)) nodes
          | _ -> ());
          ensure_name tid (Printf.sprintf "p%d" tid);
          match ev with
          | Event.Slice_begin _ -> record ~cat:"pcont" ~ph:"B" [] ~ts tid "run" ev
          | Event.Slice_end _ -> record ~cat:"pcont" ~ph:"E" [] ~ts tid "run" ev
          | Event.Span_begin { span; name; _ } ->
              Hashtbl.replace span_names span name;
              record ~cat:"span" ~ph:"b" [ ("id", num span) ] ~ts tid name ev
          | Event.Span_end { span; _ } ->
              let name = Option.value ~default:"span" (Hashtbl.find_opt span_names span) in
              record ~cat:"span" ~ph:"e" [ ("id", num span) ] ~ts tid name ev
          | _ -> record ~cat:"pcont" ~ph:"i" [ ("s", Json.Str "t") ] ~ts tid (Event.name ev) ev);
      sink_close = (fun () -> if !first then write "[]\n" else write "\n]\n");
    }

  let memory f = { sink_event = (fun ~seq ~ts ev -> f (seq, ts, ev)); sink_close = ignore }

  (* ---- flight recorder ------------------------------------------- *)

  (* Fixed-size ring of the last [capacity] events: three array stores
     and an index bump per event, no I/O, no allocation on the hot
     path.  [dump] re-serializes the window as ordinary JSONL (original
     seq/ts stamps), so the black box feeds the same ptrace toolchain
     as a full trace.  With [flight] set, the ring dumps itself the
     moment a Deadlock or Crash event passes through — every failure
     ships its own post-mortem without anyone asking. *)
  (* The ring stores events UNBOXED: tag + int fields in int arrays, the
     occasional string field in a string array, and only the two rare
     array-carrying events (Spawn_batch, Cancel) as boxed [Event.t].  A
     boxed ring is quietly expensive: every stored event is reachable
     from a major-heap array, so it survives the next minor collection
     and is promoted — one copy plus write-barrier work per event, which
     dominated the recorder's cost.  Int stores have no barrier and
     nothing to promote, so a store is ~a handful of array writes.
     Slots are decoded back to [Event.t] only at dump time.  String and
     box slots are not cleared on overwrite (that would cost a barrier
     per event); the stale references they pin are bounded by the
     capacity. *)
  type ring = {
    rb_cap : int;
    rb_seq : int array;
    rb_ts : int array;
    rb_tag : int array;
    rb_a : int array;  (* first int field — the pid for every tag but Deadlock *)
    rb_b : int array;
    rb_c : int array;
    rb_d : int array;
    rb_e : int array;
    rb_str : string array;  (* kind/resource/fault/name, when the tag has one *)
    rb_box : Event.t array;  (* Spawn_batch / Cancel, stored whole *)
    mutable rb_n : int;  (* events ever stored; head = rb_n mod rb_cap *)
    mutable rb_head : int;  (* next store index, kept = rb_n mod rb_cap *)
    rb_flight : (string -> unit) option;
    mutable rb_dumps : int;
  }

  let ring_dummy = Event.Deadlock { parked = 0 }

  let ring ?(capacity = 4096) ?flight () =
    if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
    {
      rb_cap = capacity;
      rb_seq = Array.make capacity 0;
      rb_ts = Array.make capacity 0;
      rb_tag = Array.make capacity 0;
      rb_a = Array.make capacity 0;
      rb_b = Array.make capacity 0;
      rb_c = Array.make capacity 0;
      rb_d = Array.make capacity 0;
      rb_e = Array.make capacity 0;
      rb_str = Array.make capacity "";
      rb_box = Array.make capacity ring_dummy;
      rb_n = 0;
      rb_head = 0;
      rb_flight = flight;
      rb_dumps = 0;
    }

  let ring_store r ~seq ~ts ev =
    let i = r.rb_head in
    r.rb_seq.(i) <- seq;
    r.rb_ts.(i) <- ts;
    (match ev with
    | Event.Slice_begin { pid } ->
        r.rb_tag.(i) <- 0;
        r.rb_a.(i) <- pid
    | Event.Slice_end { pid; fuel } ->
        r.rb_tag.(i) <- 1;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- fuel
    | Event.Spawn { pid; parent; kind } ->
        r.rb_tag.(i) <- 2;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- parent;
        r.rb_str.(i) <- kind
    | Event.Exit { pid } ->
        r.rb_tag.(i) <- 3;
        r.rb_a.(i) <- pid
    | Event.Park { pid; resource } ->
        r.rb_tag.(i) <- 4;
        r.rb_a.(i) <- pid;
        r.rb_str.(i) <- resource
    | Event.Wake { pid; resource } ->
        r.rb_tag.(i) <- 5;
        r.rb_a.(i) <- pid;
        r.rb_str.(i) <- resource
    | Event.Capture { pid; label; root_pid; control_points; size } ->
        r.rb_tag.(i) <- 6;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- label;
        r.rb_c.(i) <- root_pid;
        r.rb_d.(i) <- control_points;
        r.rb_e.(i) <- size
    | Event.Reinstate { pid; label; size } ->
        r.rb_tag.(i) <- 7;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- label;
        r.rb_c.(i) <- size
    | Event.Send { pid; chan } ->
        r.rb_tag.(i) <- 8;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- chan
    | Event.Recv { pid; chan } ->
        r.rb_tag.(i) <- 9;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- chan
    | Event.Timeout { pid; deadline } ->
        r.rb_tag.(i) <- 10;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- deadline
    | Event.Crash { pid; fault } ->
        r.rb_tag.(i) <- 11;
        r.rb_a.(i) <- pid;
        r.rb_str.(i) <- fault
    | Event.Restart { pid; child; attempt; backoff; limit } ->
        r.rb_tag.(i) <- 12;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- child;
        r.rb_c.(i) <- attempt;
        r.rb_d.(i) <- backoff;
        r.rb_e.(i) <- limit
    | Event.Invalid_controller { pid; label } ->
        r.rb_tag.(i) <- 13;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- label
    | Event.Deadlock { parked } ->
        r.rb_tag.(i) <- 14;
        r.rb_a.(i) <- parked
    | Event.Span_begin { pid; span; parent; name } ->
        r.rb_tag.(i) <- 15;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- span;
        r.rb_c.(i) <- parent;
        r.rb_str.(i) <- name
    | Event.Span_end { pid; span } ->
        r.rb_tag.(i) <- 16;
        r.rb_a.(i) <- pid;
        r.rb_b.(i) <- span
    | (Event.Spawn_batch _ | Event.Cancel _) as boxed ->
        r.rb_tag.(i) <- 17;
        r.rb_box.(i) <- boxed);
    r.rb_head <- (if i + 1 = r.rb_cap then 0 else i + 1);
    r.rb_n <- r.rb_n + 1

  let ring_decode r i =
    match r.rb_tag.(i) with
    | 0 -> Event.Slice_begin { pid = r.rb_a.(i) }
    | 1 -> Event.Slice_end { pid = r.rb_a.(i); fuel = r.rb_b.(i) }
    | 2 ->
        Event.Spawn { pid = r.rb_a.(i); parent = r.rb_b.(i); kind = r.rb_str.(i) }
    | 3 -> Event.Exit { pid = r.rb_a.(i) }
    | 4 -> Event.Park { pid = r.rb_a.(i); resource = r.rb_str.(i) }
    | 5 -> Event.Wake { pid = r.rb_a.(i); resource = r.rb_str.(i) }
    | 6 ->
        Event.Capture
          {
            pid = r.rb_a.(i);
            label = r.rb_b.(i);
            root_pid = r.rb_c.(i);
            control_points = r.rb_d.(i);
            size = r.rb_e.(i);
          }
    | 7 ->
        Event.Reinstate { pid = r.rb_a.(i); label = r.rb_b.(i); size = r.rb_c.(i) }
    | 8 -> Event.Send { pid = r.rb_a.(i); chan = r.rb_b.(i) }
    | 9 -> Event.Recv { pid = r.rb_a.(i); chan = r.rb_b.(i) }
    | 10 -> Event.Timeout { pid = r.rb_a.(i); deadline = r.rb_b.(i) }
    | 11 -> Event.Crash { pid = r.rb_a.(i); fault = r.rb_str.(i) }
    | 12 ->
        Event.Restart
          {
            pid = r.rb_a.(i);
            child = r.rb_b.(i);
            attempt = r.rb_c.(i);
            backoff = r.rb_d.(i);
            limit = r.rb_e.(i);
          }
    | 13 -> Event.Invalid_controller { pid = r.rb_a.(i); label = r.rb_b.(i) }
    | 14 -> Event.Deadlock { parked = r.rb_a.(i) }
    | 15 ->
        Event.Span_begin
          {
            pid = r.rb_a.(i);
            span = r.rb_b.(i);
            parent = r.rb_c.(i);
            name = r.rb_str.(i);
          }
    | 16 -> Event.Span_end { pid = r.rb_a.(i); span = r.rb_b.(i) }
    | _ -> r.rb_box.(i)

  let ring_stored r = if r.rb_n < r.rb_cap then r.rb_n else r.rb_cap

  let ring_dropped r = if r.rb_n > r.rb_cap then r.rb_n - r.rb_cap else 0

  let ring_iter r f =
    let len = ring_stored r in
    let start = r.rb_n - len in
    for k = 0 to len - 1 do
      let i = (start + k) mod r.rb_cap in
      f ~seq:r.rb_seq.(i) ~ts:r.rb_ts.(i) (ring_decode r i)
    done

  let ring_dump r write =
    ring_iter r (fun ~seq ~ts ev ->
        write (Json.to_string (Event.to_json ~seq ~ts ev) ^ "\n"))

  let ring_flight_dump r =
    match r.rb_flight with
    | None -> ()
    | Some flight ->
        let buf = Buffer.create 4096 in
        ring_dump r (Buffer.add_string buf);
        r.rb_dumps <- r.rb_dumps + 1;
        flight (Buffer.contents buf)

  let ring_dumps r = r.rb_dumps

  let ring_sink r =
    {
      sink_event =
        (fun ~seq ~ts ev ->
          ring_store r ~seq ~ts ev;
          match ev with
          | Event.Deadlock _ | Event.Crash _ -> ring_flight_dump r
          | _ -> ());
      sink_close = (fun () -> ());
    }

  (* ---- deterministic head sampling ------------------------------- *)

  (* Per-fiber head sampling: the keep/drop decision is made once per
     pid, from a splitmix hash of (seed, pid) — a PRNG stream derived
     from the run seed but independent of the scheduler's own draws, so
     attaching a sampler can never perturb scheduling, and the sampled
     trace is byte-identical for a given seed + rate on either
     scheduler.  Structural events (spawn/exit/capture/cancel/...)
     always pass so the process tree stays reconstructable; per-fiber
     detail (slices, parks, wakes, sends, recvs, spans) passes only for
     sampled fibers.  Original seq stamps are kept: gaps tell the
     consumer exactly what sampling dropped. *)
  let sampled ~seed ~rate inner =
    let rate = if rate < 0. then 0. else if rate > 1. then 1. else rate in
    let threshold = int_of_float (rate *. 1073741824.) in
    let decided = Hashtbl.create 64 in
    let keep pid =
      if pid < 0 then true
      else
        match Hashtbl.find_opt decided pid with
        | Some b -> b
        | None ->
            let h =
              Int64.add seed
                (Int64.mul (Int64.of_int (pid + 1)) 0x9E3779B97F4A7C15L)
            in
            let h = Int64.logxor h (Int64.shift_right_logical h 30) in
            let h = Int64.mul h 0xBF58476D1CE4E5B9L in
            let h = Int64.logxor h (Int64.shift_right_logical h 27) in
            let h = Int64.mul h 0x94D049BB133111EBL in
            let h = Int64.logxor h (Int64.shift_right_logical h 31) in
            let b = Int64.to_int (Int64.logand h 0x3FFFFFFFL) < threshold in
            Hashtbl.add decided pid b;
            b
    in
    {
      sink_event =
        (fun ~seq ~ts ev ->
          let forward =
            match ev with
            | Event.Slice_begin { pid }
            | Event.Slice_end { pid; _ }
            | Event.Park { pid; _ }
            | Event.Wake { pid; _ }
            | Event.Send { pid; _ }
            | Event.Recv { pid; _ }
            | Event.Span_begin { pid; _ }
            | Event.Span_end { pid; _ } ->
                keep pid
            | _ -> true
          in
          if forward then inner.sink_event ~seq ~ts ev);
      sink_close = inner.sink_close;
    }
end
