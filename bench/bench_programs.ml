(* The Scheme programs behind bench's counter columns (E1, E2, E9) and
   the E15 overhead sweep.  test_pstack runs the same sources once and
   pins their counts exactly, so the columns cannot drift unnoticed. *)

let repeat_defs =
  {|
(define (repeat n thunk)
  (if (zero? n) 0 (begin (thunk) (repeat (- n 1) thunk))))
(define (deep n thunk)
  (if (zero? n) (thunk) (+ 1 (deep (- n 1) thunk))))
|}

(* E1's capture: abort to the root through its controller and resume. *)
let capture = "(c (lambda (k) (k 0)))"

(* E1: one spawn root over [frames] pending (+ 1 _) frames, running
   [body] [k] times ([capture], or "0" for the capture-free baseline). *)
let frames_src ~frames ~k body =
  Printf.sprintf "(spawn (lambda (c) (deep %d (lambda () (repeat %d (lambda () %s))))))"
    frames k body

(* E2: [roots] nested spawn roots; the innermost body captures through
   the outermost controller and resumes, [k] times. *)
let nested_roots_src ~roots ~k =
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

(* E9/E15: sum lo..hi with a pcall tree; below [grain] leaves a branch
   sums sequentially, so a small grain means many forks. *)
let tsum_defs =
  {|
(define (tsum lo hi grain)
  (if (<= (- hi lo) grain)
      (let loop ([i lo] [acc 0])
        (if (> i hi) acc (loop (+ i 1) (+ acc i))))
      (let ([mid (quotient (+ lo hi) 2)])
        (pcall + (tsum lo mid grain) (tsum (+ mid 1) hi grain)))))
|}
