(* Tests for the utility substrate: ids, PRNG, counters. *)

module Id = Pcont_util.Id
module Xorshift = Pcont_util.Xorshift
module Counters = Pcont_util.Counters

let test_id_sequence () =
  let g = Id.create () in
  Alcotest.(check int) "first" 0 (Id.fresh g);
  Alcotest.(check int) "second" 1 (Id.fresh g);
  Alcotest.(check int) "third" 2 (Id.fresh g);
  Alcotest.(check int) "count" 3 (Id.count g)

let test_id_independent () =
  let g1 = Id.create () and g2 = Id.create () in
  ignore (Id.fresh g1);
  ignore (Id.fresh g1);
  Alcotest.(check int) "g2 unaffected" 0 (Id.fresh g2)

let test_id_fresh_above () =
  let g = Id.create () in
  let a = Id.fresh_above g 10 in
  Alcotest.(check bool) "above 10" true (a > 10);
  let b = Id.fresh g in
  Alcotest.(check bool) "monotone" true (b > a);
  let c = Id.fresh_above g 0 in
  Alcotest.(check bool) "never goes back" true (c > b)

let test_xorshift_determinism () =
  let a = Xorshift.create 42L and b = Xorshift.create 42L in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Xorshift.next a) (Xorshift.next b)
  done

let test_xorshift_seed_sensitivity () =
  let a = Xorshift.create 1L and b = Xorshift.create 2L in
  Alcotest.(check bool) "different seeds differ" true
    (Xorshift.next a <> Xorshift.next b)

let prop_xorshift_bounds =
  QCheck.Test.make ~name:"xorshift int in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let g = Xorshift.create (Int64.of_int seed) in
      let v = Xorshift.int g bound in
      v >= 0 && v < bound)

let prop_xorshift_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair (list int) small_int)
    (fun (xs, seed) ->
      let a = Array.of_list xs in
      Xorshift.shuffle (Xorshift.create (Int64.of_int seed)) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_xorshift_split () =
  let g = Xorshift.create 7L in
  let h = Xorshift.split g in
  (* The split stream differs from the parent's continuation. *)
  Alcotest.(check bool) "independent" true (Xorshift.next h <> Xorshift.next g)

let test_counters_basic () =
  let c = Counters.create () in
  Counters.incr c "a";
  Counters.incr c "a";
  Counters.add c "b" 5;
  Alcotest.(check int) "a" 2 (Counters.get c "a");
  Alcotest.(check int) "b" 5 (Counters.get c "b");
  Alcotest.(check int) "absent" 0 (Counters.get c "zzz")

let test_counters_reset () =
  let c = Counters.create () in
  Counters.add c "x" 3;
  Counters.reset c;
  Alcotest.(check int) "reset to zero" 0 (Counters.get c "x")

let test_counters_to_list_sorted () =
  let c = Counters.create () in
  Counters.incr c "zeta";
  Counters.incr c "alpha";
  Counters.incr c "mid";
  Alcotest.(check (list string)) "sorted names"
    [ "alpha"; "mid"; "zeta" ]
    (List.map fst (Counters.to_list c))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "util"
    [
      ( "id",
        [
          Alcotest.test_case "sequence" `Quick test_id_sequence;
          Alcotest.test_case "independent generators" `Quick test_id_independent;
          Alcotest.test_case "fresh_above" `Quick test_id_fresh_above;
        ] );
      ( "xorshift",
        [
          Alcotest.test_case "determinism" `Quick test_xorshift_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_xorshift_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_xorshift_split;
        ]
        @ qsuite [ prop_xorshift_bounds; prop_xorshift_shuffle_permutes ] );
      ( "counters",
        [
          Alcotest.test_case "incr/add/get" `Quick test_counters_basic;
          Alcotest.test_case "reset" `Quick test_counters_reset;
          Alcotest.test_case "to_list sorted" `Quick test_counters_to_list_sorted;
        ] );
    ]
