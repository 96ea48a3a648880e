(* Tests of the benchmark's own machinery: the order statistics its
   metrics and acceptance spreads are built on, the answer checker, a
   short wire run showing that a corrupted expected count fails the
   run, and the churn replay check. Run with [dune test perfbench]. *)

open Perfbench
module H = Harness

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_order_statistics () =
  check "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let q xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    close q1 a && close q2 b && close q3 c
  in
  check "quartiles 1..5" (q [ 1.; 2.; 3.; 4.; 5. ] (1.5, 3.0, 4.5));
  check "quartiles 1..10" (q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25));
  check "quartiles two values" (q [ 3.5; 1.25 ] (0.6875, 2.375, 4.0625));
  check "quartiles unsorted" (q [ 0.9; 0.7; 0.8; 1.0; 1.1; 0.6; 1.2 ] (0.7, 0.9, 1.1));
  check "quartiles need two values"
    (match Stats.quartiles [ 1. ] with _ -> false | exception Invalid_argument _ -> true)

let test_nearest_rank () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let r = Stats.nearest_rank 95 hundred in
  check "p95 of 1..100" (close r.Stats.value 95. && r.Stats.rank = 95 && r.Stats.beyond = 5);
  let r = Stats.nearest_rank 96 (Array.sub hundred 0 20) in
  check "p96 of 20 samples is the max" (r.Stats.rank = 20 && r.Stats.beyond = 0);
  let r = Stats.nearest_rank 50 [| 1.; 2.; 3.; 4. |] in
  check "p50 of 4 samples" (close r.Stats.value 2. && r.Stats.beyond = 2);
  let r = Stats.nearest_rank 90 (Array.init 250 float_of_int) in
  check "p90 of 250 leaves 25 beyond" (r.Stats.rank = 225 && r.Stats.beyond = 25);
  let r = Stats.nearest_rank 100 [| 7. |] in
  check "p100 of one sample" (close r.Stats.value 7. && r.Stats.beyond = 0)

let test_checker () =
  let c = Stats.checker () in
  let a = Stats.answer_of ~count:2 ~text:"p1\np2\n" in
  Stats.expect c "q" a;
  check "right answer passes" (Stats.verify c "q" (Ok a));
  check "wrong count fails" (not (Stats.verify c "q" (Ok { a with Stats.count = 3 })));
  check "wrong text fails"
    (not (Stats.verify c "q" (Ok (Stats.answer_of ~count:2 ~text:"p1\np3\n"))));
  check "error reply fails" (not (Stats.verify c "q" (Error "boom")));
  check "unknown query fails" (not (Stats.verify c "other" (Ok a)));
  check "tallies" (Stats.checked c = 5 && Stats.failed c = 4);
  check "failures kept" (List.length (Stats.failures c) = 4)

(* A short run of the virt-read machinery on a reduced topology: clean
   with the true expected answers, failing once one expected count is
   off by one. *)
let short_run ~corrupt =
  let spec =
    {
      (H.spec_of ~nproc:2 H.Virt_read) with
      H.per_family = [ ("top-down", 2); ("bottom-up", 1) ];
      virt_scale = Some (6, 12);
    }
  in
  let checker = Stats.checker () in
  let items = H.select_items spec (H.build_topology spec) ~expect:(Stats.expect checker) in
  if corrupt then begin
    let q = items.(0).H.text in
    let a = Option.get (Stats.expected checker q) in
    Stats.expect checker q { a with Stats.count = a.Stats.count + 1 }
  end;
  let env = H.setup spec ~checker ~items in
  let m = H.run_measured env ~items ~checker ~churn:None ~seconds:0.2 ~seed:1 in
  H.teardown env;
  (Array.length items, m, Stats.failed checker)

let test_corrupted_expectation () =
  let n, m, failed = short_run ~corrupt:false in
  check "clean run has no failures" (failed = 0);
  check "clean run answers everything" (List.length m.H.samples = m.H.attempted);
  check "whole passes only" (m.H.mix_ok && m.H.attempted mod n = 0);
  let _, m, failed = short_run ~corrupt:true in
  check "corrupted expectation fails the run" (failed > 0);
  check "wrong answers are not latency samples" (List.length m.H.samples < m.H.attempted)

(* A short churn run: the replay of the same seed must confirm every
   version-dependent read, and must reject one whose logged count was
   tampered with. *)
let test_churn_replay () =
  let spec =
    {
      (H.spec_of ~nproc:2 H.Virt_churn) with
      H.per_family = [ ("top-down", 2); ("bottom-up", 2) ];
      reads_per_write = 2;
      virt_scale = Some (6, 12);
    }
  in
  let checker = Stats.checker () in
  let items = H.select_items spec (H.build_topology spec) ~expect:(Stats.expect checker) in
  let env = H.setup spec ~checker ~items in
  let ch = H.new_churn env.H.topo ~seed:3 ~every:spec.H.reads_per_write in
  let m = H.run_measured env ~items ~checker ~churn:(Some ch) ~seconds:0.2 ~seed:3 in
  H.teardown env;
  check "churn run writes" (m.H.writes > 0 && ch.H.c_log <> []);
  H.replay_check spec ~seed:3 ~checker ch;
  check "replay confirms every churn read" (Stats.failed checker = 0);
  (match ch.H.c_log with
  | (v, q, a) :: rest -> ch.H.c_log <- (v, q, { a with Stats.count = a.Stats.count + 1 }) :: rest
  | [] -> ());
  H.replay_check spec ~seed:3 ~checker ch;
  check "replay rejects a wrong churn read" (Stats.failed checker = 1)

let () =
  test_order_statistics ();
  test_nearest_rank ();
  test_checker ();
  test_corrupted_expectation ();
  test_churn_replay ();
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
