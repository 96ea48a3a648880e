(* The engine against the reference evaluator (test/reference.ml):
   regression cases for time-range validity, and a fixed-seed property
   over random RPEs on a store whose history rewrites the field the
   RPEs' predicates test. Every comparison runs the engine on the
   native store and on the relational and Gremlin mirrors, and compares
   pathways with their validity sets. *)

module Nepal = Core.Nepal
module Schema = Nepal.Schema
module Value = Nepal.Value
module Time_constraint = Nepal.Time_constraint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e
let tp = Nepal.Time_point.of_string_exn
let fields l = Nepal.Strmap.of_list l

let schema () =
  Schema.create_exn
    [
      Schema.class_decl "A" ~parent:"Node"
        ~fields:[ ("id", Nepal.Ftype.T_int); ("x", Nepal.Ftype.T_int) ];
      Schema.class_decl "B" ~parent:"Node"
        ~fields:[ ("id", Nepal.Ftype.T_int); ("y", Nepal.Ftype.T_int) ];
      Schema.class_decl "C" ~parent:"Node" ~fields:[ ("id", Nepal.Ftype.T_int) ];
      Schema.class_decl "E" ~parent:"Edge" ~fields:[ ("w", Nepal.Ftype.T_int) ];
      Schema.class_decl "F" ~parent:"Edge" ~fields:[ ("w", Nepal.Ftype.T_int) ];
    ]

let conns db =
  [
    ("native", Nepal.conn db);
    ("relational", Nepal.relational_conn (ok (Nepal.to_relational db)));
    ("gremlin", Nepal.gremlin_conn (ok (Nepal.to_gremlin db)));
  ]

(* The engine's answer on every backend, checked equal to the
   reference's; returns the reference's pathways with their validity. *)
let agree db ~tc rpe =
  let norm =
    ok (Nepal.Rpe.validate (Nepal.schema db) (Nepal.Rpe_parser.parse_exn rpe))
  in
  let found = Reference.find (Nepal.store db) ~tc norm in
  let want = Reference.canon found in
  let q = Reference.query_text tc rpe in
  List.iter
    (fun (name, conn) ->
      let got = Reference.of_result (ok (Nepal.query_on conn q)) in
      if got <> want then
        Alcotest.failf "%s: %s\nengine:\n%s\nreference:\n%s" name q
          (Reference.show got) (Reference.show want))
    (conns db);
  found

let multi_interval found =
  List.exists
    (fun (_, v) ->
      match v with
      | Some v -> Nepal.Interval_set.cardinality v > 1
      | None -> false)
    found

(* ---------------- time-range validity regressions ---------------- *)

let t0 = tp "2017-02-01 00:00:00"
let t1 = tp "2017-02-05 00:00:00"
let window = Time_constraint.Range (t0, tp "2017-02-15 00:00:00")

(* A#1 has x=1, then x=2 from t1; B#2 has y=2, then y=1 from t1; an E
   edge A -> B. *)
let two_phase () =
  let db = Nepal.create (schema ()) in
  let a =
    ok (Nepal.insert_node db ~at:t0 ~cls:"A" ~fields:(fields [ ("x", Value.Int 1) ]))
  in
  let b =
    ok (Nepal.insert_node db ~at:t0 ~cls:"B" ~fields:(fields [ ("y", Value.Int 2) ]))
  in
  ignore (ok (Nepal.insert_edge db ~at:t0 ~cls:"E" ~src:a ~dst:b ~fields:(fields [])));
  ok (Nepal.update db ~at:t1 a ~fields:(fields [ ("x", Value.Int 2) ]));
  ok (Nepal.update db ~at:t1 b ~fields:(fields [ ("y", Value.Int 1) ]));
  (db, a)

let since_t0 =
  Reference.render_valid
    (Some (Nepal.Interval_set.singleton (Nepal.Interval.from t0)))

(* Each branch holds on one side of t1; the pathway holds whenever
   either does, whatever the order of the branches. *)
let test_alternation_order () =
  let db, _ = two_phase () in
  let first = "(A(x=1)->E()->B(y=2))|(A(x=2)->E()->B(y=1))" in
  let commuted = "(A(x=2)->E()->B(y=1))|(A(x=1)->E()->B(y=2))" in
  List.iter
    (fun rpe ->
      match agree db ~tc:window rpe with
      | [ (_, valid) ] ->
          Alcotest.(check string) (rpe ^ " validity") since_t0
            (Reference.render_valid valid)
      | l -> Alcotest.failf "%s: expected one pathway, got %d" rpe (List.length l))
    [ first; commuted ]

(* C -> A -> B where the A and B tests come from different branches at
   every instant: no run matches, so no pathway may come back — not
   one combining presence across the branches. *)
let test_no_cross_run_presence () =
  let db, a = two_phase () in
  let c =
    ok (Nepal.insert_node db ~at:t1 ~cls:"C" ~fields:(fields [ ("id", Value.Int 7) ]))
  in
  ignore (ok (Nepal.insert_edge db ~at:t1 ~cls:"E" ~src:c ~dst:a ~fields:(fields [])));
  List.iter
    (fun rpe -> check_int rpe 0 (List.length (agree db ~tc:window rpe)))
    [
      "C(id=7)->E()->((A(x=1)->E()->B(y=1))|(A(x=2)->E()->B(y=2)))";
      "C(id=7)->E()->A(x=1)->E()->B(y=1)";
      "C(id=7)->E()->A(x=2)->E()->B(y=2)";
      "(C(id=7)->E()->A(x=1)->E()->B(y=1))|(C(id=7)->E()->A(x=2)->E()->B(y=2))";
    ];
  (* The matching combinations do hold, each on its own side of t1. *)
  check_int "matching branches" 1
    (List.length
       (agree db ~tc:window
          "C(id=7)->E()->((A(x=1)->E()->B(y=2))|(A(x=2)->E()->B(y=1)))"))

(* ---------------- random RPEs over a churning store ---------------- *)

let n_nodes = 8

(* Nodes A/B with ids 0..7 and a random x (y on B), random E/F edges,
   then a 20-day history that rewrites x and y, re-weights and retires
   edges, and adds new ones. [w_rewrites] more random live edges are
   re-weighted each day. *)
let churn_store ?(w_rewrites = 0) seed =
  let rng = Nepal.Prng.create seed in
  let db = Nepal.create (schema ()) in
  let day d = tp (Printf.sprintf "2017-02-%02d 00:00:00" (d + 1)) in
  let nodes =
    Array.init n_nodes (fun i ->
        let cls, f = if i mod 2 = 0 then ("A", "x") else ("B", "y") in
        ok
          (Nepal.insert_node db ~at:(day 0) ~cls
             ~fields:
               (fields
                  [ ("id", Value.Int i); (f, Value.Int (Nepal.Prng.int rng 3)) ])))
  in
  let edges = ref [] in
  let add_edge at =
    let src = Nepal.Prng.int rng n_nodes in
    let dst = (src + 1 + Nepal.Prng.int rng (n_nodes - 1)) mod n_nodes in
    let cls = if Nepal.Prng.bool rng then "E" else "F" in
    edges :=
      ok
        (Nepal.insert_edge db ~at ~cls ~src:nodes.(src) ~dst:nodes.(dst)
           ~fields:(fields [ ("w", Value.Int (Nepal.Prng.int rng 2)) ]))
      :: !edges
  in
  for _ = 1 to 12 do add_edge (day 0) done;
  for d = 1 to 20 do
    let i = Nepal.Prng.int rng n_nodes in
    let f = if i mod 2 = 0 then "x" else "y" in
    ok
      (Nepal.update db ~at:(day d) nodes.(i)
         ~fields:(fields [ (f, Value.Int (Nepal.Prng.int rng 3)) ]));
    (match Nepal.Prng.int rng 4 with
    | 0 -> add_edge (day d)
    | 1 -> (
        match !edges with
        | e :: rest ->
            edges := rest;
            ok (Nepal.delete db ~at:(day d) e)
        | [] -> ())
    | 2 -> (
        match !edges with
        | e :: _ ->
            ok
              (Nepal.update db ~at:(day d) e
                 ~fields:(fields [ ("w", Value.Int (Nepal.Prng.int rng 2)) ]))
        | [] -> ())
    | _ -> ());
    for j = 1 to w_rewrites do
      match !edges with
      | [] -> ()
      | l ->
          ok
            (Nepal.update db
               ~at:(Nepal.Time_point.add_seconds (day d) (float_of_int (3600 * j)))
               (List.nth l (Nepal.Prng.int rng (List.length l)))
               ~fields:(fields [ ("w", Value.Int (Nepal.Prng.int rng 2)) ]))
    done
  done;
  db

let churn = lazy (churn_store 2017)
let w_churn = lazy (churn_store ~w_rewrites:20 2017)

(* RPE text over the churn schema: sequences, alternations and {m,n}
   repetitions of node and edge atoms, with predicates on the rewritten
   fields. Always starts with an id-pinned node, so it is anchored. *)
let gen_rpe =
  let open QCheck.Gen in
  let atom =
    oneofl
      [
        "A()"; "B()"; "Node()"; "A(x=1)"; "A(x=0)"; "B(y=2)"; "B(y<2)"; "E()";
        "F()"; "Edge()"; "E(w=1)"; "F(w=0)";
      ]
  in
  let rec rpe depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          ( 2,
            map2 (fun a b -> a ^ "->" ^ b) (rpe (depth - 1)) (rpe (depth - 1)) );
          ( 2,
            map2 (fun a b -> "(" ^ a ^ "|" ^ b ^ ")") (rpe (depth - 1))
              (rpe (depth - 1)) );
          ( 2,
            map3
              (fun r m k -> Printf.sprintf "[%s]{%d,%d}" r m (max m 1 + k))
              (rpe (depth - 1)) (int_bound 2) (int_bound 1) );
        ]
  in
  map2
    (fun id r -> Printf.sprintf "A(id=%d)->%s" (2 * id) r)
    (int_bound ((n_nodes / 2) - 1))
    (rpe 2)

(* The property on [churn] and on [w_churn], under Snapshot, AT and two
   Range windows: on the first store edge validity rarely splits, since
   only the newest edge is re-weighted; on the second twenty random
   live edges are re-weighted a day. Enough answers are non-empty, and
   enough Range answers multi-interval, that the property cannot hold
   vacuously. *)
let test_random_rpes () =
  let nonempty = ref 0 and multi = ref 0 in
  let tcs =
    [
      Time_constraint.Snapshot;
      Time_constraint.At (tp "2017-02-09 12:00:00");
      Time_constraint.Range (tp "2017-02-04 00:00:00", tp "2017-02-12 00:00:00");
      Time_constraint.Range (tp "2017-02-01 00:00:00", tp "2017-02-21 00:00:00");
    ]
  in
  List.iter
    (fun db ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |])
        (QCheck.Test.make ~name:"random RPEs: engine = reference" ~count:200
           (QCheck.make ~print:Fun.id gen_rpe)
           (fun rpe ->
             List.iter
               (fun tc ->
                 let found = agree (Lazy.force db) ~tc rpe in
                 if found <> [] then incr nonempty;
                 if multi_interval found then incr multi)
               tcs;
             true)))
    [ churn; w_churn ];
  if !nonempty < 700 || !multi < 60 then
    Alcotest.failf "vacuous: %d non-empty and %d multi-interval answers" !nonempty
      !multi

(* The property must exercise the interesting cases, not just empty
   answers: a fixed probe with a rewritten-field predicate finds
   pathways under Range. *)
let test_churn_nonempty () =
  let db = Lazy.force churn in
  let n =
    List.length
      (agree db
         ~tc:(Time_constraint.Range (tp "2017-02-01 00:00:00", tp "2017-02-21 00:00:00"))
         "Node()->[Edge()]{1,3}->B(y<2)")
  in
  check_bool "range probe finds pathways" true (n > 0)

(* ---------------- forced meet-in-the-middle ---------------- *)

(* Pair RPEs between two id-pinned endpoints (one in six also tests the
   rewritten field) whose repetition body is an alternation of edge
   atoms: the shape [Planner.bidi_of] decomposes.
   With bodies like [E(w=1)|E(w=0)] one rewritten edge matches two body
   atoms whose presence differs, so the two halves may consume the
   meeting edge under different atoms. *)
let gen_pair_rpe =
  let open QCheck.Gen in
  let endpoint =
    map2
      (fun i v ->
        let cls, f = if i mod 2 = 0 then ("A", "x") else ("B", "y") in
        if v = 0 then Printf.sprintf "%s(id=%d,%s=0)" cls i f
        else Printf.sprintf "%s(id=%d)" cls i)
      (int_bound (n_nodes - 1)) (int_bound 5)
  in
  let body =
    oneof
      [
        oneofl [ "E(w=1)|E(w=0)"; "E(w=1)|F(w=0)|E()"; "F(w=1)|F(w=0)" ];
        map (String.concat "|")
          (list_size (int_range 1 3)
             (oneofl [ "E()"; "F()"; "E(w=1)"; "E(w=0)"; "F(w=0)"; "F(w=1)" ]));
      ]
  in
  map3
    (fun l (b, k) r -> Printf.sprintf "%s->[%s]{1,%d}->%s" l b k r)
    endpoint (pair body (int_range 2 4)) endpoint

(* Forced [Bidi] on every backend equals the reference, validity
   included, under Snapshot and two Range windows over a store that
   re-weights edges every day; enough answers are non-empty and
   multi-interval that the property cannot hold vacuously. *)
let test_forced_bidi () =
  let db = Lazy.force w_churn in
  let schema = Nepal.schema db in
  let conns = conns db in
  let prune = Nepal.Analysis.pruner schema in
  let nonempty = ref 0 and multi = ref 0 in
  let tcs =
    [
      Time_constraint.Snapshot;
      Time_constraint.Range (tp "2017-02-01 00:00:00", tp "2017-02-21 00:00:00");
      Time_constraint.Range (tp "2017-02-06 00:00:00", tp "2017-02-13 00:00:00");
    ]
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 24 |])
    (QCheck.Test.make ~name:"forced bidi = reference" ~count:150
       (QCheck.make ~print:Fun.id gen_pair_rpe)
       (fun rpe ->
         let norm = ok (Nepal.Rpe.validate schema (Nepal.Rpe_parser.parse_exn rpe)) in
         let bp =
           match Nepal.Planner.bidi_of schema norm with
           | Some bp -> bp
           | None -> QCheck.Test.fail_reportf "%s: no bidirectional plan" rpe
         in
         List.iter
           (fun tc ->
             let found = Reference.find (Nepal.store db) ~tc norm in
             let want = Reference.canon found in
             List.iter
               (fun (name, conn) ->
                 let got =
                   Reference.of_paths
                     (ok
                        (Nepal.Eval_rpe.find conn ~tc ~prune
                           ~strategy:(Nepal.Eval_rpe.Bidi bp) norm))
                 in
                 if got <> want then
                   QCheck.Test.fail_reportf "%s: %s\nbidi:\n%s\nreference:\n%s"
                     name (Reference.query_text tc rpe) (Reference.show got)
                     (Reference.show want);
                 if found <> [] then incr nonempty;
                 if multi_interval found then incr multi)
               conns)
           tcs;
         true));
  if !nonempty < 400 || !multi < 100 then
    Alcotest.failf "vacuous: %d non-empty and %d multi-interval answers" !nonempty
      !multi

let () =
  Alcotest.run "nepal_reference"
    [
      ( "range validity",
        [
          Alcotest.test_case "union over alternation order" `Quick
            test_alternation_order;
          Alcotest.test_case "no presence across runs" `Quick
            test_no_cross_run_presence;
        ] );
      ( "random",
        [
          Alcotest.test_case "churn probe finds pathways" `Quick
            test_churn_nonempty;
          Alcotest.test_case "random RPEs: engine = reference" `Quick
            test_random_rpes;
          Alcotest.test_case "forced bidi = reference" `Quick test_forced_bidi;
        ] );
    ]
