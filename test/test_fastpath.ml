(* The RPE fast path: time-range validity from the versions the Select
   and Extend rows bring, frontier-level dedup inside walks, and
   Domain-parallel anchor walks. These tests pin down that a range
   query costs one round-trip per operator whatever the connection has
   seen, agreement with the reference evaluator (test/reference.ml),
   and that the domain count never changes result sets. *)

open Nepal_schema
open Nepal_temporal
module Store = Nepal_store.Graph_store
module Rpe = Nepal_rpe.Rpe
module Rpe_parser = Nepal_rpe.Rpe_parser
module Q = Nepal_query
module Nepal = Core.Nepal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tp = Time_point.of_string_exn
let t0 = tp "2017-02-01 00:00:00"
let t1 = tp "2017-02-05 00:00:00"
let t3 = tp "2017-02-15 00:00:00"

let schema () =
  Schema.create_exn
    [
      Schema.class_decl "VNF" ~parent:"Node"
        ~fields:[ ("id", Ftype.T_int); ("name", Ftype.T_string) ];
      Schema.class_decl "VFC" ~parent:"Node" ~fields:[ ("id", Ftype.T_int) ];
      Schema.class_decl "VM" ~parent:"Node"
        ~fields:[ ("id", Ftype.T_int); ("status", Ftype.T_string) ];
      Schema.class_decl "Host" ~parent:"Node" ~fields:[ ("id", Ftype.T_int) ];
      Schema.class_decl "Switch" ~parent:"Node" ~fields:[ ("id", Ftype.T_int) ];
      Schema.class_decl "Vertical" ~parent:"Edge" ~abstract:true;
      Schema.class_decl "ComposedOf" ~parent:"Vertical";
      Schema.class_decl "HostedOn" ~parent:"Vertical";
      Schema.class_decl "Connects" ~parent:"Edge";
    ]

let fields l = Nepal_util.Strmap.of_list l
let i n = Value.Int n
let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

(* vnf{1,2} -> vfc{1,2} -> vm{1,2} -> host1; ring host1 - sw - host2. *)
let build () =
  let st = Store.create (schema ()) in
  let node cls fs = ok (Store.insert_node st ~at:t0 ~cls ~fields:(fields fs)) in
  let edge cls src dst =
    ok
      (Store.insert_edge st ~at:t0 ~cls ~src ~dst ~fields:Nepal_util.Strmap.empty)
  in
  let vnf1 = node "VNF" [ ("id", i 123); ("name", Value.Str "dns") ] in
  let vnf2 = node "VNF" [ ("id", i 234); ("name", Value.Str "fw") ] in
  let vfc1 = node "VFC" [ ("id", i 11) ] in
  let vfc2 = node "VFC" [ ("id", i 12) ] in
  let vm1 = node "VM" [ ("id", i 21); ("status", Value.Str "Green") ] in
  let vm2 = node "VM" [ ("id", i 22); ("status", Value.Str "Red") ] in
  let host1 = node "Host" [ ("id", i 23245) ] in
  let host2 = node "Host" [ ("id", i 34356) ] in
  let sw = node "Switch" [ ("id", i 900) ] in
  ignore (edge "ComposedOf" vnf1 vfc1);
  ignore (edge "ComposedOf" vnf2 vfc2);
  ignore (edge "HostedOn" vfc1 vm1);
  ignore (edge "HostedOn" vfc2 vm2);
  ignore (edge "HostedOn" vm1 host1);
  ignore (edge "HostedOn" vm2 host1);
  ignore (edge "Connects" host1 sw);
  ignore (edge "Connects" sw host1);
  ignore (edge "Connects" sw host2);
  ignore (edge "Connects" host2 sw);
  (st, vm1)

let parse st text =
  ok (Rpe.validate (Store.schema st) (Rpe_parser.parse_exn text))

let range = Time_constraint.Range (t0, t3)

let keys paths = List.map Q.Path.key paths
let check_keys = Alcotest.(check (list (list int)))

let queries =
  [
    "VNF()->[Vertical()]{1,6}->Host(id=23245)";
    "Host(id=23245)->[Connects()]{1,4}->Host(id=34356)";
    "VM()->HostedOn()->Host()";
    "VNF(id=123)->ComposedOf()->VFC()";
  ]

(* ---------------- range reads ---------------- *)

let test_same_paths_on_repeat () =
  let st, _ = build () in
  let conn = Q.Connect.native st in
  let rpe = parse st "VNF()->[Vertical()]{1,6}->Host(id=23245)" in
  let run () = ok (Q.Eval_rpe.find conn ~tc:range rpe) in
  let first = run () in
  check_bool "some pathways" true (first <> []);
  check_keys "same pathways on repeat" (keys first) (keys (run ()))

let test_update_keeps_old_version () =
  let st, vm1 = build () in
  let conn = Q.Connect.native st in
  let rpe = parse st "VM(status='Green')->HostedOn()->Host()" in
  let run () = ok (Q.Eval_rpe.find conn ~tc:range rpe) in
  let before = run () in
  check_int "one green VM path" 1 (List.length before);
  ok (Store.update st ~at:t1 vm1 ~fields:(fields [ ("status", Value.Str "Red") ]));
  (* Under Range the VM still qualifies: it was Green in [t0, t1). *)
  check_keys "range still sees the old version" (keys before) (keys (run ()))

let test_delete_matches_reference () =
  let st, vm1 = build () in
  let conn = Q.Connect.native st in
  let rpe = parse st "VM()->HostedOn()->Host()" in
  ignore (ok (Q.Eval_rpe.find conn ~tc:range rpe));
  ok (Store.delete st ~at:t1 ~cascade:true vm1);
  let got = ok (Q.Eval_rpe.find conn ~tc:range rpe) in
  let want = Reference.find_canon st ~tc:range rpe in
  let got = Reference.of_paths got in
  if got <> want then
    Alcotest.failf "after delete\nengine:\n%s\nreference:\n%s"
      (Reference.show got) (Reference.show want)

(* A Range find issues one backend read per Select and per Extend round
   and none per element: validity comes back with their rows. The rule
   holds on a fresh connection, on a warm one, and after a write. The
   Gremlin mirror has no write path, so it is checked cold and warm. *)
let test_range_roundtrips () =
  let backends =
    [
      ( "native",
        fun () ->
          let st, vm1 = build () in
          ( Q.Connect.native st,
            Some
              (fun () ->
                ok
                  (Store.update st ~at:t1 vm1
                     ~fields:(fields [ ("status", Value.Str "Red") ]))) ) );
      ( "relational",
        fun () ->
          let st, vm1 = build () in
          let rb = ok (Q.Relational_backend.create (Store.schema st)) in
          ok (Q.Relational_backend.mirror_store rb st);
          ( Q.Connect.relational rb,
            Some
              (fun () ->
                ok
                  (Q.Relational_backend.update rb ~at:t1 vm1
                     ~fields:(fields [ ("status", Value.Str "Red") ]))) ) );
      ( "gremlin",
        fun () ->
          let st, _ = build () in
          let gb = Q.Gremlin_backend.create (Store.schema st) in
          ok (Q.Gremlin_backend.mirror_store gb st);
          (Q.Connect.gremlin gb, None) );
    ]
  in
  List.iter
    (fun (name, setup) ->
      List.iter
        (fun text ->
          let conn, write = setup () in
          let rpe =
            ok
              (Rpe.validate (Q.Backend_intf.conn_schema conn)
                 (Rpe_parser.parse_exn text))
          in
          let check phase =
            let stats = Q.Eval_rpe.new_stats () in
            let rt0 = Q.Backend_intf.conn_roundtrips conn in
            ignore (ok (Q.Eval_rpe.find conn ~tc:range ~stats rpe));
            check_bool (Printf.sprintf "%s %s %s: a Select ran" name text phase) true
              (stats.Q.Eval_rpe.selects > 0);
            check_int
              (Printf.sprintf "%s %s %s: round-trips = selects + extends" name text
                 phase)
              (stats.Q.Eval_rpe.selects + stats.Q.Eval_rpe.extends)
              (Q.Backend_intf.conn_roundtrips conn - rt0)
          in
          check "cold";
          check "warm";
          Option.iter
            (fun write ->
              write ();
              check "after a write")
            write)
        queries)
    backends

(* ---------------- engine and mirrors = reference ---------------- *)

(* Every query, in snapshot, AT and range form, through the engine on
   the native store and on the relational and Gremlin mirrors: each
   returns the reference evaluator's pathways, validity sets
   included. *)
let test_matches_reference () =
  let st, _ = build () in
  let db = Nepal.of_store st in
  let conns =
    [
      ("native", Nepal.conn db);
      ("relational", Nepal.relational_conn (ok (Nepal.to_relational db)));
      ("gremlin", Nepal.gremlin_conn (ok (Nepal.to_gremlin db)));
    ]
  in
  List.iter
    (fun text ->
      let rpe = parse st text in
      List.iter
        (fun tc ->
          let want = Reference.find_canon st ~tc rpe in
          List.iter
            (fun (name, conn) ->
              let q = Reference.query_text tc text in
              let got = Reference.of_result (ok (Nepal.query_on conn q)) in
              if got <> want then
                Alcotest.failf "%s: %s\nengine:\n%s\nreference:\n%s" name q
                  (Reference.show got) (Reference.show want))
            conns)
        [ Time_constraint.snapshot; Time_constraint.At t1; range ])
    queries

(* ---------------- domain count does not change results ---------------- *)

let test_domain_count_determinism () =
  let st, _ = build () in
  let conn = Q.Connect.native st in
  let base = Q.Eval_rpe.default_config () in
  let one = { base with Q.Eval_rpe.domains = 1 } in
  let many = { Q.Eval_rpe.domains = 4; par_threshold = 1 } in
  List.iter
    (fun text ->
      let rpe = parse st text in
      let r1 = ok (Q.Eval_rpe.find conn ~tc:range ~config:one rpe) in
      let stats = Q.Eval_rpe.new_stats () in
      let rn = ok (Q.Eval_rpe.find conn ~tc:range ~config:many ~stats rpe) in
      check_keys (text ^ " domains agree") (keys r1) (keys rn))
    queries;
  (* The parallel gate must actually engage for an anchored walk. *)
  let rpe = parse st "VNF()->[Vertical()]{1,6}->Host(id=23245)" in
  let stats = Q.Eval_rpe.new_stats () in
  ignore (ok (Q.Eval_rpe.find conn ~tc:range ~config:many ~stats rpe));
  check_bool "parallel walks ran" true (stats.Q.Eval_rpe.domains_used > 1)

let test_relational_backend_unaffected () =
  (* A backend whose reads are not parallel-safe must still produce the
     same answers with the fast path on. *)
  let st, _ = build () in
  let nat = Q.Connect.native st in
  let rb = ok (Q.Relational_backend.create (Store.schema st)) in
  ok (Q.Relational_backend.mirror_store rb st);
  let rel = Q.Connect.relational rb in
  List.iter
    (fun text ->
      let rpe = parse st text in
      let n = ok (Q.Eval_rpe.find nat ~tc:range rpe) in
      let r =
        ok
          (Q.Eval_rpe.find rel ~tc:range
             ~config:{ (Q.Eval_rpe.default_config ()) with domains = 4 }
             rpe)
      in
      check_keys (text ^ " native = relational") (keys n) (keys r))
    queries

let () =
  Alcotest.run "nepal_fastpath"
    [
      ( "range-reads",
        [
          Alcotest.test_case "same pathways on repeat" `Quick
            test_same_paths_on_repeat;
          Alcotest.test_case "update keeps the old version" `Quick
            test_update_keeps_old_version;
          Alcotest.test_case "delete = reference" `Quick
            test_delete_matches_reference;
          Alcotest.test_case "round-trips = selects + extends" `Quick
            test_range_roundtrips;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "engine and mirrors = reference" `Quick
            test_matches_reference;
          Alcotest.test_case "domain count determinism" `Quick
            test_domain_count_determinism;
          Alcotest.test_case "relational backend" `Quick
            test_relational_backend_unaffected;
        ] );
    ]
