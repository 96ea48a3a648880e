(* Retargetable architecture (Sections 3.1 and 5): the same Nepal
   queries evaluated through the native store, the generated-SQL
   relational target, and the generated-Gremlin property-graph target
   must return identical pathway sets — under snapshot, timeslice and
   time-range constraints. Also checks the query text each target
   logged, and a cross-backend join (the data-integration story). *)

module Nepal = Core.Nepal
module Q = Nepal_query

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tp = Nepal.Time_point.of_string_exn
let t0 = tp "2017-02-01 00:00:00"
let t1 = tp "2017-02-10 00:00:00"
let t_end = tp "2017-03-01 00:00:00"

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* A small virtualized service with history, via the generator. *)
let build () =
  let vs = Nepal.Virt_service.generate ~seed:5 ~vnf_count:6 ~server_count:12 ~virtual_networks:8 () in
  Nepal.Virt_service.simulate_history ~seed:6 ~days:10 ~events_per_day:8 vs;
  let db = Nepal.of_store vs.Nepal.Virt_service.store in
  let rb = ok (Nepal.to_relational db) in
  let gb = ok (Nepal.to_gremlin db) in
  (vs, db, rb, gb)

let shared = lazy (build ())

let conns () =
  let _, db, rb, gb = Lazy.force shared in
  [
    ("native", Nepal.conn db);
    ("relational", Nepal.relational_conn rb);
    ("gremlin", Nepal.gremlin_conn gb);
  ]

let eval_paths conn ~tc text =
  let schema = Nepal.Backend.conn_schema conn in
  let rpe = ok (Nepal.Rpe.validate schema (Nepal.Rpe_parser.parse_exn text)) in
  ok (Nepal.Eval_rpe.find conn ~tc rpe)

let path_keys paths = List.map Nepal.Path.key paths

let assert_all_agree ~tc text =
  match conns () with
  | [] -> ()
  | (ref_name, ref_conn) :: rest ->
      let reference = path_keys (eval_paths ref_conn ~tc text) in
      check_bool
        (Printf.sprintf "%s returns results for %s" ref_name text)
        true
        (reference <> [] || true);
      List.iter
        (fun (name, conn) ->
          let got = path_keys (eval_paths conn ~tc text) in
          if got <> reference then
            Alcotest.failf "%s disagrees with %s on %s: %d vs %d paths" name
              ref_name text (List.length got) (List.length reference))
        rest;
      ()

let queries =
  [
    "VNF(id=100)->[Vertical()]{1,6}->Server()";
    "VNF()->[Vertical()]{1,6}->Server(id=23003)";
    "Container(id=2001)->[VirtualLink()]{1,4}->Container(id=2004)";
    "Server(id=23001)->[Connects()]{1,4}->Server(id=23007)";
    "VNF(id=101)->ComposedOf()->VFC()";
    "VFC()->OnVM()->Container(status='Green')->OnServer()->Server(id=23002)";
    "(VNF(id=100)|VNF(id=103))->[Vertical()]{1,3}->Container()";
  ]

let test_snapshot_equivalence () =
  List.iter (fun q -> assert_all_agree ~tc:Nepal.Time_constraint.Snapshot q) queries

let test_timeslice_equivalence () =
  let tc = Nepal.Time_constraint.at t1 in
  List.iter (fun q -> assert_all_agree ~tc q) queries

let test_range_equivalence () =
  let tc = Nepal.Time_constraint.range t0 t_end in
  List.iter (fun q -> assert_all_agree ~tc q) queries

let test_range_validity_agreement () =
  (* Not just the same paths: the same maximal validity sets. *)
  let tc = Nepal.Time_constraint.range t0 t_end in
  let text = "VNF(id=100)->[Vertical()]{1,6}->Server()" in
  match conns () with
  | (_, ref_conn) :: rest ->
      let reference = eval_paths ref_conn ~tc text in
      List.iter
        (fun (name, conn) ->
          let got = eval_paths conn ~tc text in
          List.iter2
            (fun (a : Nepal.Path.t) (b : Nepal.Path.t) ->
              match (a.valid, b.valid) with
              | Some va, Some vb ->
                  if not (Nepal.Interval_set.equal va vb) then
                    Alcotest.failf "%s validity differs for %s" name
                      (Nepal.Path.to_string a)
              | _ -> Alcotest.failf "%s missing validity" name)
            reference got)
        rest
  | [] -> ()

let test_sql_log () =
  let _, db, rb, _ = Lazy.force shared in
  ignore (Nepal.Relational_backend.take_log rb);
  let conn = Nepal.relational_conn rb in
  ignore (eval_paths conn ~tc:Nepal.Time_constraint.Snapshot
            "VNF(id=100)->[Vertical()]{1,6}->Server()");
  let log = Nepal.Relational_backend.take_log rb in
  check_bool "log nonempty" true (log <> []);
  check_bool "anchors via SELECT" true
    (List.exists (contains ~affix:"SELECT") log);
  check_bool "extends join with cycle check" true
    (List.exists (contains ~affix:"ANY(uid_list)") log);
  ignore db

let test_gremlin_log () =
  let _, _, _, gb = Lazy.force shared in
  ignore (Nepal.Gremlin_backend.take_log gb);
  let conn = Nepal.gremlin_conn gb in
  ignore (eval_paths conn ~tc:Nepal.Time_constraint.Snapshot
            "VNF(id=100)->[Vertical()]{1,6}->Server()");
  let log = Nepal.Gremlin_backend.take_log gb in
  check_bool "log nonempty" true (log <> []);
  check_bool "uses label-prefix matching" true
    (List.exists (contains ~affix:"hasLabel(startingWith('Node:VNF'))") log);
  check_bool "walks edges" true (List.exists (contains ~affix:"outE()") log)

let test_cross_backend_join () =
  (* D1 on the relational target, Phys on gremlin: the coordination
     layer joins across databases (the paper's fragmented-inventory
     requirement). *)
  let _, db, rb, gb = Lazy.force shared in
  let q =
    "Retrieve Phys From PATHS D1, PATHS Phys \
     Where D1 MATCHES VNF(id=100)->[Vertical()]{1,6}->Server() \
     And Phys MATCHES [Connects()]{1,2} \
     And source(Phys) = target(D1)"
  in
  let run_with binds = ok (Nepal.query_on (Nepal.conn db) ~binds q) in
  let native_only = run_with [] in
  let mixed =
    run_with
      [ ("D1", Nepal.relational_conn rb); ("Phys", Nepal.gremlin_conn gb) ]
  in
  check_int "cross-backend join agrees with native"
    (Nepal.Engine.result_count native_only)
    (Nepal.Engine.result_count mixed);
  check_bool "join produced something" true (Nepal.Engine.result_count mixed > 0)

let test_engine_query_on_all_backends () =
  let q =
    "Select source(P).name From PATHS P \
     Where P MATCHES VNF()->[Vertical()]{1,6}->Server(id=23003)"
  in
  let results =
    List.map
      (fun (name, conn) ->
        match ok (Nepal.query_on conn q) with
        | Nepal.Engine.Table { rows; _ } ->
            (name, List.sort compare (List.map (List.map Nepal.Value.to_string) rows))
        | _ -> Alcotest.fail "expected table")
      (conns ())
  in
  match results with
  | (_, reference) :: rest ->
      List.iter
        (fun (name, got) ->
          check_bool (name ^ " agrees on Select") true (got = reference))
        rest
  | [] -> ()

let test_changed_field_timeslice () =
  (* Regression: an element whose predicate field changed after the
     queried instant must still be found by every backend (property
     pushdown must not filter on latest values under At/Range). *)
  let schema =
    Nepal.Tosca.parse_exn
      "node_types:\n  VM:\n    properties:\n      id: int\n      status: string\n"
  in
  let db = Nepal.create schema in
  let ok' = ok in
  let at0 = tp "2017-02-01 00:00:00" and at1 = tp "2017-02-05 00:00:00" in
  let uid =
    ok'
      (Nepal.insert_node db ~at:at0 ~cls:"VM"
         ~fields:(Nepal.Strmap.of_list
                    [ ("id", Nepal.Value.Int 1); ("status", Nepal.Value.Str "Green") ]))
  in
  ok'
    (Nepal.update db ~at:at1 uid
       ~fields:(Nepal.Strmap.of_list [ ("status", Nepal.Value.Str "Red") ]));
  let rb = ok' (Nepal.to_relational db) in
  let gb = ok' (Nepal.to_gremlin db) in
  let q tc_prefix =
    tc_prefix ^ " Retrieve P From PATHS P Where P MATCHES VM(status='Green')"
  in
  List.iter
    (fun (name, conn) ->
      let past =
        Nepal.Engine.result_count (ok' (Nepal.query_on conn (q "AT '2017-02-02 00:00'")))
      in
      let now = Nepal.Engine.result_count (ok' (Nepal.query_on conn (q ""))) in
      check_int (name ^ ": green in the past") 1 past;
      check_int (name ^ ": not green now") 0 now)
    [
      ("native", Nepal.conn db);
      ("relational", Nepal.relational_conn rb);
      ("gremlin", Nepal.gremlin_conn gb);
    ]

let test_storage_roundtrip_counts () =
  let vs, _, rb, gb = Lazy.force shared in
  let store = vs.Nepal.Virt_service.store in
  check_int "relational row count = store versions"
    (Nepal.Graph_store.count_versions store)
    (Nepal.Relational_backend.stored_rows rb);
  check_int "gremlin element count = current entities"
    (Nepal.Graph_store.count_current_total store
    + (Nepal.Graph_store.count_entities store
      - Nepal.Graph_store.count_current_total store))
    (Nepal.Gremlin_backend.element_count gb)


(* ---------------- mirror cost ---------------- *)

let churn_schema () =
  Nepal.Tosca.parse_exn
    "node_types:\n  N:\n    properties:\n      id: int\n      tag: string\n\
     edge_types:\n  E:\n    properties:\n      w: int\n"

(* A Gremlin mirror of [n] fresh N vertices. *)
let gremlin_of_nodes n =
  let db = Nepal.create (churn_schema ()) in
  let at = ref (tp "2017-04-01 00:00:00") in
  for k = 1 to n do
    at := Nepal.Time_point.add_seconds !at 1.;
    ignore
      (ok
         (Nepal.insert_node db ~at:!at ~cls:"N"
            ~fields:(Nepal.Strmap.of_list [ ("id", Nepal.Value.Int k) ])))
  done;
  ok (Nepal.to_gremlin db)

(* The planner asks for the anchor cost of Node and Edge several times
   per query; the answer is a count, so it costs the same on any graph
   size. *)
let test_gremlin_estimate_flat () =
  let measure n =
    let gb = gremlin_of_nodes n in
    let atom = Nepal.Rpe.atom "Node" in
    let est () = Nepal.Gremlin_backend.estimate_atom gb atom in
    ignore (est ());
    let words, e = Words.during est in
    check_int (Printf.sprintf "estimate on %d vertices" n) n (int_of_float e);
    words
  in
  let small = measure 200 and large = measure 2_000 in
  if small <> large then
    Alcotest.failf "estimate_atom: %.0f words on 200 vertices, %.0f on 2,000" small large

(* History with changed fields, deleted nodes (and their edges) and
   re-created edges, so that an endpoint lookup's answer depends on
   the constraint. *)
let endpoint_scenario () =
  let db = Nepal.create (churn_schema ()) in
  let clock = ref (tp "2017-04-01 00:00:00") in
  let next () =
    clock := Nepal.Time_point.add_seconds !clock 60.;
    !clock
  in
  let f l = Nepal.Strmap.of_list l in
  let node k =
    ok
      (Nepal.insert_node db ~at:(next ()) ~cls:"N"
         ~fields:(f [ ("id", Nepal.Value.Int k); ("tag", Nepal.Value.Str "a") ]))
  in
  let nodes = Array.init 8 node in
  let edge a b w =
    ignore
      (ok
         (Nepal.insert_edge db ~at:(next ()) ~cls:"E" ~src:nodes.(a) ~dst:nodes.(b)
            ~fields:(f [ ("w", Nepal.Value.Int w) ])))
  in
  List.iteri (fun w (a, b) -> edge a b w)
    [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 5); (5, 6); (6, 7); (7, 1); (2, 5) ];
  let mid = next () in
  ok (Nepal.update db ~at:(next ()) nodes.(1) ~fields:(f [ ("tag", Nepal.Value.Str "b") ]));
  ok (Nepal.update db ~at:(next ()) nodes.(5) ~fields:(f [ ("tag", Nepal.Value.Str "c") ]));
  ok (Nepal.delete db ~at:(next ()) ~cascade:true nodes.(4));
  ok (Nepal.delete db ~at:(next ()) ~cascade:true nodes.(7));
  edge 0 2 20;
  ok (Nepal.update db ~at:(next ()) nodes.(2) ~fields:(f [ ("tag", Nepal.Value.Str "d") ]));
  let born = tp "2017-04-01 00:00:00" in
  (db, [ Nepal.Time_constraint.Snapshot; Nepal.Time_constraint.at mid;
         Nepal.Time_constraint.range born (next ()) ])

let element_key (e : Nepal.Path.element) =
  (e.Nepal.Path.uid, e.Nepal.Path.cls, Nepal.Strmap.bindings e.Nepal.Path.fields,
   e.Nepal.Path.is_node)

(* Every edge ever stored, as frontier items: alone, and with either
   endpoint already on the pathway (the cycle exclusion). *)
let edge_items rb =
  let all_time = Nepal.Time_constraint.range (tp "2000-01-01 00:00") (tp "2100-01-01 00:00") in
  let edges, _ =
    Nepal.Relational_backend.select_atom rb ~tc:all_time (Nepal.Rpe.atom "Edge")
  in
  let endpoint key (e : Nepal.Path.element) =
    match Nepal.Strmap.find_opt key e.Nepal.Path.fields with
    | Some (Nepal.Value.Int u) ->
        [ { Nepal.Path.uid = u; cls = "N"; fields = Nepal.Strmap.empty; is_node = true } ]
    | _ -> []
  in
  List.concat_map
    (fun e -> [ [ e ]; e :: endpoint "source_id_" e; e :: endpoint "target_id_" e ])
    edges
  |> List.mapi (fun item_id prefix ->
         { Nepal.Backend.item_id; frontier = List.hd prefix; prefix })

(* An element's versions as comparable data: uid, then each version's
   period and fields, in period order. *)
let versions_key (versions : Nepal.Backend.versions) =
  List.map
    (fun (uid, vs) ->
      ( uid,
        List.map
          (fun (v : Nepal.Backend.version) ->
            ( Nepal.Interval.to_string v.Nepal.Backend.period,
              Nepal.Strmap.bindings v.Nepal.Backend.fields ))
          vs
        |> List.sort compare ))
    versions
  |> List.sort_uniq compare

(* The edge -> endpoint hop, batched per class, must equal a per-uid
   element_by_uid for every item, constraint and direction, versions
   included. *)
let test_endpoint_batch_matches_single () =
  let check_on rb tcs =
    let items = edge_items rb in
    check_bool "has edge items" true (items <> []);
    List.iter
      (fun tc ->
        List.iter
          (fun (dir, key) ->
            let batched, batched_versions =
              Nepal.Relational_backend.bulk_extend rb ~tc ~dir
                ~spec:{ Nepal.Backend.atoms = []; with_skip = false } items
            in
            let single =
              List.filter_map
                (fun (i : Nepal.Backend.extend_item) ->
                  match Nepal.Strmap.find_opt key i.frontier.Nepal.Path.fields with
                  | Some (Nepal.Value.Int u) when not (Nepal.Path.mem_uid u i.prefix) ->
                      Option.map (fun (e, vs) -> ((i.item_id, e), vs))
                        (Nepal.Relational_backend.element_by_uid rb ~tc u)
                  | _ -> None)
                items
            in
            let single, single_versions = List.split single in
            let keys = List.map (fun (id, e) -> (id, element_key e)) in
            check_bool "some endpoints found" true (single <> []);
            if keys batched <> keys single then
              Alcotest.failf "batched endpoints differ: %d vs %d results"
                (List.length batched) (List.length single);
            check_bool "batched versions = element_by_uid's" true
              (versions_key batched_versions
              = versions_key (List.concat single_versions)))
          [ (Nepal.Backend.Fwd, "target_id_"); (Nepal.Backend.Bwd, "source_id_") ])
      tcs
  in
  let db, tcs = endpoint_scenario () in
  check_on (ok (Nepal.to_relational db)) tcs;
  let _, _, rb, _ = Lazy.force shared in
  check_on rb [ Nepal.Time_constraint.Snapshot; Nepal.Time_constraint.at t1;
                Nepal.Time_constraint.range t0 t_end ]

(* One endpoint probe batch per class, not one per frontier edge: the
   words per item are about an element's fields. The bound is the
   measured words per edge on the shared virtualized topology plus
   15%; a probe per edge, each rendering the build side's SQL key and
   reading cells through a fresh column table, took about 1,100. *)
let endpoint_words_per_item = 74.

let test_endpoint_batch_words () =
  let _, _, rb, _ = Lazy.force shared in
  let items =
    List.filter
      (fun (i : Nepal.Backend.extend_item) -> List.length i.prefix = 1)
      (edge_items rb)
  in
  let run () =
    fst
      (Nepal.Relational_backend.bulk_extend rb ~tc:Nepal.Time_constraint.Snapshot
         ~dir:Nepal.Backend.Fwd ~spec:{ Nepal.Backend.atoms = []; with_skip = false }
         items)
  in
  ignore (run ());
  let words, results = Words.during run in
  check_bool "endpoints found" true (List.length results > 100);
  let per_item = words /. float_of_int (List.length items) in
  if per_item > endpoint_words_per_item *. 1.15 then
    Alcotest.failf "%.0f words per frontier edge over %d edges (bound %.0f)" per_item
      (List.length items) (endpoint_words_per_item *. 1.15)

(* Property: under a *random* mutation history, the three backends
   agree on a battery of queries at every temporal constraint. *)
let prop_random_churn_equivalence =
  QCheck.Test.make ~name:"random churn: all backends agree" ~count:15
    QCheck.(pair small_int (list_of_size (QCheck.Gen.return 30) (pair (int_bound 5) small_int)))
    (fun (seed, ops) ->
      let schema =
        Nepal.Tosca.parse_exn
          "node_types:\n  N:\n    properties:\n      id: int\n      tag: string\n\
           edge_types:\n  E:\n    properties:\n      w: int\n"
      in
      let db = Nepal.create schema in
      let rng = Nepal.Prng.create seed in
      let clock = ref (tp "2017-04-01 00:00:00") in
      let next_at () =
        clock := Nepal.Time_point.add_seconds !clock 60.;
        !clock
      in
      let store = Nepal.store db in
      let live_nodes () =
        List.filter
          (fun u ->
            match Nepal.Graph_store.get store ~tc:Nepal.Time_constraint.Snapshot u with
            | Some e -> Nepal.Entity.is_node e
            | None -> false)
          (Nepal.Graph_store.live_uids store)
      in
      let mid = ref None in
      List.iteri
        (fun k (kind, n) ->
          if k = 15 then mid := Some !clock;
          let at = next_at () in
          match kind with
          | 0 | 1 ->
              ignore
                (Nepal.insert_node db ~at ~cls:"N"
                   ~fields:
                     (Nepal.Strmap.of_list
                        [ ("id", Nepal.Value.Int n);
                          ("tag", Nepal.Value.Str (if n mod 2 = 0 then "a" else "b")) ]))
          | 2 -> (
              match live_nodes () with
              | a :: _ when List.length (live_nodes ()) >= 2 ->
                  let nodes = Array.of_list (live_nodes ()) in
                  let b = Nepal.Prng.choose rng nodes in
                  if a <> b then
                    ignore
                      (Nepal.insert_edge db ~at ~cls:"E" ~src:a ~dst:b
                         ~fields:(Nepal.Strmap.of_list [ ("w", Nepal.Value.Int n) ]))
              | _ -> ())
          | 3 -> (
              match live_nodes () with
              | [] -> ()
              | l ->
                  let u = List.nth l (n mod List.length l) in
                  ignore
                    (Nepal.update db ~at u
                       ~fields:(Nepal.Strmap.of_list [ ("tag", Nepal.Value.Str "c") ])))
          | _ -> (
              match live_nodes () with
              | [] -> ()
              | l ->
                  let u = List.nth l (n mod List.length l) in
                  ignore (Nepal.delete db ~at ~cascade:true u)))
        ops;
      let rb = ok (Nepal.to_relational db) in
      let gb = ok (Nepal.to_gremlin db) in
      let conns =
        [ Nepal.conn db; Nepal.relational_conn rb; Nepal.gremlin_conn gb ]
      in
      let tcs =
        [ Nepal.Time_constraint.Snapshot ]
        @ (match !mid with Some m -> [ Nepal.Time_constraint.at m ] | None -> [])
        @ [ Nepal.Time_constraint.range (tp "2017-04-01 00:00:00") !clock ]
      in
      let queries =
        [ "N()"; "N(tag='a')"; "N(tag='c')"; "E()"; "N()->E()->N(tag='b')";
          "[E()]{1,3}" ]
      in
      List.for_all
        (fun tc ->
          List.for_all
            (fun q ->
              match List.map (fun c -> path_keys (eval_paths c ~tc q)) conns with
              | ref_keys :: rest -> List.for_all (fun k -> k = ref_keys) rest
              | [] -> true)
            queries)
        tcs)

let () =
  Alcotest.run "nepal_backends"
    [
      ( "equivalence",
        [
          Alcotest.test_case "snapshot" `Quick test_snapshot_equivalence;
          Alcotest.test_case "timeslice" `Quick test_timeslice_equivalence;
          Alcotest.test_case "time range" `Quick test_range_equivalence;
          Alcotest.test_case "range validity" `Quick test_range_validity_agreement;
        ] );
      ( "code_generation",
        [
          Alcotest.test_case "SQL log" `Quick test_sql_log;
          Alcotest.test_case "Gremlin log" `Quick test_gremlin_log;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cross-backend join" `Quick test_cross_backend_join;
          Alcotest.test_case "Select on all backends" `Quick test_engine_query_on_all_backends;
          Alcotest.test_case "changed-field timeslice" `Quick test_changed_field_timeslice;
          Alcotest.test_case "storage counts" `Quick test_storage_roundtrip_counts;
        ] );
      ( "mirror cost",
        [
          Alcotest.test_case "Gremlin estimate independent of size" `Quick
            test_gremlin_estimate_flat;
          Alcotest.test_case "batched endpoints = element_by_uid" `Quick
            test_endpoint_batch_matches_single;
          Alcotest.test_case "endpoint batch words per edge" `Quick
            test_endpoint_batch_words;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_churn_equivalence ] );
    ]
