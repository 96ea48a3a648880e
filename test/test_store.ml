open Nepal_schema
open Nepal_temporal
module Store = Nepal_store.Graph_store
module Entity = Nepal_store.Entity
module Strmap = Nepal_util.Strmap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tp = Time_point.of_string_exn
let t0 = tp "2017-02-01 00:00:00"
let t1 = tp "2017-02-05 00:00:00"
let t2 = tp "2017-02-10 00:00:00"
let t3 = tp "2017-02-15 00:00:00"

let schema () =
  Schema.create_exn
    ~edge_rules:
      [
        { Schema.edge = "hosted_on"; src = "VM"; dst = "Host" };
        { Schema.edge = "connects"; src = "Host"; dst = "Host" };
      ]
    [
      Schema.class_decl "VM" ~parent:"Node"
        ~fields:[ ("vid", Ftype.T_int); ("status", Ftype.T_string) ];
      Schema.class_decl "VMWare" ~parent:"VM";
      Schema.class_decl "Host" ~parent:"Node" ~fields:[ ("hid", Ftype.T_int) ];
      Schema.class_decl "hosted_on" ~parent:"Edge";
      Schema.class_decl "connects" ~parent:"Edge";
    ]

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let fields l = Strmap.of_list l

let mk_store () =
  let st = Store.create (schema ()) in
  let vm =
    ok (Store.insert_node st ~at:t0 ~cls:"VM"
          ~fields:(fields [ ("vid", Value.Int 1); ("status", Value.Str "Green") ]))
  in
  let host =
    ok (Store.insert_node st ~at:t0 ~cls:"Host"
          ~fields:(fields [ ("hid", Value.Int 100) ]))
  in
  let edge =
    ok (Store.insert_edge st ~at:t0 ~cls:"hosted_on" ~src:vm ~dst:host
          ~fields:Strmap.empty)
  in
  (st, vm, host, edge)

(* ---------------- basic lifecycle ---------------- *)

let test_insert_and_get () =
  let st, vm, _host, edge = mk_store () in
  (match Store.get st ~tc:Time_constraint.snapshot vm with
  | Some e ->
      check_bool "class" true (e.Entity.cls = "VM");
      check_bool "is node" true (Entity.is_node e);
      check_bool "field" true (Value.equal (Entity.field e "vid") (Value.Int 1))
  | None -> Alcotest.fail "vm not found");
  match Store.get st ~tc:Time_constraint.snapshot edge with
  | Some e -> check_bool "is edge" true (Entity.is_edge e)
  | None -> Alcotest.fail "edge not found"

let test_schema_violations_rejected () =
  let st = Store.create (schema ()) in
  (* Wrong kind. *)
  (match Store.insert_node st ~at:t0 ~cls:"hosted_on" ~fields:Strmap.empty with
  | Ok _ -> Alcotest.fail "edge class as node accepted"
  | Error _ -> ());
  (* Unknown class. *)
  (match Store.insert_node st ~at:t0 ~cls:"Nope" ~fields:Strmap.empty with
  | Ok _ -> Alcotest.fail "unknown class accepted"
  | Error _ -> ());
  (* Ill-typed field. *)
  (match
     Store.insert_node st ~at:t0 ~cls:"VM" ~fields:(fields [ ("vid", Value.Str "x") ])
   with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* Edge rule violation: hosted_on must be VM -> Host. *)
  let h1 = ok (Store.insert_node st ~at:t0 ~cls:"Host" ~fields:Strmap.empty) in
  let h2 = ok (Store.insert_node st ~at:t0 ~cls:"Host" ~fields:Strmap.empty) in
  (match Store.insert_edge st ~at:t0 ~cls:"hosted_on" ~src:h1 ~dst:h2 ~fields:Strmap.empty with
  | Ok _ -> Alcotest.fail "rule-violating edge accepted"
  | Error _ -> ());
  (* Dangling endpoint. *)
  match Store.insert_edge st ~at:t0 ~cls:"connects" ~src:h1 ~dst:9999 ~fields:Strmap.empty with
  | Ok _ -> Alcotest.fail "dangling edge accepted"
  | Error _ -> ()

let test_clock_monotonic () =
  let st, _, _, _ = mk_store () in
  match Store.insert_node st ~at:(tp "2016-01-01") ~cls:"Host" ~fields:Strmap.empty with
  | Ok _ -> Alcotest.fail "time travel insert accepted"
  | Error _ -> ()

(* ---------------- versioning / temporal visibility ---------------- *)

let test_update_creates_version () =
  let st, vm, _, _ = mk_store () in
  ok (Store.update st ~at:t1 vm ~fields:(fields [ ("status", Value.Str "Red") ]));
  check_int "two versions" 2 (List.length (Store.versions st vm));
  (* Snapshot sees the new value. *)
  (match Store.get st ~tc:Time_constraint.snapshot vm with
  | Some e -> check_bool "now red" true (Value.equal (Entity.field e "status") (Value.Str "Red"))
  | None -> Alcotest.fail "missing");
  (* Timeslice before the update sees the old value. *)
  (match Store.get st ~tc:(Time_constraint.at t0) vm with
  | Some e ->
      check_bool "was green" true
        (Value.equal (Entity.field e "status") (Value.Str "Green"))
  | None -> Alcotest.fail "missing at t0");
  (* Untouched fields carried over. *)
  match Store.get st ~tc:Time_constraint.snapshot vm with
  | Some e -> check_bool "vid kept" true (Value.equal (Entity.field e "vid") (Value.Int 1))
  | None -> Alcotest.fail "missing"

let test_delete_and_timeslice () =
  let st, vm, _, edge = mk_store () in
  ok (Store.delete st ~at:t1 edge);
  ok (Store.delete st ~at:t1 vm);
  check_bool "gone from snapshot" true
    (Store.get st ~tc:Time_constraint.snapshot vm = None);
  check_bool "visible in the past" true
    (Store.get st ~tc:(Time_constraint.at t0) vm <> None);
  check_bool "not visible after deletion" true
    (Store.get st ~tc:(Time_constraint.at t2) vm = None)

let test_delete_node_with_edges () =
  let st, vm, _, _ = mk_store () in
  (match Store.delete st ~at:t1 vm with
  | Ok _ -> Alcotest.fail "deleted node with live edges"
  | Error _ -> ());
  ok (Store.delete st ~at:t1 ~cascade:true vm);
  check_bool "cascade removed edges" true
    (Store.out_edges st ~tc:Time_constraint.snapshot vm = [])

let test_range_visibility () =
  let st, vm, _, _ = mk_store () in
  ok (Store.delete st ~at:t1 ~cascade:true vm);
  let r12 = Time_constraint.range t0 t2 in
  check_bool "range sees deleted" true (Store.get st ~tc:r12 vm <> None);
  let r23 = Time_constraint.range t2 t3 in
  check_bool "later range misses" true (Store.get st ~tc:r23 vm = None)

let test_presence () =
  let st, vm, _, _ = mk_store () in
  ok (Store.update st ~at:t1 vm ~fields:(fields [ ("status", Value.Str "Red") ]));
  ok (Store.update st ~at:t2 vm ~fields:(fields [ ("status", Value.Str "Green") ]));
  let presence pred =
    Store.fold_versions_under st ~tc:(Time_constraint.range t0 t3) vm
      (fun acc (e : Entity.t) -> if pred e then e.period :: acc else acc)
      []
    |> Interval_set.of_list
  in
  let green e = Value.equal (Entity.field e "status") (Value.Str "Green") in
  let ps = presence green in
  (* Green during [t0,t1) and [t2,t3) — two fragments. *)
  check_int "two green periods" 2 (Interval_set.cardinality ps);
  check_bool "green at t0" true (Interval_set.contains ps t0);
  check_bool "red in the middle" false (Interval_set.contains ps t1);
  let always e = ignore e; true in
  let all = presence always in
  check_int "continuous existence merges" 1 (Interval_set.cardinality all)

(* ---------------- scans, generalization, adjacency ---------------- *)

let test_scan_class_generalization () =
  let st, _, _, _ = mk_store () in
  let _vmw =
    ok (Store.insert_node st ~at:t1 ~cls:"VMWare"
          ~fields:(fields [ ("vid", Value.Int 2) ]))
  in
  let vms = Store.scan_class st ~tc:Time_constraint.snapshot "VM" in
  check_int "VM scan sees subclass instances" 2 (List.length vms);
  let nodes = Store.scan_class st ~tc:Time_constraint.snapshot "Node" in
  check_int "Node scan sees everything" 3 (List.length nodes);
  let edges = Store.scan_class st ~tc:Time_constraint.snapshot "Edge" in
  check_int "Edge scan" 1 (List.length edges)

let test_adjacency () =
  let st, vm, host, edge = mk_store () in
  let out = Store.out_edges st ~tc:Time_constraint.snapshot vm in
  check_int "one out edge" 1 (List.length out);
  check_bool "edge identity" true ((List.hd out).Entity.uid = edge);
  let inc = Store.in_edges st ~tc:Time_constraint.snapshot host in
  check_int "one in edge" 1 (List.length inc);
  check_bool "endpoints" true
    (Entity.src (List.hd inc) = vm && Entity.dst (List.hd inc) = host);
  (* After deletion adjacency empties in snapshot but not in the past. *)
  ok (Store.delete st ~at:t1 edge);
  check_int "snapshot adjacency empty" 0
    (List.length (Store.out_edges st ~tc:Time_constraint.snapshot vm));
  check_int "past adjacency intact" 1
    (List.length (Store.out_edges st ~tc:(Time_constraint.at t0) vm))

(* ---------------- indexes ---------------- *)

let test_index_lookup () =
  let st, _, _, _ = mk_store () in
  for i = 2 to 50 do
    ignore
      (ok (Store.insert_node st ~at:t1 ~cls:"VM"
             ~fields:(fields [ ("vid", Value.Int i); ("status", Value.Str "Green") ])))
  done;
  ok (Store.create_index st ~cls:"VM" ~field:"vid");
  check_bool "index exists" true (Store.has_index st ~cls:"VM" ~field:"vid");
  let hits = Store.lookup st ~tc:Time_constraint.snapshot ~cls:"VM" ~field:"vid" (Value.Int 17) in
  check_int "one hit" 1 (List.length hits);
  (* Unindexed lookup falls back to a scan with equal results. *)
  let unindexed =
    Store.lookup st ~tc:Time_constraint.snapshot ~cls:"VM" ~field:"status"
      (Value.Str "Green")
  in
  check_int "scan fallback" 50 (List.length unindexed)

let test_index_sees_past_values () =
  let st, vm, _, _ = mk_store () in
  ok (Store.create_index st ~cls:"VM" ~field:"status");
  ok (Store.update st ~at:t1 vm ~fields:(fields [ ("status", Value.Str "Red") ]));
  let past =
    Store.lookup st ~tc:(Time_constraint.at t0) ~cls:"VM" ~field:"status"
      (Value.Str "Green")
  in
  check_int "past value found via index" 1 (List.length past);
  let now =
    Store.lookup st ~tc:Time_constraint.snapshot ~cls:"VM" ~field:"status"
      (Value.Str "Green")
  in
  check_int "current value changed" 0 (List.length now)

(* ---------------- statistics ---------------- *)

let test_stats () =
  let st, vm, _, _ = mk_store () in
  ok (Store.update st ~at:t1 vm ~fields:(fields [ ("status", Value.Str "Red") ]));
  check_int "entities" 3 (Store.count_entities st);
  check_int "versions = entities + updates" 4 (Store.count_versions st);
  check_int "current total" 3 (Store.count_current_total st);
  check_int "count VM" 1 (Store.count_current st ~cls:"VM");
  check_int "count Node" 2 (Store.count_current st ~cls:"Node");
  let hist = Store.class_histogram st in
  check_bool "histogram has VM" true (List.mem_assoc "VM" hist)

(* ---------------- property tests ---------------- *)

(* Random mutation sequences preserve invariants: version intervals of a
   uid are disjoint and ordered; snapshot = versions with open interval;
   adjacency symmetric with endpoints. *)
let prop_version_intervals_ordered =
  QCheck.Test.make ~name:"version intervals disjoint and ordered" ~count:60
    QCheck.(small_list (pair (int_bound 4) (int_bound 30)))
    (fun ops ->
      let st = Store.create (schema ()) in
      let uids = ref [] in
      let time = ref t0 in
      let step (kind, n) =
        time := Time_point.add_seconds !time 60.;
        match kind with
        | 0 | 1 ->
            (match
               Store.insert_node st ~at:!time ~cls:"VM"
                 ~fields:(fields [ ("vid", Value.Int n) ])
             with
            | Ok u -> uids := u :: !uids
            | Error _ -> ())
        | 2 -> (
            match !uids with
            | [] -> ()
            | l ->
                let u = List.nth l (n mod List.length l) in
                ignore
                  (Store.update st ~at:!time u
                     ~fields:(fields [ ("status", Value.Str (string_of_int n)) ])))
        | _ -> (
            match !uids with
            | [] -> ()
            | l ->
                let u = List.nth l (n mod List.length l) in
                ignore (Store.delete st ~at:!time ~cascade:true u))
      in
      List.iter step ops;
      List.for_all
        (fun u ->
          let vs = Store.versions st u in
          let rec ordered = function
            | (a : Entity.t) :: (b :: _ as rest) -> (
                match a.period.Interval.stop with
                | None -> false
                | Some e ->
                    Time_point.compare e b.period.Interval.start <= 0 && ordered rest)
            | _ -> true
          in
          let open_count =
            List.length
              (List.filter (fun (v : Entity.t) -> Interval.is_current v.period) vs)
          in
          ordered vs && open_count <= 1
          && (open_count = 1) = (Store.get st ~tc:Time_constraint.snapshot u <> None))
        !uids)

let prop_timeslice_matches_history =
  (* At any past instant, get ~tc:(At t) returns exactly the version
     whose interval contains t. *)
  QCheck.Test.make ~name:"timeslice agrees with version intervals" ~count:60
    QCheck.(pair (int_bound 20) (int_bound 100))
    (fun (updates, probe_minutes) ->
      let st = Store.create (schema ()) in
      let u =
        match
          Store.insert_node st ~at:t0 ~cls:"VM" ~fields:(fields [ ("vid", Value.Int 1) ])
        with
        | Ok u -> u
        | Error _ -> assert false
      in
      let time = ref t0 in
      for i = 1 to updates do
        time := Time_point.add_seconds !time 600.;
        ignore
          (Store.update st ~at:!time u
             ~fields:(fields [ ("status", Value.Str (string_of_int i)) ]))
      done;
      let probe = Time_point.add_seconds t0 (float_of_int probe_minutes *. 60.) in
      let via_get = Store.get st ~tc:(Time_constraint.at probe) u in
      let via_versions =
        List.find_opt
          (fun (v : Entity.t) -> Interval.contains v.period probe)
          (Store.versions st u)
      in
      match (via_get, via_versions) with
      | None, None -> true
      | Some a, Some b ->
          Value.equal (Entity.field a "status") (Entity.field b "status")
      | _ -> false)

(* A random history: each step is one mutation an hour after the last,
   drawn from (kind, a, b): one in six inserts a node, two in six an
   edge, two update and one deletes. Nodes are VM or Host; edges
   join live nodes (hosted_on into a Host from a VM, connects between
   Hosts; a step the schema rejects is simply skipped); updates and
   deletes (cascading) pick a live uid. *)
let history_of steps =
  let st = Store.create (schema ()) in
  let time = ref t0 in
  let live () = Array.of_list (Store.live_uids st) in
  List.iter
    (fun (kind, a, b) ->
      time := Time_point.add_seconds !time 3600.;
      let at = !time in
      let uids = live () in
      let pick i = uids.(i mod Array.length uids) in
      match kind with
      | 0 ->
          let cls = if a mod 2 = 0 then "VM" else "Host" in
          ignore (Store.insert_node st ~at ~cls ~fields:Strmap.empty)
      | 1 | 2 when Array.length uids > 0 -> (
          let src = pick a and dst = pick b in
          match (Store.get st ~tc:Time_constraint.snapshot src,
                 Store.get st ~tc:Time_constraint.snapshot dst) with
          | Some s, Some d when Entity.is_node s && Entity.is_node d ->
              let cls = if s.Entity.cls = "VM" then "hosted_on" else "connects" in
              ignore (Store.insert_edge st ~at ~cls ~src ~dst ~fields:Strmap.empty)
          | _ -> ())
      | 3 | 5 when Array.length uids > 0 ->
          let u = pick a in
          let fields =
            match Store.get st ~tc:Time_constraint.snapshot u with
            | Some e when e.Entity.cls = "VM" -> fields [ ("vid", Value.Int b) ]
            | Some e when e.Entity.cls = "Host" -> fields [ ("hid", Value.Int b) ]
            | _ -> Strmap.empty
          in
          ignore (Store.update st ~at u ~fields)
      | 4 when Array.length uids > 0 ->
          ignore (Store.delete st ~at ~cascade:true (pick a))
      | _ -> ())
    steps;
  (st, !time)

(* The newest version the constraint admits, found the slow way: every
   version of the uid, no adjacency, no current/history split. *)
let naive_get st ~tc uid =
  List.fold_left
    (fun best (v : Entity.t) ->
      if not (Time_constraint.admits tc v.period) then best
      else
        match best with
        | Some (b : Entity.t) when Time_point.compare b.period.start v.period.start > 0 -> best
        | _ -> Some v)
    None (Store.versions st uid)

let same_version (a : Entity.t) (b : Entity.t) =
  a.uid = b.uid && Interval.equal a.period b.period && Strmap.equal Value.equal a.fields b.fields
  && a.elem.uid = a.uid && a.elem.fields == a.fields

let rec ascending = function
  | (a : Entity.t) :: (b :: _ as rest) -> a.uid < b.uid && ascending rest
  | [ _ ] | [] -> true

let nonempty_folds = ref 0
let closed_edges = ref 0

(* Under Snapshot, AT and Range, the adjacency fold returns in
   ascending uid order exactly the admitted edges a naive scan of every
   version finds, each as [get] returns it; [out_edges]/[in_edges] are
   that fold as a list, and [find_under] agrees with [get]. *)

let prop_adjacency_fold_matches_scan =
  QCheck.Test.make ~name:"adjacency fold = naive scan of all versions" ~count:150
    QCheck.(list_of_size Gen.(1 -- 80)
              (triple (int_bound 5) (int_bound 1000) (int_bound 1000)))
    (fun steps ->
      let st, last = history_of steps in
      let n = Store.count_entities st in
      let hour k = Time_point.add_seconds t0 (3600. *. k) in
      let tcs =
        Time_constraint.snapshot
        :: List.concat_map
             (fun k ->
               [ Time_constraint.at (hour (float_of_int k +. 0.5));
                 Time_constraint.range (hour (float_of_int k)) (hour (float_of_int k +. 7.5)) ])
             [ 1; 5; 12; 30 ]
        @ [ Time_constraint.at last ]
      in
      let all = List.init (n + 1) (fun i -> i + 1) in
      List.for_all
        (fun tc ->
          List.for_all
            (fun u ->
              let find =
                match Store.find_under st ~tc u with
                | e -> Some e
                | exception Not_found -> None
              in
              (match (find, Store.get st ~tc u, naive_get st ~tc u) with
               | None, None, None -> true
               | Some a, Some b, Some c -> a == b && same_version a c
               | _ -> false)
              &&
              let naive keep =
                List.filter_map
                  (fun e ->
                    match naive_get st ~tc e with
                    | Some (v : Entity.t) when v.endpoints <> None && keep v -> Some v
                    | _ -> None)
                  all
              in
              let out = List.rev (Store.fold_out_edges st ~tc u (fun acc e -> e :: acc) [])
              and inc = List.rev (Store.fold_in_edges st ~tc u (fun acc e -> e :: acc) []) in
              let want_out = naive (fun v -> Entity.src v = u)
              and want_in = naive (fun v -> Entity.dst v = u) in
              if out <> [] then incr nonempty_folds;
              List.iter
                (fun (e : Entity.t) -> if e.period.stop <> None then incr closed_edges)
                out;
              ascending out && ascending inc
              && List.equal same_version out want_out
              && List.equal same_version inc want_in
              && List.equal ( == ) out (Store.out_edges st ~tc u)
              && List.equal ( == ) inc (Store.in_edges st ~tc u))
            all)
        tcs)

(* The property over a fixed seed, with a floor on what it saw: folds
   that return edges, and edges returned as a closed version (deleted,
   or updated later), so it cannot hold only on empty adjacency. *)
let test_adjacency_fold () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 25 |])
    prop_adjacency_fold_matches_scan;
  if !nonempty_folds < 400 || !closed_edges < 250 then
    Alcotest.failf "vacuous: %d non-empty folds, %d closed edge versions"
      !nonempty_folds !closed_edges

let () =
  Alcotest.run "nepal_store"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "insert and get" `Quick test_insert_and_get;
          Alcotest.test_case "schema violations rejected" `Quick
            test_schema_violations_rejected;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "update creates version" `Quick test_update_creates_version;
          Alcotest.test_case "delete and timeslice" `Quick test_delete_and_timeslice;
          Alcotest.test_case "delete with edges" `Quick test_delete_node_with_edges;
          Alcotest.test_case "range visibility" `Quick test_range_visibility;
          Alcotest.test_case "presence intervals" `Quick test_presence;
        ] );
      ( "scans",
        [
          Alcotest.test_case "class generalization" `Quick test_scan_class_generalization;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "historical values" `Quick test_index_sees_past_values;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_version_intervals_ordered;
            prop_timeslice_matches_history;
          ]
        @ [
            Alcotest.test_case "adjacency fold = naive scan" `Quick
              test_adjacency_fold;
          ] );
    ]
