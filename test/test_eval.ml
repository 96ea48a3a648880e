(* Pathway-set evaluation against the native backend: the paper's
   Section 3.4 example queries on a miniature layered topology. *)

open Nepal_schema
open Nepal_temporal
module Store = Nepal_store.Graph_store
module Rpe = Nepal_rpe.Rpe
module Rpe_parser = Nepal_rpe.Rpe_parser
module Q = Nepal_query
module Nepal_wrap = Core.Nepal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tp = Time_point.of_string_exn
let t0 = tp "2017-02-01 00:00:00"
let t1 = tp "2017-02-05 00:00:00"
let t2 = tp "2017-02-10 00:00:00"
let t3 = tp "2017-02-15 00:00:00"

let schema () =
  Schema.create_exn
    [
      Schema.class_decl "VNF" ~parent:"Node"
        ~fields:[ ("id", Ftype.T_int); ("name", Ftype.T_string) ];
      Schema.class_decl "VNF_DNS" ~parent:"VNF";
      Schema.class_decl "VFC" ~parent:"Node" ~fields:[ ("id", Ftype.T_int) ];
      Schema.class_decl "VM" ~parent:"Node"
        ~fields:[ ("id", Ftype.T_int); ("status", Ftype.T_string) ];
      Schema.class_decl "Host" ~parent:"Node"
        ~fields:[ ("id", Ftype.T_int); ("name", Ftype.T_string) ];
      Schema.class_decl "Switch" ~parent:"Node" ~fields:[ ("id", Ftype.T_int) ];
      Schema.class_decl "Vertical" ~parent:"Edge" ~abstract:true;
      Schema.class_decl "ComposedOf" ~parent:"Vertical";
      Schema.class_decl "HostedOn" ~parent:"Vertical";
      Schema.class_decl "Connects" ~parent:"Edge";
    ]

let fields l = Nepal_util.Strmap.of_list l
let i n = Value.Int n

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

(* Two VNFs; vnf1 -> vfc1 -> vm1 -> host1; vnf2 -> vfc2 -> vm2 -> host1;
   physical ring host1 - sw1 - host2 (edges both directions). *)
let build () =
  let st = Store.create (schema ()) in
  let node cls fs = ok (Store.insert_node st ~at:t0 ~cls ~fields:(fields fs)) in
  let edge cls src dst =
    ok (Store.insert_edge st ~at:t0 ~cls ~src ~dst ~fields:Nepal_util.Strmap.empty)
  in
  let vnf1 = node "VNF_DNS" [ ("id", i 123); ("name", Value.Str "dns") ] in
  let vnf2 = node "VNF" [ ("id", i 234); ("name", Value.Str "fw") ] in
  let vfc1 = node "VFC" [ ("id", i 11) ] in
  let vfc2 = node "VFC" [ ("id", i 12) ] in
  let vm1 = node "VM" [ ("id", i 21); ("status", Value.Str "Green") ] in
  let vm2 = node "VM" [ ("id", i 22); ("status", Value.Str "Red") ] in
  let vm_idle = node "VM" [ ("id", i 23); ("status", Value.Str "Green") ] in
  let host1 = node "Host" [ ("id", i 23245) ] in
  let host2 = node "Host" [ ("id", i 34356) ] in
  let sw = node "Switch" [ ("id", i 900) ] in
  ignore (edge "ComposedOf" vnf1 vfc1);
  ignore (edge "ComposedOf" vnf2 vfc2);
  ignore (edge "HostedOn" vfc1 vm1);
  ignore (edge "HostedOn" vfc2 vm2);
  ignore (edge "HostedOn" vm1 host1);
  ignore (edge "HostedOn" vm2 host1);
  ignore (edge "HostedOn" vm_idle host2);
  ignore (edge "Connects" host1 sw);
  ignore (edge "Connects" sw host1);
  ignore (edge "Connects" sw host2);
  ignore (edge "Connects" host2 sw);
  (st, vnf1, vnf2, vm1, host1, host2)

let conn st =
  Q.Connect.native st

let eval ?seed ?tc st text =
  let tc = match tc with Some tc -> tc | None -> Time_constraint.snapshot in
  let rpe = ok (Rpe.validate (Store.schema st) (Rpe_parser.parse_exn text)) in
  ok (Q.Eval_rpe.find (conn st) ~tc ?seed rpe)

(* ---------------- anchored evaluation ---------------- *)

let test_explicit_chain () =
  let st, _, _, _, _, _ = build () in
  let paths = eval st "VNF()->VFC()->VM()->Host(id=23245)" in
  check_int "two VNFs reach host1" 2 (List.length paths);
  List.iter
    (fun p ->
      check_bool "well formed" true (Q.Path.well_formed p);
      check_int "7 elements" 7 (List.length p.Q.Path.elements);
      check_bool "source is a VNF" true
        (Schema.is_subclass (schema ()) ~sub:(Q.Path.source p).Q.Path.cls ~sup:"VNF"))
    paths

let test_generic_vertical () =
  let st, _, _, _, _, _ = build () in
  let paths = eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)" in
  (* Same two full paths; the RPE also matches nothing shorter since
     Host is only reachable via 3 verticals. *)
  check_int "two paths" 2 (List.length paths)

let test_top_down_vs_bottom_up_same_answers () =
  let st, _, _, _, _, _ = build () in
  let top_down = eval st "VNF(id=123)->[Vertical()]{1,6}->Host()" in
  check_int "top down" 1 (List.length top_down);
  let bottom_up = eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)" in
  check_int "bottom up" 2 (List.length bottom_up)

let test_horizontal_physical () =
  let st, _, _, _, _, _ = build () in
  let paths = eval st "Host(id=23245)->[Connects()]{1,4}->Host(id=34356)" in
  (* host1 -> sw -> host2 : one simple path of 2 hops. *)
  check_int "one physical path" 1 (List.length paths);
  check_int "two hops" 2 (Q.Path.length (List.hd paths))

let test_edge_predicate_and_status () =
  let st, _, _, _, _, _ = build () in
  let green = eval st "VM(status='Green')" in
  check_int "green VMs" 2 (List.length green);
  let single = eval st "VM(status='Green', id=21)" in
  check_int "conjunction" 1 (List.length single)

let test_no_results () =
  let st, _, _, _, _, _ = build () in
  check_int "absent id" 0 (List.length (eval st "Host(id=999)"));
  check_int "impossible chain" 0
    (List.length (eval st "Host(id=23245)->[Vertical()]{1,2}->VNF()"))

let test_alternation_eval () =
  let st, _, _, _, _, _ = build () in
  let paths = eval st "(VNF(id=123)|VNF(id=234))->ComposedOf()->VFC()" in
  check_int "both branches" 2 (List.length paths)

let test_unanchored_rejected () =
  let st, _, _, _, _, _ = build () in
  let rpe =
    ok (Rpe.validate (Store.schema st) (Rpe_parser.parse_exn "[Vertical()]{0,3}"))
  in
  match Q.Eval_rpe.find (conn st) ~tc:Time_constraint.snapshot rpe with
  | Ok _ -> Alcotest.fail "unanchored accepted"
  | Error _ -> ()

(* ---------------- seeded evaluation (imported anchors) ------------- *)

let test_seeded_from () =
  let st, _, _, _, host1, _ = build () in
  let host1_elem, versions =
    Option.get (Q.Backend_intf.element_by_uid (conn st) ~tc:Time_constraint.snapshot host1)
  in
  let paths =
    eval st "[Connects()]{1,4}"
      ~seed:(Q.Eval_rpe.From_nodes ([ host1_elem ], versions))
  in
  check_bool "some physical paths from host1" true (List.length paths > 0);
  List.iter
    (fun p ->
      check_bool "starts at host1" true ((Q.Path.source p).Q.Path.uid = host1))
    paths

let test_seeded_to () =
  let st, _, _, _, _, host2 = build () in
  let host2_elem, versions =
    Option.get (Q.Backend_intf.element_by_uid (conn st) ~tc:Time_constraint.snapshot host2)
  in
  let paths =
    eval st "VNF()->[Vertical()]{1,6}"
      ~seed:(Q.Eval_rpe.To_nodes ([ host2_elem ], versions))
  in
  (* vm_idle is on host2 but hosts no VFC/VNF; no path ends there. *)
  check_int "nothing ends at host2 from a VNF" 0 (List.length paths)

(* ---------------- temporal evaluation ---------------- *)

let build_temporal () =
  let st, vnf1, vnf2, vm1, host1, host2 = build () in
  (* At t1, vm1 migrates: delete its HostedOn to host1, rehost on host2. *)
  let old_edge =
    List.find
      (fun (e : Nepal_store.Entity.t) -> Nepal_store.Entity.dst e = host1)
      (Store.out_edges st ~tc:Time_constraint.snapshot vm1)
  in
  ok (Store.delete st ~at:t1 old_edge.Nepal_store.Entity.uid);
  ignore
    (ok
       (Store.insert_edge st ~at:t1 ~cls:"HostedOn" ~src:vm1 ~dst:host2
          ~fields:Nepal_util.Strmap.empty));
  (st, vnf1, vnf2, vm1, host1, host2)

let test_timeslice () =
  let st, _, _, _, _, _ = build_temporal () in
  (* Before the migration both VNFs were on host1. *)
  let past =
    eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)" ~tc:(Time_constraint.at t0)
  in
  check_int "past: both on host1" 2 (List.length past);
  (* Now only vnf2 remains on host1. *)
  let now = eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)" in
  check_int "now: one on host1" 1 (List.length now);
  (* vnf1 is now induced onto host2. *)
  let now2 = eval st "VNF(id=123)->[Vertical()]{1,6}->Host(id=34356)" in
  check_int "vnf1 reaches host2" 1 (List.length now2)

let test_time_range_maximal_intervals () =
  let st, _, _, _, _, _ = build_temporal () in
  let paths =
    eval st "VNF(id=123)->[Vertical()]{1,6}->Host(id=23245)"
      ~tc:(Time_constraint.range t0 t3)
  in
  (* The old pathway existed during [t0, t1) only. *)
  check_int "old pathway found in range" 1 (List.length paths);
  (match (List.hd paths).Q.Path.valid with
  | Some v -> (
      check_bool "valid at t0" true (Interval_set.contains v t0);
      check_bool "invalid after migration" false (Interval_set.contains v t2);
      match Interval_set.last_moment v with
      | `Ended e -> check_bool "ends at t1" true (Time_point.equal e t1)
      | _ -> Alcotest.fail "expected ended interval")
  | None -> Alcotest.fail "range query must attach validity");
  (* A range query confined to after the migration finds nothing. *)
  let later =
    eval st "VNF(id=123)->[Vertical()]{1,6}->Host(id=23245)"
      ~tc:(Time_constraint.range t2 t3)
  in
  check_int "gone after migration" 0 (List.length later)

let test_range_with_field_change () =
  let st, _, _, vm1, _, _ = build () in
  ok (Store.update st ~at:t1 vm1 ~fields:(fields [ ("status", Value.Str "Red") ]));
  ok (Store.update st ~at:t2 vm1 ~fields:(fields [ ("status", Value.Str "Green") ]));
  let paths =
    eval st "VM(id=21, status='Green')" ~tc:(Time_constraint.range t0 t3)
  in
  check_int "found" 1 (List.length paths);
  match (List.hd paths).Q.Path.valid with
  | Some v ->
      check_bool "green at start" true (Interval_set.contains v t0);
      check_bool "red in middle" false (Interval_set.contains v t1);
      check_bool "green again" true (Interval_set.contains v t2)
  | None -> Alcotest.fail "expected validity"

(* ---------------- shared fate (Section 2.3.2) ---------------- *)

let test_shared_fate () =
  let st, _, _, _, host1, _ = build () in
  (* All VNFs depending on host1 via vertical paths. *)
  let affected = eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)" in
  let vnf_ids =
    List.map (fun p -> Q.Path.field (Q.Path.source p) "id") affected
    |> List.sort_uniq Value.compare
  in
  check_int "both VNFs share fate with host1" 2 (List.length vnf_ids);
  (* After cascading deletion of host1, no paths remain. *)
  ok (Store.delete st ~at:t1 ~cascade:true host1);
  check_int "no paths after failure" 0
    (List.length (eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)"));
  (* But the history still knows. *)
  check_int "history remembers" 2
    (List.length
       (eval st "VNF()->[Vertical()]{1,6}->Host(id=23245)" ~tc:(Time_constraint.at t0)))


(* ---------------- shortest paths ---------------- *)

let test_shortest_paths () =
  let st, _, _, _, host1, host2 = build () in
  let db = Nepal_wrap.of_store st in
  (match ok (Nepal_wrap.shortest_paths db ~via:"Connects" ~src:host1 ~dst:host2 ()) with
  | [] -> Alcotest.fail "expected a physical route"
  | paths ->
      List.iter
        (fun p ->
          check_int "2 hops via the switch" 2 (Q.Path.length p);
          check_bool "ends at host2" true ((Q.Path.target p).Q.Path.uid = host2))
        paths);
  (* Unreachable: a VNF is not reachable from a host via Connects. *)
  let vnf1 =
    (List.hd
       (Store.lookup st ~tc:Time_constraint.snapshot ~cls:"VNF" ~field:"id"
          (Value.Int 123)))
      .Nepal_store.Entity.uid
  in
  check_int "unreachable" 0
    (List.length
       (ok (Nepal_wrap.shortest_paths db ~via:"Connects" ~src:host1 ~dst:vnf1 ())))

(* ---------------- properties ---------------- *)

(* Any path returned by the evaluator must independently satisfy the
   RPE when replayed through a freshly compiled NFA. *)
let arb_query =
  QCheck.oneofl
    [
      "VNF()->VFC()->VM()";
      "VNF()->[Vertical()]{1,6}->Host()";
      "VM(status='Green')";
      "Host(id=23245)->[Connects()]{1,4}->Host()";
      "(VNF(id=123)|VNF(id=234))->ComposedOf()->VFC()";
      "VFC()->HostedOn()->VM()";
      "[Connects()]{2,3}";
      "Vertical()";
    ]

let replay_accepts sch norm (p : Q.Path.t) =
  let kind_of a =
    match Rpe.atom_kind sch a with
    | Some Schema.Node_kind -> Some `Node
    | Some Schema.Edge_kind -> Some `Edge
    | None -> None
  in
  let nfa = Nepal_rpe.Nfa.compile ~kind_of norm in
  let final =
    List.fold_left
      (fun states (e : Q.Path.element) ->
        let matches a =
          Rpe.atom_matches sch a ~cls:e.Q.Path.cls ~fields:e.Q.Path.fields
        in
        Nepal_rpe.Nfa.step nfa ~matches ~is_node:e.Q.Path.is_node states)
      (Nepal_rpe.Nfa.start nfa) p.Q.Path.elements
  in
  Nepal_rpe.Nfa.accepting nfa final

let prop_paths_satisfy_rpe =
  QCheck.Test.make ~name:"returned paths replay through the NFA" ~count:60
    arb_query (fun text ->
      let st, _, _, _, _, _ = build () in
      let sch = Store.schema st in
      let norm = ok (Rpe.validate sch (Rpe_parser.parse_exn text)) in
      let paths = ok (Q.Eval_rpe.find (conn st) ~tc:Time_constraint.snapshot norm) in
      List.for_all
        (fun p ->
          Q.Path.well_formed p
          && List.length (List.sort_uniq compare (Q.Path.key p))
             = List.length (Q.Path.key p)
          && replay_accepts sch norm p)
        paths)

let prop_snapshot_equals_timeslice_now =
  QCheck.Test.make ~name:"snapshot = timeslice at the clock" ~count:40 arb_query
    (fun text ->
      let st, _, _, _, _, _ = build () in
      let norm = ok (Rpe.validate (Store.schema st) (Rpe_parser.parse_exn text)) in
      let snap = ok (Q.Eval_rpe.find (conn st) ~tc:Time_constraint.snapshot norm) in
      let hist =
        ok
          (Q.Eval_rpe.find (conn st)
             ~tc:(Time_constraint.at (Store.clock st))
             norm)
      in
      List.map Q.Path.key snap = List.map Q.Path.key hist)

let prop_anchor_choice_irrelevant =
  QCheck.Test.make ~name:"worst anchor returns the same paths" ~count:40
    arb_query (fun text ->
      let st, _, _, _, _, _ = build () in
      let norm = ok (Rpe.validate (Store.schema st) (Rpe_parser.parse_exn text)) in
      let best = ok (Q.Eval_rpe.find (conn st) ~tc:Time_constraint.snapshot norm) in
      let worst =
        ok
          (Q.Eval_rpe.find (conn st) ~tc:Time_constraint.snapshot
             ~anchor:`Costliest norm)
      in
      List.map Q.Path.key best = List.map Q.Path.key worst)

(* ---------------- pathway identity and allocation ---------------- *)

let path_of_uids uids =
  {
    Q.Path.elements =
      List.mapi
        (fun i uid ->
          {
            Q.Path.uid;
            cls = (if i mod 2 = 0 then "Host" else "Connects");
            fields = Nepal_util.Strmap.empty;
            is_node = i mod 2 = 0;
          })
        uids;
    valid = None;
  }

(* Over 1,000 calls of [f], fewer than 1,000 words in all means none
   per call. *)
let per_call name f =
  let n = 1_000 in
  let used, () =
    Words.during (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  if used >= float_of_int n then
    Alcotest.failf "%s: %.0f words over %d calls" name used n

(* Joins, sorts and row deduplication call these per candidate pair, so
   they walk the element lists in place. *)
let test_path_ops_allocation_free () =
  let a = path_of_uids [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  and b = path_of_uids [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  and c = path_of_uids [ 1; 2; 3; 4; 5; 6; 7; 10; 11 ] in
  per_call "compare" (fun () -> Q.Path.compare a c);
  per_call "equal" (fun () -> Q.Path.equal a b);
  per_call "hash" (fun () -> Q.Path.hash a);
  per_call "target" (fun () -> (Q.Path.target a).Q.Path.uid);
  per_call "length" (fun () -> Q.Path.length a);
  check_int "target" 9 (Q.Path.target a).Q.Path.uid;
  check_int "length" 4 (Q.Path.length a)

(* Extend checks every candidate against the walk's atoms, so the
   predicate and class tests it makes per candidate must allocate
   nothing. *)
let test_predicate_allocation_free () =
  let sch = schema () in
  let fs = fields [ ("id", i 21); ("status", Value.Str "Green") ] in
  let module P = Nepal_rpe.Predicate in
  let eq = P.Cmp ([ "status" ], P.Eq, Value.Str "Red") in
  let missing = P.Cmp ([ "name" ], P.Lt, Value.Str "x") in
  let nested = P.Cmp ([ "status"; "x" ], P.Eq, i 1) in
  per_call "eval Cmp" (fun () -> P.eval eq fs);
  per_call "eval Cmp, absent field" (fun () -> P.eval missing fs);
  per_call "eval Cmp, field path" (fun () -> P.eval nested fs);
  per_call "is_subclass" (fun () -> Schema.is_subclass sch ~sub:"HostedOn" ~sup:"Vertical");
  per_call "is_subclass, unknown" (fun () -> Schema.is_subclass sch ~sub:"Nope" ~sup:"Vertical");
  per_call "kind_of" (fun () -> Schema.kind_of sch "VNF_DNS");
  check_bool "eval" false (P.eval eq fs);
  check_bool "is_subclass" true (Schema.is_subclass sch ~sub:"HostedOn" ~sup:"Vertical")

(* A flat-legacy hub with [degree] in-edges, all of the noise
   indicator, and the hub's element. *)
let legacy_hub degree =
  let module L = Nepal_wrap.Legacy in
  let st = Store.create (L.schema L.Flat) in
  let node id =
    ok
      (Store.insert_node st ~at:t0 ~cls:"LegacyNode"
         ~fields:(fields [ ("id", i id); ("layer", Value.Str "logical") ]))
  in
  let hub = node 0 in
  for k = 1 to degree do
    ignore
      (ok
         (Store.insert_edge st ~at:t0 ~cls:"LegacyEdge" ~src:(node k) ~dst:hub
            ~fields:(fields [ ("type_indicator", Value.Str "noise") ])))
  done;
  match Store.get st ~tc:Time_constraint.snapshot hub with
  | Some e -> (st, e.Nepal_store.Entity.elem)
  | None -> assert false

(* One bottom-up Extend round from a hub whose edges all have the
   walk's class but match none of its atoms (the vertical indicators
   of Table 2's bottom-up query): the native backend checks the atoms
   where the adjacency is stored, so the round allocates the same
   words at 500 and at 5,000 in-edges. *)
let test_hub_extend_allocation () =
  let module P = Nepal_rpe.Predicate in
  let edge pred = { Rpe.cls = "LegacyEdge"; pred; span = Nepal_rpe.Span.dummy } in
  let vertical ind = edge (P.Cmp ([ "type_indicator" ], P.Eq, Value.Str ind)) in
  let spec =
    { Q.Backend_intf.atoms = List.map vertical [ "vert_a"; "vert_b"; "vert_c" ];
      with_skip = false }
  in
  let round (st, hub) spec =
    Q.Native_backend.bulk_extend st ~tc:Time_constraint.snapshot
      ~dir:Q.Backend_intf.Bwd ~spec
      [ { Q.Backend_intf.item_id = 0; frontier = hub; prefix = [ hub ] } ]
  in
  let words degree =
    let h = legacy_hub degree in
    let all, _ = round h { spec with atoms = [ edge P.True ] } in
    check_int "hub in-degree" degree (List.length all);
    ignore (round h spec);
    let used, (out, _) = Words.during (fun () -> round h spec) in
    check_int "no edge matches" 0 (List.length out);
    used
  in
  let small = words 500 and big = words 5_000 in
  if big > small then
    Alcotest.failf "%.0f words at 5,000 in-edges against %.0f at 500" big small

(* Small uids and short paths, so equal pairs are common. *)
let arb_path_pair =
  let path = QCheck.(map path_of_uids (list_of_size Gen.(0 -- 5) (int_range 0 3))) in
  QCheck.pair path path

let prop_compare_matches_key =
  QCheck.Test.make ~name:"Path.compare orders as the uid keys do" ~count:500
    arb_path_pair (fun (a, b) ->
      Int.compare (Q.Path.compare a b) 0
      = Int.compare (compare (Q.Path.key a) (Q.Path.key b)) 0)

let prop_hash_agrees_with_equal =
  QCheck.Test.make ~name:"Path.hash agrees with Path.equal" ~count:500
    arb_path_pair (fun (a, b) ->
      Q.Path.equal a b = (Q.Path.key a = Q.Path.key b)
      && ((not (Q.Path.equal a b)) || Q.Path.hash a = Q.Path.hash b))

(* A reverse service path on a small flat legacy graph: thousands of
   pathways grown backward from one sink. The bound is the measured
   words per returned pathway plus 15%; evaluation that copies or
   re-keys finished pathways to compare, join or deduplicate them
   allocates about three times as much. Sequential, so the count is
   deterministic. *)
let reverse_path_words_per_path = 300.

let test_reverse_path_allocation () =
  let module L = Nepal_wrap.Legacy in
  let t = L.generate ~nodes:2_000 L.Flat in
  let st = t.L.store in
  let query = L.q_reverse_path t ~sink:t.L.service_sink_ids.(0) in
  let rpe =
    let m = "MATCHES " in
    let rec at i = if String.sub query i (String.length m) = m then i else at (i + 1) in
    let from = at 0 + String.length m in
    String.sub query from (String.length query - from)
  in
  let norm = ok (Rpe.validate (Store.schema st) (Rpe_parser.parse_exn rpe)) in
  let c = conn st in
  let run () =
    ok
      (Q.Eval_rpe.find c ~tc:Time_constraint.snapshot
         ~config:{ Q.Eval_rpe.domains = 1; par_threshold = 4 }
         norm)
  in
  ignore (run ());
  let used, paths = Words.during run in
  let n = List.length paths in
  check_bool "thousands of pathways" true (n > 1_000);
  let per_path = used /. float_of_int n in
  let bound = reverse_path_words_per_path *. 1.15 in
  if per_path > bound then
    Alcotest.failf "%.0f words per pathway over %d pathways (bound %.0f)"
      per_path n bound

let () =
  Alcotest.run "nepal_eval"
    [
      ( "anchored",
        [
          Alcotest.test_case "explicit chain" `Quick test_explicit_chain;
          Alcotest.test_case "generic vertical" `Quick test_generic_vertical;
          Alcotest.test_case "top-down vs bottom-up" `Quick
            test_top_down_vs_bottom_up_same_answers;
          Alcotest.test_case "horizontal physical" `Quick test_horizontal_physical;
          Alcotest.test_case "predicates" `Quick test_edge_predicate_and_status;
          Alcotest.test_case "no results" `Quick test_no_results;
          Alcotest.test_case "alternation" `Quick test_alternation_eval;
          Alcotest.test_case "unanchored rejected" `Quick test_unanchored_rejected;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "from nodes" `Quick test_seeded_from;
          Alcotest.test_case "to nodes" `Quick test_seeded_to;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "timeslice" `Quick test_timeslice;
          Alcotest.test_case "time-range maximal intervals" `Quick
            test_time_range_maximal_intervals;
          Alcotest.test_case "field-change validity" `Quick test_range_with_field_change;
        ] );
      ("troubleshooting", [ Alcotest.test_case "shared fate" `Quick test_shared_fate ]);
      ("shortest", [ Alcotest.test_case "shortest paths" `Quick test_shortest_paths ]);
      ( "allocation",
        [
          Alcotest.test_case "path identity allocation-free" `Quick
            test_path_ops_allocation_free;
          Alcotest.test_case "reverse path words per pathway" `Quick
            test_reverse_path_allocation;
          Alcotest.test_case "predicate and class checks allocation-free" `Quick
            test_predicate_allocation_free;
          Alcotest.test_case "hub Extend words independent of degree" `Quick
            test_hub_extend_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_paths_satisfy_rpe;
            prop_snapshot_equals_timeslice_now;
            prop_anchor_choice_irrelevant;
            prop_compare_matches_key;
            prop_hash_agrees_with_equal;
          ] );
    ]
