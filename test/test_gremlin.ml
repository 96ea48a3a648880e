(* The property-graph substrate: label-prefix concept matching,
   traversal steps, channels, Gremlin text rendering — and the
   schema-free "loads garbage silently" behaviour the paper contrasts
   Nepal against (Section 6.1). *)

open Nepal_gremlin
module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let props l = Strmap.of_list l
let i n = Value.Int n
let s x = Value.Str x

let small_graph () =
  let g = Pgraph.create () in
  let vnf = Pgraph.add_vertex g ~label:"Node:VNF:VNF_DNS" (props [ ("id", i 1) ]) in
  let vfc = Pgraph.add_vertex g ~label:"Node:VFC" (props [ ("id", i 2) ]) in
  let vm = Pgraph.add_vertex g ~label:"Node:Container:VM:VMWare"
      (props [ ("id", i 3); ("status", s "Green") ])
  in
  let host = Pgraph.add_vertex g ~label:"Node:Host" (props [ ("id", i 4) ]) in
  let e1 = Pgraph.add_edge g ~label:"Edge:Vertical:ComposedOf" ~src:vnf ~dst:vfc (props []) in
  let e2 = Pgraph.add_edge g ~label:"Edge:Vertical:HostedOn:OnVM" ~src:vfc ~dst:vm (props []) in
  let e3 = Pgraph.add_edge g ~label:"Edge:Vertical:HostedOn:OnServer" ~src:vm ~dst:host (props []) in
  (g, vnf, vfc, vm, host, e1, e2, e3)

(* ---------------- pgraph ---------------- *)

let test_label_prefix_matching () =
  let g, _, _, _, _, _, _, _ = small_graph () in
  check_int "all nodes" 4 (List.length (Pgraph.vertices_by_label_prefix g "Node"));
  check_int "containers" 1 (List.length (Pgraph.vertices_by_label_prefix g "Node:Container"));
  check_int "VM concept" 1 (List.length (Pgraph.vertices_by_label_prefix g "Node:Container:VM"));
  (* Segment-aware: "Node:V" must not match "Node:VNF...". *)
  check_int "partial segment no match" 0
    (List.length (Pgraph.vertices_by_label_prefix g "Node:V"));
  check_int "vertical edges" 3 (List.length (Pgraph.edges_by_label_prefix g "Edge:Vertical"));
  check_int "hosted_on edges" 2
    (List.length (Pgraph.edges_by_label_prefix g "Edge:Vertical:HostedOn"))

let test_adjacency_and_removal () =
  let g, _vnf, vfc, vm, _, _, e2, _ = small_graph () in
  check_int "vfc out" 1 (List.length (Pgraph.out_edges g vfc));
  check_int "vm in" 1 (List.length (Pgraph.in_edges g vm));
  Pgraph.remove g e2;
  check_int "edge gone" 0 (List.length (Pgraph.out_edges g vfc));
  (* Removing a vertex drops incident edges. *)
  Pgraph.remove g vm;
  check_int "vm incident edges gone" 3 (Pgraph.vertex_count g)

let test_property_graph_accepts_garbage () =
  (* The contrast of Section 6.1: no schema, no warnings. *)
  let g = Pgraph.create () in
  let v1 = Pgraph.add_vertex g ~label:"Whatever" (props [ ("id", s "not-an-int") ]) in
  let v2 = Pgraph.add_vertex g ~label:"Whatever" (props [ ("id", Value.Bool true) ]) in
  ignore (Pgraph.add_edge g ~label:"Nonsense:::" ~src:v1 ~dst:v2 (props []));
  check_int "garbage loaded silently" 2 (Pgraph.vertex_count g);
  (* The only check a property graph gives you: dangling endpoints. *)
  Alcotest.check_raises "dangling endpoint"
    (Invalid_argument "Pgraph.add_edge: endpoints must be existing vertices")
    (fun () -> ignore (Pgraph.add_edge g ~label:"x" ~src:v1 ~dst:999 (props [])))

(* ---------------- traversals ---------------- *)

let run_ids g steps =
  List.map (fun (e : Pgraph.element) -> e.id)
    (Traversal.results g (Traversal.run g steps))

let test_traversal_chain () =
  let g, vnf, _, _, host, _, _, _ = small_graph () in
  let ids =
    run_ids g
      [
        Traversal.V;
        Traversal.Has_label "Node:VNF";
        Traversal.Out_e;
        Traversal.In_v;
        Traversal.Out_e;
        Traversal.In_v;
        Traversal.Out_e;
        Traversal.In_v;
      ]
  in
  check_bool "reaches host" true (ids = [ host ]);
  let back = run_ids g [ Traversal.V_ids [ host ]; Traversal.In_e; Traversal.Out_v ] in
  check_bool "back one hop lands on vm" true (List.length back = 1);
  ignore vnf

let test_traversal_repeat_emit () =
  let g, vnf, vfc, vm, host, _, _, _ = small_graph () in
  (* repeat(out().in()).times(1..3).emit() from the VNF reaches the
     three lower layers. *)
  let ids =
    run_ids g
      [
        Traversal.V_ids [ vnf ];
        Traversal.Repeat ([ Traversal.Out_e; Traversal.In_v ], 1, 3);
      ]
  in
  check_bool "emits every layer" true
    (List.sort_uniq Int.compare ids = List.sort_uniq Int.compare [ vfc; vm; host ])

let test_traversal_union_and_has () =
  let g, _, _, _, _, _, _, _ = small_graph () in
  let ids =
    run_ids g
      [
        Traversal.V;
        Traversal.Union
          [
            [ Traversal.Has_label "Node:VNF" ];
            [ Traversal.Has ("status", Traversal.Eq, s "Green") ];
          ];
      ]
  in
  check_int "vnf + green vm" 2 (List.length ids)

let test_traversal_simple_path () =
  let g = Pgraph.create () in
  let a = Pgraph.add_vertex g ~label:"N" (props []) in
  let b = Pgraph.add_vertex g ~label:"N" (props []) in
  ignore (Pgraph.add_edge g ~label:"E" ~src:a ~dst:b (props []));
  ignore (Pgraph.add_edge g ~label:"E" ~src:b ~dst:a (props []));
  let without =
    run_ids g
      [ Traversal.V_ids [ a ];
        Traversal.Repeat ([ Traversal.Out_e; Traversal.In_v ], 2, 2) ]
  in
  check_int "cycles back without simplePath" 1 (List.length without);
  let with_simple =
    run_ids g
      [ Traversal.V_ids [ a ];
        Traversal.Repeat ([ Traversal.Out_e; Traversal.In_v ], 2, 2);
        Traversal.Simple_path ]
  in
  check_int "simplePath prunes the cycle" 0 (List.length with_simple)

let test_traversal_paths () =
  let g, vnf, vfc, _, _, e1, _, _ = small_graph () in
  let trs =
    Traversal.run g [ Traversal.V_ids [ vnf ]; Traversal.Out_e; Traversal.In_v ]
  in
  match Traversal.paths g trs with
  | [ path ] ->
      check_bool "full pathway recorded" true
        (List.map (fun (e : Pgraph.element) -> e.id) path = [ vnf; e1; vfc ])
  | _ -> Alcotest.fail "expected one path"

let test_gremlin_rendering () =
  let text =
    Traversal.to_gremlin
      [
        Traversal.V;
        Traversal.Has_label "Node:VM";
        Traversal.Has ("id", Traversal.Eq, i 55);
        Traversal.Repeat ([ Traversal.Out_e; Traversal.In_v ], 1, 4);
      ]
  in
  let contains ~affix s =
    let n = String.length s and m = String.length affix in
    let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
    go 0
  in
  check_bool "starts with g." true (String.length text > 2 && String.sub text 0 2 = "g.");
  check_bool "label prefix step" true (contains ~affix:"hasLabel(startingWith('Node:VM'))" text);
  check_bool "has step" true (contains ~affix:"has('id', 55)" text);
  check_bool "repeat step" true (contains ~affix:"repeat(outE().inV()).times(1..4)" text)


let test_temporal_steps () =
  let g = Pgraph.create () in
  let tp = Nepal_temporal.Time_point.of_string_exn in
  let period a b =
    Value.List
      [
        Value.Time (tp a);
        (match b with None -> Value.Null | Some x -> Value.Time (tp x));
      ]
  in
  let v_old =
    Pgraph.add_vertex g ~label:"Node:VM"
      (props [ ("sys_period", period "2017-02-01 00:00" (Some "2017-02-05 00:00")) ])
  in
  let v_live =
    Pgraph.add_vertex g ~label:"Node:VM"
      (props [ ("sys_period", period "2017-02-03 00:00" None) ])
  in
  ignore v_old;
  ignore v_live;
  let ids steps = run_ids g (Traversal.V :: steps) in
  check_int "current sees only live" 1
    (List.length (ids [ Traversal.Has_period_current ]));
  check_int "slice at overlap sees both" 2
    (List.length (ids [ Traversal.Has_period_at (tp "2017-02-04 00:00") ]));
  check_int "slice before live's birth" 1
    (List.length (ids [ Traversal.Has_period_at (tp "2017-02-02 00:00") ]));
  check_int "window overlap" 2
    (List.length
       (ids [ Traversal.Has_period_overlaps (tp "2017-02-01 12:00", tp "2017-02-03 12:00") ]));
  check_int "window after old's death" 1
    (List.length
       (ids [ Traversal.Has_period_overlaps (tp "2017-02-06 00:00", tp "2017-02-07 00:00") ]))

(* ---------------- label index ---------------- *)

(* Segment-boundary traps, a label with no ':', an edge labelled like a
   vertex concept, first segments whose hashes collide ("Aa" and "BB"),
   and removals (a vertex removal drops its edges). *)
let trap_graph () =
  let g = Pgraph.create () in
  let v label k = Pgraph.add_vertex g ~label (props [ ("w", i k) ]) in
  let a = v "Node:VM" 1 and b = v "Node:VMX" 2 and c = v "Node:VM:X" 3 in
  let d = v "Node" 4 and e = v "NodeX" 5 and f = v "Whatever" 6 in
  let gone = v "Node:VM:X" 7 in
  ignore (v "Aa" 8);
  ignore (v "BB:X" 9);
  let edge label src dst k = Pgraph.add_edge g ~label ~src ~dst (props [ ("w", i k) ]) in
  ignore (edge "Edge:L" a b 1);
  ignore (edge "Edge:L:M" b c 2);
  ignore (edge "Node:VM" c d 3);
  ignore (edge "Edge:LX" d e 4);
  ignore (edge "Whatever" e f 5);
  ignore (edge "Edge:L" gone a 6);
  let dropped = edge "Edge:L:M" a c 7 in
  Pgraph.remove g gone;
  Pgraph.remove g dropped;
  g

let trap_prefixes =
  [ "Node"; "Node:VM"; "Node:VMX"; "Node:VM:X"; "Node:V"; "Node:"; "NodeX";
    "Edge"; "Edge:L"; "Edge:L:M"; "Whatever"; "Nope"; ""; "Aa"; "BB"; "BB:X" ]

(* The index-started V()/E().hasLabel(p) must hand back exactly the
   traversers of the generic step fold, followed by more steps or not. *)
let test_index_start_matches_fold () =
  let g = trap_graph () in
  let tails =
    [ []; [ Traversal.Has ("w", Traversal.Gt, i 1) ]; [ Traversal.Out_e; Traversal.In_v ];
      [ Traversal.Out_v ] ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun start ->
          List.iter
            (fun tail ->
              let steps = start :: Traversal.Has_label p :: tail in
              let fold = List.fold_left (Traversal.apply g) [] steps in
              if Traversal.run g steps <> fold then
                Alcotest.failf "index start differs from the fold for %s"
                  (Traversal.to_gremlin steps))
            tails)
        [ Traversal.V; Traversal.E ])
    trap_prefixes

let test_counts_match_lists () =
  let g = trap_graph () in
  check_int "vertex_count" (List.length (Pgraph.vertices g)) (Pgraph.vertex_count g);
  check_int "edge_count" (List.length (Pgraph.edges g)) (Pgraph.edge_count g);
  check_int "traps removed" 8 (Pgraph.vertex_count g);
  check_int "Node:VM vertices" 2 (List.length (Pgraph.vertices_by_label_prefix g "Node:VM"));
  check_int "colliding segments kept apart" 1 (Pgraph.label_prefix_count g ~vertices:true "BB");
  List.iter
    (fun p ->
      check_int ("vertices " ^ p)
        (List.length (Pgraph.vertices_by_label_prefix g p))
        (Pgraph.label_prefix_count g ~vertices:true p);
      check_int ("edges " ^ p)
        (List.length (Pgraph.edges_by_label_prefix g p))
        (Pgraph.label_prefix_count g ~vertices:false p))
    trap_prefixes

(* The counts kept at mutation time equal a full fold over the elements
   after every one of a random sequence of vertex and edge additions and
   removals over the trap labels (a vertex removal also drops its
   edges). *)
let test_counts_match_fold () =
  let g = trap_graph () in
  let labels = Array.of_list (List.filter (( <> ) "") trap_prefixes) in
  let rng = Random.State.make [| 7 |] in
  let live () = List.map (fun (e : Pgraph.element) -> e.Pgraph.id) (Pgraph.vertices g) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fold ~vertices p =
    List.length
      (List.filter
         (fun (e : Pgraph.element) ->
           Pgraph.is_vertex e = vertices && Pgraph.label_has_prefix ~prefix:p e.Pgraph.label)
         (Pgraph.vertices g @ Pgraph.edges g))
  in
  for step = 1 to 300 do
    let label = labels.(Random.State.int rng (Array.length labels)) in
    (match (Random.State.int rng 4, live ()) with
    | 0, _ | _, ([] | [ _ ]) -> ignore (Pgraph.add_vertex g ~label (props []))
    | 1, vs -> ignore (Pgraph.add_edge g ~label ~src:(pick vs) ~dst:(pick vs) (props []))
    | 2, vs -> Pgraph.remove g (pick vs)
    | _, _ -> (
        match Pgraph.edges g with
        | [] -> ()
        | es -> Pgraph.remove g (pick es).Pgraph.id));
    let what s = Printf.sprintf "step %d: %s" step s in
    check_int (what "vertex_count") (List.length (Pgraph.vertices g)) (Pgraph.vertex_count g);
    check_int (what "edge_count") (List.length (Pgraph.edges g)) (Pgraph.edge_count g);
    List.iter
      (fun p ->
        check_int (what ("vertices " ^ p)) (fold ~vertices:true p)
          (Pgraph.label_prefix_count g ~vertices:true p);
        check_int (what ("edges " ^ p)) (fold ~vertices:false p)
          (Pgraph.label_prefix_count g ~vertices:false p))
      trap_prefixes
  done

(* Words allocated while [f] runs, minor and direct-to-major alike
   (Gc.quick_stat is only refreshed by collections). *)
let words_during f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  f ();
  words () -. w0

(* Cost probes run the prefix test and the counts several times per
   query; over [n] calls each, fewer than [n] words means none per call. *)
let test_prefix_probes_allocation_free () =
  let g = trap_graph () in
  let n = 1_000 in
  let per_call name f =
    let used =
      words_during (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    if used >= float_of_int n then
      Alcotest.failf "%s: %.0f words over %d calls" name used n
  in
  per_call "label_has_prefix" (fun () ->
      Pgraph.label_has_prefix ~prefix:"Node:VM" "Node:VM:X"
      && not (Pgraph.label_has_prefix ~prefix:"Node:VM" "Node:VMX"));
  per_call "label_prefix_count" (fun () ->
      Pgraph.label_prefix_count g ~vertices:true "Node:VM"
      + Pgraph.label_prefix_count g ~vertices:false "Edge");
  per_call "vertex_count + edge_count" (fun () ->
      Pgraph.vertex_count g + Pgraph.edge_count g)

let () =
  Alcotest.run "nepal_gremlin"
    [
      ( "pgraph",
        [
          Alcotest.test_case "label prefixes" `Quick test_label_prefix_matching;
          Alcotest.test_case "adjacency & removal" `Quick test_adjacency_and_removal;
          Alcotest.test_case "garbage accepted silently" `Quick
            test_property_graph_accepts_garbage;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "chain" `Quick test_traversal_chain;
          Alcotest.test_case "repeat/emit" `Quick test_traversal_repeat_emit;
          Alcotest.test_case "union + has" `Quick test_traversal_union_and_has;
          Alcotest.test_case "simplePath" `Quick test_traversal_simple_path;
          Alcotest.test_case "path recording" `Quick test_traversal_paths;
          Alcotest.test_case "gremlin text" `Quick test_gremlin_rendering;
          Alcotest.test_case "temporal steps" `Quick test_temporal_steps;
          Alcotest.test_case "index start = step fold" `Quick
            test_index_start_matches_fold;
        ] );
      ( "label index",
        [
          Alcotest.test_case "counts = list lengths" `Quick test_counts_match_lists;
          Alcotest.test_case "counts = fold after mutations" `Quick
            test_counts_match_fold;
          Alcotest.test_case "prefix probes allocation-free" `Quick
            test_prefix_probes_allocation_free;
        ] );
    ]
