(* Cost-based plan compiler (lib/planner): planned results equal the
   reference evaluator's (test/reference.ml) on all three backends
   (QCheck), golden EXPLAIN output for the Table-1 families, the plan as
   a function of the query and the store, the chosen plan against every
   forced alternative in allocated words, and product-automaton pruning
   (language preservation + memoized masks). *)

module Nepal = Core.Nepal
module Virt = Nepal.Virt_service

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let contains_line lines needle =
  List.exists
    (fun l ->
      let n = String.length needle and ln = String.length l in
      let rec go i = i + n <= ln && (String.sub l i n = needle || go (i + 1)) in
      go 0)
    lines

(* A small virtualized service with history, mirrored to all targets. *)
let build () =
  let vs =
    Virt.generate ~seed:11 ~vnf_count:6 ~server_count:12 ~virtual_networks:8 ()
  in
  Virt.simulate_history ~seed:12 ~days:8 ~events_per_day:6 vs;
  let db = Nepal.of_store vs.Virt.store in
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

let explain_lines conn q =
  match ok (Nepal.query_on conn q) with
  | Nepal.Engine.Table { columns = [ "explain" ]; rows } ->
      List.map
        (function
          | [ Nepal.Value.Str l ] -> l
          | _ -> Alcotest.fail "explain row is not a single string")
        rows
  | _ -> Alcotest.fail "expected an explain table"

(* ---------------- QCheck: planned = reference ---------------- *)

(* Random single-pathway queries over the virtualized topology: a
   Table-1/2 shape with random literals, repetition bounds and temporal
   form. Whatever plan the compiler picks, every backend must return
   the reference evaluator's pathways (validity sets included). *)
let arb_case =
  let open QCheck in
  let gen =
    Gen.map3
      (fun shape (a, b) (k, tcpick) -> (shape, a, b, 2 + (k mod 5), tcpick))
      (Gen.int_bound 6)
      (Gen.pair (Gen.int_bound 1000) (Gen.int_bound 1000))
      (Gen.pair (Gen.int_bound 100) (Gen.int_bound 2))
  in
  make ~print:(fun (s, a, b, k, tc) -> Printf.sprintf "shape=%d a=%d b=%d k=%d tc=%d" s a b k tc) gen

let rpe_of_case (shape, a, b, k, _) =
  let vs, _, _, _ = Lazy.force shared in
  let pick (arr : int array) i = arr.(i mod Array.length arr) in
  let vnf = pick vs.Virt.vnf_ids and srv = pick vs.Virt.server_ids in
  let cont = pick vs.Virt.container_ids in
  match shape mod 7 with
  | 0 -> Printf.sprintf "VNF(id=%d)->[Vertical()]{1,%d}->Server()" (vnf a) k
  | 1 -> Printf.sprintf "VNF()->[Vertical()]{1,%d}->Server(id=%d)" k (srv b)
  | 2 ->
      Printf.sprintf "Server(id=%d)->[Connects()]{1,%d}->Server(id=%d)"
        (srv a) k (srv b)
  | 3 ->
      Printf.sprintf
        "Container(id=%d)->[VirtualLink()]{1,%d}->Container(id=%d)" (cont a)
        k (cont b)
  | 4 -> Printf.sprintf "VNF(id=%d)->ComposedOf()->VFC()" (vnf a)
  | 5 ->
      Printf.sprintf
        "VFC()->OnVM()->Container()->OnServer()->Server(id=%d)" (srv b)
  | _ ->
      Printf.sprintf "(VNF(id=%d)|VNF(id=%d))->[Vertical()]{1,3}->Container()"
        (vnf a) (vnf b)

let tc_of_case (_, _, _, _, tcpick) =
  let tp = Nepal.Time_point.of_string_exn in
  match tcpick with
  | 0 -> Nepal.Time_constraint.Snapshot
  | 1 -> Nepal.Time_constraint.At (tp "2017-02-10 00:00:00")
  | _ ->
      Nepal.Time_constraint.Range
        (tp "2017-02-01 00:00:00", tp "2017-03-01 00:00:00")

(* The reference answer for an RPE text under a constraint. *)
let reference_of rpe tc =
  let vs, db, _, _ = Lazy.force shared in
  let norm =
    ok (Nepal.Rpe.validate (Nepal.schema db) (Nepal.Rpe_parser.parse_exn rpe))
  in
  Reference.find_canon vs.Virt.store ~tc norm

let prop_planned_equals_reference =
  QCheck.Test.make ~name:"planned = reference on all backends"
    ~count:30 arb_case (fun case ->
      let rpe = rpe_of_case case and tc = tc_of_case case in
      let q = Reference.query_text tc rpe in
      let want = reference_of rpe tc in
      List.for_all
        (fun (name, conn) ->
          let got = Reference.of_result (ok (Nepal.query_on conn q)) in
          if got <> want then
            QCheck.Test.fail_reportf "%s: %s (%d vs %d pathways)\n%s\nreference:\n%s"
              name q (List.length got) (List.length want) (Reference.show got)
              (Reference.show want);
          true)
        (conns ()))

(* ---------------- golden EXPLAIN ---------------- *)

let test_explain_bidirectional () =
  let vs, db, _, _ = Lazy.force shared in
  let q =
    Virt.q_host_host ~hops:6 ~a:vs.Virt.server_ids.(0)
      ~b:vs.Virt.server_ids.(1)
  in
  let lines = explain_lines (Nepal.conn db) ("EXPLAIN " ^ q) in
  let want what cond = check_bool what true cond in
  want "planner header" (contains_line lines "Planner: cost-based");
  want "total estimated cost" (contains_line lines "total est cost ~");
  want "chosen plan line" (contains_line lines "    plan: bidirectional");
  want "estimated rows" (contains_line lines "est rows ~");
  want "rejected alternatives" (contains_line lines "    rejected: ");
  want "bidi union operator"
    (contains_line lines "    Union meet-in-the-middle on shared edge");
  want "forward half" (contains_line lines "    Extend fwd ");
  want "backward half" (contains_line lines "    Extend bwd ")

let test_explain_anchored () =
  (* No repetition, so no bidirectional candidate: the compiler must
     anchor, and at the literal-bearing VNF endpoint. *)
  let vs, db, _, _ = Lazy.force shared in
  let q =
    Printf.sprintf
      "Retrieve P From PATHS P Where P MATCHES VNF(id=%d)->ComposedOf()->VFC()"
      vs.Virt.vnf_ids.(0)
  in
  let lines = explain_lines (Nepal.conn db) ("EXPLAIN " ^ q) in
  check_bool "planner header" true (contains_line lines "Planner: cost-based");
  check_bool "anchored at the literal VNF" true
    (contains_line lines "plan: anchor \xe2\x9f\xa8VNF\xe2\x9f\xa9");
  check_bool "lists rejected alternatives" true
    (contains_line lines "    rejected: ")

(* ---------------- plan determinism ---------------- *)

(* The plan is a function of the query and the store: a Table-1 query's
   EXPLAIN text is the same cold, right after the query ran, after a
   same-shape query with another literal ran, and on a second store
   generated from the same seeds. *)
let test_plan_is_a_function () =
  let vs, db, _, _ = Lazy.force shared in
  let conn = Nepal.conn db in
  let q = Virt.q_top_down ~vnf_id:vs.Virt.vnf_ids.(0) in
  let explain conn = explain_lines conn ("EXPLAIN " ^ q) in
  let cold = explain conn in
  ignore (ok (Nepal.query_on conn q));
  Alcotest.(check (list string)) "after the query ran" cold (explain conn);
  ignore (ok (Nepal.query_on conn (Virt.q_top_down ~vnf_id:vs.Virt.vnf_ids.(1))));
  Alcotest.(check (list string)) "after another literal ran" cold (explain conn);
  let vs2, db2, _, _ = build () in
  check_bool "same seeds, same literal" true
    (vs2.Virt.vnf_ids.(0) = vs.Virt.vnf_ids.(0));
  Alcotest.(check (list string)) "on a second schema instance" cold
    (explain (Nepal.conn db2))

(* ---------------- chosen plan vs forced alternatives ---------------- *)

(* On the golden topology (test_golden's), the planner's plan for every
   Table-1 family in snapshot, AT and range form must allocate no more
   than any forced alternative — every anchor candidate plus the
   bidirectional plan where both endpoints are pinned, all with the same
   pruner — and the worst alternative at least five times as much. One
   domain and one warm-up run make the word counts exact. *)
let test_chosen_plan_allocates_least () =
  let vs =
    Virt.generate ~seed:5 ~vnf_count:6 ~server_count:12 ~virtual_networks:8 ()
  in
  Virt.simulate_history ~seed:6 ~days:10 ~events_per_day:8 vs;
  let db = Nepal.of_store vs.Virt.store in
  let conn = Nepal.conn db and schema = Nepal.schema db in
  let config = { Nepal.Eval_rpe.domains = 1; par_threshold = 4 } in
  let cost strategy prune (vp : Nepal.Engine.var_plan) =
    let run () =
      ok
        (Nepal.Eval_rpe.find conn ~tc:vp.vp_tc ~strategy ?prune ~config
           vp.vp_rpe)
    in
    ignore (run ());
    let w, paths = Words.during run in
    (w, List.length paths)
  in
  List.iter
    (fun (name, q) ->
      let plan = ok (Nepal.Engine.plan ~conn (ok (Nepal.Query_parser.parse q))) in
      let vp =
        match plan.Nepal.Engine.p_order with
        | [ vp ] -> vp
        | _ -> Alcotest.failf "%s: expected one pathway variable" name
      in
      let chosen, n = cost vp.vp_opt.vd_strategy vp.vp_opt.vd_prune vp in
      let prune = Some (Nepal.Analysis.pruner schema) in
      let anchored =
        Nepal.Anchor.enumerate ~cost:(Nepal.Backend.estimate_atom conn)
          vp.vp_rpe
        |> List.map (fun s -> Nepal.Eval_rpe.Forced s)
      in
      let bidi =
        match Nepal.Planner.bidi_of schema vp.vp_rpe with
        | Some bp -> [ Nepal.Eval_rpe.Bidi bp ]
        | None -> []
      in
      let alternatives =
        List.map
          (fun strategy ->
            let w, n' = cost strategy prune vp in
            check_int (name ^ ": same pathways") n n';
            w)
          (anchored @ bidi)
      in
      check_bool (name ^ ": has alternatives") true (List.length alternatives >= 2);
      let best = List.fold_left Float.min infinity alternatives in
      let worst = List.fold_left Float.max 0. alternatives in
      if chosen <> best then
        Alcotest.failf "%s: chosen plan allocates %.0f words, best alternative %.0f"
          name chosen best;
      if worst < 5. *. chosen then
        Alcotest.failf "%s: worst alternative allocates %.0f words, under 5x %.0f"
          name worst chosen)
    (let clock = Nepal.Time_point.to_string (Nepal.Graph_store.clock vs.Virt.store) in
     let born = Nepal.Time_point.to_string vs.Virt.born in
     List.concat_map
       (fun (family, q) ->
         [
           (family ^ " snapshot", q);
           (family ^ " AT", Printf.sprintf "AT '%s' %s" clock q);
           (family ^ " range", Printf.sprintf "AT '%s' : '%s' %s" born clock q);
         ])
       [
         ("top-down", Virt.q_top_down ~vnf_id:vs.Virt.vnf_ids.(0));
         ("bottom-up", Virt.q_bottom_up ~server_id:vs.Virt.server_ids.(0));
         ( "VM-VM(4)",
           Virt.q_vm_vm ~a:vs.Virt.container_ids.(0) ~b:vs.Virt.container_ids.(1) );
         ( "Host-Host(4)",
           Virt.q_host_host ~hops:4 ~a:vs.Virt.server_ids.(0)
             ~b:vs.Virt.server_ids.(1) );
         ( "Host-Host(6)",
           Virt.q_host_host ~hops:6 ~a:vs.Virt.server_ids.(0)
             ~b:vs.Virt.server_ids.(1) );
       ])

(* ---------------- product-automaton pruning ---------------- *)

let kind_of sch a =
  match Nepal.Rpe.atom_kind sch a with
  | Some Nepal.Schema.Node_kind -> Some `Node
  | Some Nepal.Schema.Edge_kind -> Some `Edge
  | None -> None

let compile_nfa sch text =
  let norm = ok (Nepal.Rpe.validate sch (Nepal.Rpe_parser.parse_exn text)) in
  (norm, Nepal_rpe.Nfa.compile ~kind_of:(kind_of sch) norm)

let test_prune_preserves_results () =
  let _, db, _, _ = Lazy.force shared in
  let conn = Nepal.conn db and sch = Nepal.schema db in
  let prune = Nepal.Analysis.pruner sch in
  List.iter
    (fun text ->
      let norm =
        ok (Nepal.Rpe.validate sch (Nepal.Rpe_parser.parse_exn text))
      in
      let tc = Nepal.Time_constraint.Snapshot in
      let plain = ok (Nepal.Eval_rpe.find conn ~tc norm) in
      let pruned = ok (Nepal.Eval_rpe.find conn ~tc ~prune norm) in
      if List.map Nepal.Path.key plain <> List.map Nepal.Path.key pruned then
        Alcotest.failf "pruning changed the result of %s" text)
    [
      "VNF()->[Vertical()]{1,6}->Server()";
      "Server()->[Connects()]{1,4}->Server()";
      "VFC()->OnVM()->Container()->OnServer()->Server()";
      "(VNF()|VFC())->[Vertical()]{1,3}->Container()";
    ]

let test_prune_kills_dead_walks () =
  (* Connects links servers; a VNF can never take it. The pruned
     automaton drops the dead transitions and the evaluation still
     (vacuously) agrees with the unpruned one. *)
  let _, db, _, _ = Lazy.force shared in
  let conn = Nepal.conn db and sch = Nepal.schema db in
  let text = "VNF()->Connects()->VNF()" in
  let norm, nfa = compile_nfa sch text in
  let prune = Nepal.Analysis.pruner sch in
  let pruned_nfa = prune ~dir:Nepal.Backend.Fwd nfa in
  check_bool "pruning removed transitions" true
    (Nepal_rpe.Nfa.move_count pruned_nfa < Nepal_rpe.Nfa.move_count nfa);
  let tc = Nepal.Time_constraint.Snapshot in
  check_int "walk is dead either way" 0
    (List.length (ok (Nepal.Eval_rpe.find conn ~tc ~prune norm)))

let test_prune_mask_memoized () =
  (* Two automata for the same shape with different literals share the
     memoized mask and prune identically. *)
  let _, db, _, _ = Lazy.force shared in
  let sch = Nepal.schema db in
  let prune = Nepal.Analysis.pruner sch in
  let _, nfa_a = compile_nfa sch "VNF(id=1)->[Vertical()]{1,6}->Server()" in
  let _, nfa_b = compile_nfa sch "VNF(id=2)->[Vertical()]{1,6}->Server()" in
  check_bool "same class-level signature" true
    (Nepal_rpe.Nfa.signature nfa_a = Nepal_rpe.Nfa.signature nfa_b);
  let pa = prune ~dir:Nepal.Backend.Fwd nfa_a in
  let pb = prune ~dir:Nepal.Backend.Fwd nfa_b in
  check_int "identical pruning verdicts" (Nepal_rpe.Nfa.move_count pa)
    (Nepal_rpe.Nfa.move_count pb)

let () =
  Alcotest.run "nepal_planner"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_planned_equals_reference ] );
      ( "explain",
        [
          Alcotest.test_case "bidirectional plan" `Quick
            test_explain_bidirectional;
          Alcotest.test_case "anchored plan" `Quick test_explain_anchored;
        ] );
      ( "plan",
        [
          Alcotest.test_case "function of query and store" `Quick
            test_plan_is_a_function;
        ] );
      ( "chosen plan",
        [
          Alcotest.test_case "allocates least" `Quick
            test_chosen_plan_allocates_least;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "preserves results" `Quick
            test_prune_preserves_results;
          Alcotest.test_case "kills dead walks" `Quick
            test_prune_kills_dead_walks;
          Alcotest.test_case "masks memoized" `Quick test_prune_mask_memoized;
        ] );
    ]
