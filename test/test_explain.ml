(* EXPLAIN / EXPLAIN ANALYZE smoke: one query per Table-1 family, on
   both the relational and gremlin backends. Checks the report shape
   (planned DAG with backend requests; measured span tree with
   per-operator totals), not exact text. *)

module Nepal = Core.Nepal
module Virt = Nepal.Virt_service

let check_bool = Alcotest.(check bool)

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let setup =
  lazy
    (let t = Virt.generate ~seed:42 () in
     let db = Nepal.of_store t.Virt.store in
     let rb = ok (Nepal.to_relational db) in
     let gb = ok (Nepal.to_gremlin db) in
     let families =
       [
         ("Top-down", Virt.q_top_down ~vnf_id:t.Virt.vnf_ids.(0));
         ("Bottom-up", Virt.q_bottom_up ~server_id:t.Virt.server_ids.(0));
         ( "VM-VM (4)",
           Virt.q_vm_vm ~a:t.Virt.container_ids.(0) ~b:t.Virt.container_ids.(1) );
         ( "Host-Host (4)",
           Virt.q_host_host ~hops:4 ~a:t.Virt.server_ids.(0)
             ~b:t.Virt.server_ids.(1) );
       ]
     in
     ( [
         ("relational", Nepal.relational_conn rb);
         ("gremlin", Nepal.gremlin_conn gb);
       ],
       families ))

let explain_lines conn q =
  match ok (Nepal.query_on conn q) with
  | Nepal.Engine.Table { columns = [ "explain" ]; rows } ->
      List.map
        (function
          | [ Nepal.Value.Str l ] -> l
          | _ -> Alcotest.fail "explain row is not a single string")
        rows
  | _ -> Alcotest.fail "expected an explain table"

let contains lines needle =
  List.exists
    (fun l ->
      let n = String.length needle and ln = String.length l in
      let rec go i = i + n <= ln && (String.sub l i n = needle || go (i + 1)) in
      go 0)
    lines

let test_explain_plan () =
  let conns, families = Lazy.force setup in
  List.iter
    (fun (backend, conn) ->
      List.iter
        (fun (family, q) ->
          let lines = explain_lines conn ("EXPLAIN " ^ q) in
          let want what cond =
            check_bool
              (Printf.sprintf "%s/%s: %s" backend family what)
              true cond
          in
          want "has query header" (contains lines "Query (retrieve");
          want "has Var operator" (contains lines "  Var ");
          want "has Select operator" (contains lines "    Select ");
          want "has Extend operator" (contains lines "    Extend ");
          want "has cost estimate" (contains lines "    cost: ~");
          (* The planned backend request is rendered verbatim. *)
          (match backend with
          | "relational" -> want "emits SQL" (contains lines "SELECT ")
          | _ -> want "emits Gremlin" (contains lines "g.V"));
          want "has Result operator" (contains lines "  Result retrieve"))
        families)
    conns

let test_explain_analyze () =
  let conns, families = Lazy.force setup in
  List.iter
    (fun (backend, conn) ->
      List.iter
        (fun (family, q) ->
          let lines = explain_lines conn ("EXPLAIN ANALYZE " ^ q) in
          let want what cond =
            check_bool
              (Printf.sprintf "%s/%s: %s" backend family what)
              true cond
          in
          want "has measured root" (contains lines "Query  (wall=");
          want "has Select span" (contains lines "Select ");
          want "has Extend span" (contains lines "Extend ");
          want "has row counts" (contains lines "rows_out=");
          want "has backend round-trips" (contains lines "calls=");
          want "has per-operator totals" (contains lines "per-operator totals:"))
        families)
    conns

let test_analyze_spans_account_for_latency () =
  let conns, families = Lazy.force setup in
  let conn = List.assoc "relational" conns in
  let q = List.assoc "VM-VM (4)" families in
  match ok (Nepal.Engine.run_string_traced ~conn q) with
  | _, root ->
      let total = root.Nepal.Trace.wall_s in
      let per_op = Nepal.Trace.per_operator root in
      let sum =
        List.fold_left (fun acc (_, a) -> acc +. a.Nepal.Trace.a_wall_s) 0. per_op
      in
      check_bool "operators measured" true (per_op <> []);
      (* Loose accounting check: operator spans cover the bulk of the
         query and never exceed it (plus scheduling noise). *)
      check_bool
        (Printf.sprintf "span sum %.6fs within query total %.6fs" sum total)
        true
        (sum <= (total *. 1.2) +. 0.002)

let test_metrics_registry_populated () =
  let conns, families = Lazy.force setup in
  Nepal.Metrics.reset_all ();
  let conn = List.assoc "relational" conns in
  let q = List.assoc "Top-down" families in
  (match Nepal.query_on conn q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "query failed: %s" e);
  let snap = Nepal.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap.Nepal.Metrics.counter_values with
    | Some v -> v
    | None -> 0
  in
  check_bool "engine.queries counted" true (counter "engine.queries" >= 1);
  check_bool "eval.selects counted" true (counter "eval.selects" >= 1);
  check_bool "backend round-trips counted" true
    (counter "backend.relational.roundtrips" >= 1);
  check_bool "query duration histogram populated" true
    (List.exists
       (fun h ->
         h.Nepal.Metrics.name = "engine.query_seconds"
         && h.Nepal.Metrics.count >= 1)
       snap.Nepal.Metrics.histogram_values)

let test_explain_errors_propagate () =
  let conns, _ = Lazy.force setup in
  let _, conn = List.hd conns in
  List.iter
    (fun q ->
      match Nepal.query_on conn q with
      | Ok _ -> Alcotest.failf "accepted %S" q
      | Error _ -> ())
    [
      "EXPLAIN Retrieve P From PATHS P Where P MATCHES NoSuchClass()";
      "EXPLAIN ANALYZE Retrieve P From PATHS P Where P MATCHES NoSuchClass()";
      "EXPLAIN AT '2017-02-30 10:00:00' Retrieve P From PATHS P Where P MATCHES VNF()";
    ]

(* A query whose NPL013 finding has a source span: the [P(@…)]
   declaration contradicts the AT window. *)
let q_npl013 =
  "AT '2017-02-15 10:00:00' : '2017-02-15 11:00:00' Retrieve P From \
   PATHS P(@'2019-01-01 00:00:00') Where P MATCHES VNF()->VFC()"

(* EXPLAIN's diagnostics are the analyzer's findings, rendered by
   [Diagnostic.to_string] in the analyzer's order; [`Strict] rejects
   with the error- and warning-severity subset of the same lines. The
   queries fire codes with a source span (NPL013, NPL016) and without
   one (NPL017, the warning form of NPL018). *)
let test_diagnostics_are_the_analyzers () =
  let conns, _ = Lazy.force setup in
  let conn = List.assoc "relational" conns in
  let queries =
    [
      ([ "NPL013" ], q_npl013);
      ( [ "NPL016"; "NPL017" ],
        "Retrieve P, Q From PATHS P, PATHS Q Where P MATCHES VNF()->VFC() \
         And Q MATCHES VM()->VirtualLink()->VirtualNetwork() And \
         target(P).nonsense = 5" );
      ( [ "NPL018" ],
        "Retrieve P From PATHS P Where P MATCHES VNF()->VFC() And length(P) = 'x'"
      );
    ]
  in
  let analyze text =
    Nepal.Analysis.analyze
      ~schema:(Nepal.Backend.conn_schema conn)
      ~cost:(fun _ a -> Nepal.Backend.estimate_atom conn a)
      (ok (Nepal.Query_parser.parse text))
  in
  let rendered = List.map (fun d -> "  " ^ Nepal.Diagnostic.to_string d) in
  let spans = ref [] in
  List.iter
    (fun (codes, q) ->
      (* EXPLAIN parses the typed text with its keyword blanked, so its
         spans are columns of the typed text. *)
      let explain = "EXPLAIN " ^ q in
      let findings = analyze (snd (Nepal.Explain.classify explain)) in
      List.iter
        (fun code ->
          check_bool (code ^ " fires") true
            (List.exists (fun d -> d.Nepal.Diagnostic.code = code) findings))
        codes;
      spans :=
        List.map (fun d -> Nepal.Span.is_dummy d.Nepal.Diagnostic.span) findings
        @ !spans;
      let rec after_header = function
        | "diagnostics:" :: rest -> rest
        | _ :: rest -> after_header rest
        | [] -> []
      in
      Alcotest.(check (list string))
        ("EXPLAIN diagnostics of " ^ q)
        (rendered findings)
        (after_header (explain_lines conn explain));
      let flagged =
        List.filter
          (fun d ->
            match d.Nepal.Diagnostic.severity with
            | Nepal.Diagnostic.Error | Nepal.Diagnostic.Warning -> true
            | Nepal.Diagnostic.Hint -> false)
          (analyze q)
      in
      match Nepal.query_on conn ~analyze:`Strict q with
      | Ok _ -> Alcotest.failf "strict accepted %S" q
      | Error e ->
          Alcotest.(check (list string))
            ("strict rejection of " ^ q)
            ("query rejected by static analysis:" :: rendered flagged)
            (String.split_on_char '\n' e))
    queries;
  check_bool "a finding with a span" true (List.mem false !spans);
  check_bool "a finding without a span" true (List.mem true !spans)

(* EXPLAIN's carets point at what the user typed: the NPL013 finding
   under EXPLAIN sits at the 1-based line and column of the [P(@…)]
   token in the typed text (newlines kept), and the plain query's own
   column is unchanged. *)
let test_explain_columns_are_typed () =
  let conns, _ = Lazy.force setup in
  let conn = List.assoc "relational" conns in
  let position text =
    let needle = "P(@" in
    let rec go i line bol =
      if String.sub text i (String.length needle) = needle then
        (line, i - bol + 1)
      else if text.[i] = '\n' then go (i + 1) (line + 1) (i + 1)
      else go (i + 1) line bol
    in
    go 0 1 0
  in
  let finding text =
    let line, col = position text in
    Printf.sprintf "warning[NPL013] line %d, column %d:" line col
  in
  check_bool "plain query: column 72" true
    (position q_npl013 = (1, 72)
    && List.exists
         (fun d ->
           String.starts_with ~prefix:(finding q_npl013)
             (Nepal.Diagnostic.to_string d))
         (Nepal.check_on conn q_npl013));
  List.iter
    (fun typed ->
      check_bool ("EXPLAIN position in " ^ typed) true
        (contains (explain_lines conn typed) (finding typed)))
    [ "EXPLAIN " ^ q_npl013; "  explain\n    " ^ q_npl013 ]

let () =
  Alcotest.run "nepal_explain"
    [
      ( "explain",
        [
          Alcotest.test_case "plan smoke (both backends)" `Quick test_explain_plan;
          Alcotest.test_case "analyze smoke (both backends)" `Quick
            test_explain_analyze;
          Alcotest.test_case "analyze spans account for latency" `Quick
            test_analyze_spans_account_for_latency;
          Alcotest.test_case "metrics registry populated" `Quick
            test_metrics_registry_populated;
          Alcotest.test_case "errors propagate" `Quick test_explain_errors_propagate;
          Alcotest.test_case "columns are the typed text's" `Quick
            test_explain_columns_are_typed;
          Alcotest.test_case "diagnostics are the analyzer's" `Quick
            test_diagnostics_are_the_analyzers;
        ] );
    ]
