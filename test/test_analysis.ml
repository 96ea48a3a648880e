(* Static analyzer tests: the golden bad-query corpus (one query per
   diagnostic code, with pinned spans), strict-mode rejection before any
   backend round-trip, the no-false-positive property (engine-successful
   queries carry zero error diagnostics on every backend), NPL010 and
   NPL011 checked against the reference evaluator, the analysis's
   allocation per query, and the observability wiring
   (analysis.rejected statement class, EXPLAIN diagnostics, enriched
   error messages). *)

module Nepal = Core.Nepal
module Diag = Nepal.Diagnostic
module Virt = Nepal.Virt_service

let virt = Virt.generate ~seed:42 ()
let db = Nepal.of_store virt.Virt.store
let schema = Nepal.schema db

let analyze text = Nepal.Analysis.analyze_string ~schema text

let codes ds =
  List.sort_uniq String.compare (List.map (fun d -> d.Diag.code) ds)

let has ?severity code ds =
  List.exists
    (fun d ->
      d.Diag.code = code
      && match severity with None -> true | Some s -> d.Diag.severity = s)
    ds

(* -- golden corpus ---------------------------------------------------- *)

(* One query per code; [sev] and [(line, col)] are the expected
   severity and source position of the expected code's diagnostic
   ([(0, 0)]: the finding has no span). Queries may legitimately trigger
   extra codes. *)
let corpus =
  [
    ("NPL000", Diag.Error, (1, 46), "Retrieve P From PATHS P Where P MATCHES VNF( -> VFC()");
    ("NPL001", Diag.Error, (1, 41), "Retrieve P From PATHS P Where P MATCHES Srever()");
    ("NPL002", Diag.Error, (1, 41), "Retrieve P From PATHS P Where P MATCHES VM(cpu=1)");
    ("NPL003", Diag.Error, (1, 41), "Retrieve P From PATHS P Where P MATCHES Server(id='abc')");
    ("NPL004", Diag.Error, (1, 41), "Retrieve P From PATHS P Where P MATCHES Server(id.sub=1)");
    ("NPL005", Diag.Error, (1, 51), "Retrieve P From PATHS P Where P MATCHES VNF(){3,1}");
    ("NPL006", Diag.Error, (0, 0), "Retrieve Q From PATHS P Where P MATCHES VNF()");
    ("NPL007", Diag.Error, (1, 23), "Retrieve P From PATHS P Where length(P) > 2");
    ( "NPL008",
      Diag.Error,
      (0, 0),
      "Retrieve P From PATHS P Where P MATCHES VNF() Or length(P) > 2" );
    ( "NPL009",
      Diag.Error,
      (1, 23),
      "Retrieve P From PATHS P, PATHS P Where P MATCHES VNF()" );
    ( "NPL010",
      Diag.Error,
      (1, 69),
      "Retrieve P From PATHS P Where P MATCHES Container()->VirtualLink()->Container()"
    );
    ( "NPL011",
      Diag.Warning,
      (1, 62),
      "Retrieve P From PATHS P Where P MATCHES VNF()->(ComposedOf()|Connects())->VFC()"
    );
    ( "NPL012",
      Diag.Warning,
      (1, 48),
      "Retrieve P From PATHS P Where P MATCHES (VNF()|VNF())->VFC()" );
    ( "NPL013",
      Diag.Warning,
      (1, 72),
      "AT '2017-02-15 10:00:00' : '2017-02-15 11:00:00' Retrieve P From PATHS \
       P(@'2019-01-01 00:00:00') Where P MATCHES VNF()->VFC()" );
    ( "NPL014",
      Diag.Error,
      (1, 23),
      "Retrieve P From PATHS P Where P MATCHES [Vertical()]{0,3}" );
    ( "NPL015",
      Diag.Warning,
      (1, 49),
      "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,12}->Server()"
    );
    ( "NPL016",
      Diag.Warning,
      (1, 35),
      "Retrieve P, Q From PATHS P, PATHS Q Where P MATCHES VNF()->VFC() And Q \
       MATCHES VM()->VirtualLink()->VirtualNetwork()" );
    ( "NPL017",
      Diag.Warning,
      (0, 0),
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC() And \
       target(P).nonsense = 5" );
    ( "NPL018",
      Diag.Error,
      (0, 0),
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC() And source(P) = 'x'"
    );
    ( "NPL020",
      Diag.Error,
      (0, 0),
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC() And count(P) > 2" );
  ]

let test_golden_corpus () =
  List.iter
    (fun (code, sev, (line, col), q) ->
      let ds = analyze q in
      Alcotest.(check bool)
        (Printf.sprintf "%s fires on %s" code q)
        true
        (has ~severity:sev code ds);
      Alcotest.(check bool)
        (Printf.sprintf "%s at line %d, column %d on %s (got %s)" code line col
           q
           (String.concat "; " (List.map Diag.to_string ds)))
        true
        (List.exists
           (fun d ->
             d.Diag.code = code && d.Diag.severity = sev
             && d.Diag.span.Nepal.Span.line = line
             && d.Diag.span.Nepal.Span.col = col)
           ds))
    corpus

let test_npl019_with_cost () =
  let q = Nepal.Query_parser.parse_exn
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC()"
  in
  let ds = Nepal.Analysis.analyze ~schema ~cost:(fun _ _ -> 1e6) q in
  Alcotest.(check bool) "NPL019 hint fires" true (has ~severity:Diag.Hint "NPL019" ds);
  let ds' = Nepal.Analysis.analyze ~schema ~cost:(fun _ _ -> 2.0) q in
  Alcotest.(check bool) "cheap anchor: no hint" false (has "NPL019" ds')

let test_code_and_span_coverage () =
  let all =
    List.concat_map (fun (_, _, _, q) -> analyze q) corpus
  in
  let distinct = codes all in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 distinct codes (got %d: %s)"
       (List.length distinct) (String.concat "," distinct))
    true
    (List.length distinct >= 10);
  let with_span =
    codes (List.filter (fun d -> not (Nepal.Span.is_dummy d.Diag.span)) all)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 codes carry source spans (got %d)"
       (List.length with_span))
    true
    (List.length with_span >= 10)

let test_suggestions () =
  let ds = analyze "Retrieve P From PATHS P Where P MATCHES Srever()" in
  let msg =
    match List.find_opt (fun d -> d.Diag.code = "NPL001") ds with
    | Some d -> d.Diag.message
    | None -> ""
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "did-you-mean Server" true (contains msg "Server")

let test_render_caret () =
  let src = "Retrieve P From PATHS P Where P MATCHES Srever()" in
  match analyze src with
  | d :: _ ->
      let rendered = Diag.render ~source:src d in
      Alcotest.(check bool) "caret line present" true
        (String.contains rendered '^');
      Alcotest.(check bool) "span is real" false (Nepal.Span.is_dummy d.Diag.span)
  | [] -> Alcotest.fail "expected diagnostics"

(* -- strict mode: rejection happens before any backend round-trip ----- *)

let test_strict_rejects_without_roundtrips () =
  let rb = Result.get_ok (Nepal.to_relational db) in
  let conn = Nepal.relational_conn rb in
  (* Only queries that parse can prove the round-trip claim end to end;
     parse failures never reach the engine at all. Hints do not gate,
     so the NPL019-style corpus entries are absent here by design. *)
  let gating =
    List.filter (fun (code, _, _, _) -> code <> "NPL000" && code <> "NPL005") corpus
  in
  List.iter
    (fun (code, _, _, q) ->
      let before = Nepal.Backend.conn_roundtrips conn in
      let m_rej = Nepal.Metrics.counter "engine.analysis_rejected" in
      let rejected_before = Nepal.Metrics.counter_value m_rej in
      (match Nepal.query_on conn ~analyze:`Strict q with
      | Ok _ -> Alcotest.failf "%s: strict mode let %s through" code q
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: rejection comes from the analyzer" code)
            true
            (String.length e >= 8 && String.sub e 0 8 = "query re"));
      Alcotest.(check int)
        (Printf.sprintf "%s: zero backend round-trips" code)
        before
        (Nepal.Backend.conn_roundtrips conn);
      Alcotest.(check int)
        (Printf.sprintf "%s: rejection counted" code)
        (rejected_before + 1)
        (Nepal.Metrics.counter_value m_rej))
    gating

let test_warn_mode_still_executes () =
  let q =
    "Retrieve P From PATHS P Where P MATCHES VNF()->(ComposedOf()|Connects())->VFC()"
  in
  let m_warn = Nepal.Metrics.counter "engine.analysis_warnings" in
  let before = Nepal.Metrics.counter_value m_warn in
  (match Nepal.query db q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warn mode must execute: %s" e);
  Alcotest.(check bool) "warning metric ticked" true
    (Nepal.Metrics.counter_value m_warn > before);
  match Nepal.query db ~analyze:`Off q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "off mode must execute: %s" e

let test_strict_allows_clean_queries () =
  match
    Nepal.query db ~analyze:`Strict
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC()"
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean query rejected: %s" e

(* -- no false positives: engine-successful => no Error diagnostics ---- *)

let qcheck_no_false_positives =
  let rb = Result.get_ok (Nepal.to_relational db) in
  let gb = Result.get_ok (Nepal.to_gremlin db) in
  let conns =
    [
      ("relational", Nepal.relational_conn rb);
      ("gremlin", Nepal.gremlin_conn gb);
    ]
  in
  let pick arr i = arr.(i mod Array.length arr) in
  let gen =
    QCheck.make
      ~print:(fun q -> q)
      QCheck.Gen.(
        let* shape = int_range 0 5 in
        let* i = int_range 0 10_000 in
        let* j = int_range 0 10_000 in
        let* hops = int_range 1 6 in
        return
          (match shape with
          | 0 -> Virt.q_top_down ~vnf_id:(pick virt.Virt.vnf_ids i)
          | 1 -> Virt.q_bottom_up ~server_id:(pick virt.Virt.server_ids i)
          | 2 ->
              Virt.q_vm_vm
                ~a:(pick virt.Virt.container_ids i)
                ~b:(pick virt.Virt.container_ids j)
          | 3 ->
              Virt.q_host_host ~hops
                ~a:(pick virt.Virt.server_ids i)
                ~b:(pick virt.Virt.server_ids j)
          | 4 ->
              Printf.sprintf
                "Select target(P).id From PATHS P Where P MATCHES \
                 VNF(id=%d)->[Vertical()]{1,6}->Server()"
                (pick virt.Virt.vnf_ids i)
          | _ -> "Retrieve P From PATHS P Where P MATCHES VNF()->VFC()"))
  in
  QCheck.Test.make
    ~name:"queries with results have no Error diagnostics"
    ~count:60 gen (fun q ->
      List.for_all
        (fun (backend, conn) ->
          match Nepal.query_on conn ~analyze:`Off q with
          | Error _ -> true (* only successful runs constrain the analyzer *)
          | Ok r when Nepal.Engine.result_count r = 0 ->
              (* An empty result set is exactly what a provably-empty
                 pattern (NPL010 et al.) predicts — no contradiction. *)
              true
          | Ok _ ->
              let errors =
                List.filter
                  (fun d -> d.Diag.severity = Diag.Error)
                  (Nepal.check_on conn q)
              in
              if errors = [] then true
              else
                QCheck.Test.fail_reportf
                  "false positive on %s for %s: %s" backend q
                  (String.concat "; " (List.map Diag.to_string errors)))
        conns)

(* -- NPL010 against the reference evaluator ---------------------------- *)

(* NPL010 says a pattern is provably empty from the schema's edge rules
   alone. The reference evaluator (test/reference.ml) shares no code
   with the analyzer, so wherever NPL010 fires it must find no pathway
   on the same store under the same time constraint. The store is a
   small virtualized service with churn, on the golden corpus's
   schema. *)
let oracle_db =
  lazy
    (let vs =
       Virt.generate ~seed:11 ~vnf_count:6 ~server_count:12
         ~virtual_networks:8 ()
     in
     Virt.simulate_history ~seed:12 ~days:8 ~events_per_day:6 vs;
     Nepal.of_store vs.Virt.store)

let oracle_tcs =
  let tp = Nepal.Time_point.of_string_exn in
  Nepal.Time_constraint.
    [
      Snapshot;
      At (tp "2017-02-10 00:00:00");
      Range (tp "2017-02-01 00:00:00", tp "2017-03-01 00:00:00");
    ]

(* [Ok true]: NPL010 fired and the reference found nothing; [Ok false]:
   NPL010 did not fire; [Error]: the two disagree. *)
let npl010_vs_reference (tc, rpe) =
  let db = Lazy.force oracle_db in
  let q = Reference.query_text tc rpe in
  if not (has "NPL010" (Nepal.check_on (Nepal.conn db) q)) then Ok false
  else
    match Nepal.Rpe_parser.parse rpe with
    | Error e -> Error (Printf.sprintf "NPL010 on unparsable %s: %s" q e)
    | Ok ast -> (
        match Nepal.Rpe.validate (Nepal.schema db) ast with
        | Error e -> Error (Printf.sprintf "NPL010 on invalid %s: %s" q e)
        | Ok norm -> (
            match Reference.find (Nepal.store db) ~tc norm with
            | [] -> Ok true
            | found ->
                Error
                  (Printf.sprintf
                     "NPL010 on %s, but the reference finds %d pathway(s):\n%s"
                     q (List.length found)
                     (Reference.show (Reference.canon found)))))

(* The corpus's NPL010 cases as bare RPEs, plus the strict-rejection
   probe of the observability tests. *)
let npl010_table =
  let prefix = "Retrieve P From PATHS P Where P MATCHES " in
  let n = String.length prefix in
  List.filter_map
    (fun (code, _, _, q) ->
      if code = "NPL010" && String.starts_with ~prefix q then
        Some (String.sub q n (String.length q - n))
      else None)
    corpus
  @ [ "Container(id=987654)->VirtualLink()->Container(id=987655)" ]

(* Node/edge chains over the virt schema's populated classes, with
   edge alternations and short edge repetitions: most violate some
   edge rule, some do not. *)
let gen_random_rpe =
  let open QCheck.Gen in
  let node =
    frequency
      [
        ( 1,
          oneofl
            [
              "VNF()"; "VFC()"; "Container()"; "VM()"; "Docker()"; "Server()";
              "Switch()"; "Router()"; "Rack()"; "VirtualNetwork()";
              "VirtualRouter()"; "NetworkService()";
            ] );
        (1, return "Node()");
      ]
  in
  let edge_atom =
    frequency
      [
        ( 1,
          oneofl
            [
              "ComposedOf()"; "OnVM()"; "OnServer()"; "PartOf()";
              "Connects()"; "VirtualLink()"; "LogicalLink()"; "HostedOn()";
            ] );
        (1, oneofl [ "Vertical()"; "ConnectedTo()"; "Edge()" ]);
      ]
  in
  let edge =
    frequency
      [
        (4, edge_atom);
        (1, map2 (fun a b -> "(" ^ a ^ "|" ^ b ^ ")") edge_atom edge_atom);
        (1, map (fun e -> "[" ^ e ^ "]{1,2}") edge_atom);
      ]
  in
  let rec chain hops =
    if hops = 0 then node
    else
      map3 (fun c e b -> c ^ "->" ^ e ^ "->" ^ b) (chain (hops - 1)) edge node
  in
  int_range 1 3 >>= chain

let gen_npl010_case =
  QCheck.Gen.(
    pair (oneofl oracle_tcs)
      (frequency [ (1, oneofl npl010_table); (4, gen_random_rpe) ]))

let qcheck_npl010_reference =
  QCheck.Test.make ~name:"NPL010 only where the reference finds nothing"
    ~count:150
    (QCheck.make
       ~print:(fun (tc, rpe) -> Reference.query_text tc rpe)
       gen_npl010_case)
    (fun case ->
      match npl010_vs_reference case with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* The property is only as strong as its NPL010 hits: every table case
   must fire (and agree) under every constraint, and a fixed sample of
   the random RPEs must both fire and stay silent often enough. *)
let test_npl010_coverage () =
  List.iter
    (fun rpe ->
      List.iter
        (fun tc ->
          match npl010_vs_reference (tc, rpe) with
          | Ok true -> ()
          | Ok false -> Alcotest.failf "NPL010 does not fire on %s" rpe
          | Error msg -> Alcotest.fail msg)
        oracle_tcs)
    npl010_table;
  let sample =
    QCheck.Gen.generate ~rand:(Random.State.make [| 2018 |]) ~n:100
      gen_random_rpe
  in
  let fired =
    List.length
      (List.filter
         (fun rpe ->
           match npl010_vs_reference (Nepal.Time_constraint.Snapshot, rpe) with
           | Ok fired -> fired
           | Error msg -> Alcotest.fail msg)
         sample)
  in
  Alcotest.(check bool)
    (Printf.sprintf "NPL010 fires on 20..80 of 100 random RPEs (got %d)" fired)
    true
    (fired >= 20 && fired <= 80)

(* -- NPL011 against the reference evaluator ---------------------------- *)

(* Each alternation branch of a repeated body matches in some iteration
   (VNF -ComposedOf-> VFC -OnVM-> Container), so neither is dead even
   though each one alone cannot take every iteration. *)
let test_npl011_repeated_alternation () =
  let ds =
    analyze
      "Retrieve P From PATHS P Where P MATCHES \
       VNF()->[ComposedOf()|OnVM()]{1,3}->Container()"
  in
  Alcotest.(check (list string))
    "no dead union branch" []
    (List.map Diag.to_string (List.filter (fun d -> d.Diag.code = "NPL011") ds))

(* When an optional block is skipped, the engine's automaton lets each
   of the block's two junctions skip one unmatched element
   (ComposedOf, VFC, OnVM, Container here), so the pattern has answers
   and must not be reported provably empty. *)
let test_npl010_optional_block () =
  let q =
    "Retrieve P From PATHS P Where P MATCHES \
     ComposedOf()->[Router()]{0,1}->Container()"
  in
  (match Nepal.query db ~analyze:`Off q with
  | Ok r ->
      Alcotest.(check bool) "the engine finds pathways" true
        (Nepal.Engine.result_count r > 0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no NPL010" false (has "NPL010" (analyze q))

(* Walks down the virt schema's vertical edge rules (NetworkService to
   Rack) whose hops are often alternations of the rule's edge with a
   random one, bare or repeated as [(e1|e2)]{1,2}, or two consecutive
   hops folded into one [(e1|e2)]{1,3} body: the shapes NPL011 judges,
   on patterns that mostly stay satisfiable. The vertical hierarchy
   keeps the reference evaluator's answers small; the connectivity
   edges (VirtualLink, Connects, LogicalLink) only appear as random
   alternatives. *)
let gen_alt_rpe =
  let open QCheck.Gen in
  let rules =
    [
      ("NetworkService()", "ComposedOf()", "VNF()");
      ("VNF()", "ComposedOf()", "VFC()");
      ("VFC()", "OnVM()", "Container()");
      ("Container()", "OnServer()", "Server()");
      ("Server()", "PartOf()", "Rack()");
    ]
  in
  let edge_atom =
    oneofl
      [
        "ComposedOf()"; "OnVM()"; "OnServer()"; "PartOf()"; "HostedOn()";
        "Connects()"; "VirtualLink()"; "Vertical()";
      ]
  in
  let alt e =
    map2
      (fun o first ->
        if first then Printf.sprintf "(%s|%s)" e o else Printf.sprintf "(%s|%s)" o e)
      edge_atom bool
  in
  let hop e =
    frequency
      [ (1, return e); (2, alt e); (2, map (Printf.sprintf "[%s]{1,2}") (alt e)) ]
  in
  let rec walk c n =
    match List.filter (fun (s, _, _) -> s = c) rules with
    | next when n > 0 && next <> [] ->
        let* _, e, d = oneofl next in
        let* rest = walk d (n - 1) in
        return ((e, d) :: rest)
    | _ -> return []
  in
  let rec render = function
    | [] -> return ""
    | (e1, d1) :: (e2, d2) :: rest when e1 <> e2 ->
        let* fold = bool in
        if fold then
          map (Printf.sprintf "->[(%s|%s)]{1,3}->%s%s" e1 e2 d2) (render rest)
        else
          let* body = hop e1 in
          let* tail = render ((e2, d2) :: rest) in
          return (Printf.sprintf "->%s->%s%s" body d1 tail)
    | (e, d) :: rest ->
        let* body = hop e in
        map (Printf.sprintf "->%s->%s%s" body d) (render rest)
  in
  let* start, _, _ = oneofl rules in
  let* n = int_range 1 3 in
  let* hops = walk start n in
  map (fun tail -> start ^ tail) (render hops)

(* [norm] without the alternation branch an NPL011 diagnostic names:
   the branch whose first atom starts at [start] and whose text the
   message quotes. [None] when no branch fits. *)
let drop_branch ~start ~message norm =
  let module R = Nepal.Rpe in
  let found = ref false in
  let names r =
    (match R.atoms r with a :: _ -> a.R.span.Nepal.Span.start = start | [] -> false)
    && message
       = Printf.sprintf "union branch %s can never match here and is dead"
           (R.norm_to_string r)
  in
  let rec go = function
    | R.N_atom _ as r -> r
    | R.N_seq rs -> R.N_seq (List.map go rs)
    | R.N_rep (r, m, n) -> R.N_rep (go r, m, n)
    | R.N_alt rs -> (
        let keep =
          List.filter
            (fun r ->
              if (not !found) && names r then begin
                found := true;
                false
              end
              else true)
            rs
        in
        match List.map go keep with [ r ] -> r | rs -> R.N_alt rs)
  in
  let pruned = go norm in
  if !found then Some pruned else None

(* NPL011 says an alternation branch can never contribute a pathway, so
   deleting it must leave the reference answer unchanged under every
   time constraint. [seen] counts the NPL011 findings checked. *)
let npl011_removal_holds ~seen rpe =
  let db = Lazy.force oracle_db in
  let q = Reference.query_text Nepal.Time_constraint.Snapshot rpe in
  let offset = String.length q - String.length rpe in
  let dead =
    List.filter
      (fun d -> d.Diag.code = "NPL011")
      (Nepal.check_on (Nepal.conn db) q)
  in
  dead = []
  ||
  match Nepal.Rpe.validate (Nepal.schema db) (Nepal.Rpe_parser.parse_exn rpe) with
  | Error e -> QCheck.Test.fail_reportf "NPL011 on invalid %s: %s" rpe e
  | Ok norm ->
      let store = Nepal.store db in
      let want = List.map (fun tc -> Reference.find_canon store ~tc norm) oracle_tcs in
      List.for_all
        (fun d ->
          incr seen;
          match
            drop_branch
              ~start:(d.Diag.span.Nepal.Span.start - offset)
              ~message:d.Diag.message norm
          with
          | None ->
              QCheck.Test.fail_reportf "%s: no branch for %s" rpe
                (Diag.to_string d)
          | Some pruned ->
              List.for_all2
                (fun tc want ->
                  let got = Reference.find_canon store ~tc pruned in
                  got = want
                  || QCheck.Test.fail_reportf
                       "%s: %s, yet without it the reference finds %d \
                        pathway(s), not %d, under %s"
                       rpe (Diag.to_string d) (List.length got)
                       (List.length want)
                       (Reference.query_text tc rpe))
                oracle_tcs want)
        dead

let test_npl011_removal () =
  let seen = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2019 |])
    (QCheck.Test.make
       ~name:"removing an NPL011 branch leaves the reference answer unchanged"
       ~count:150
       (QCheck.make ~print:Fun.id gen_alt_rpe)
       (npl011_removal_holds ~seen));
  Alcotest.(check bool)
    (Printf.sprintf "at least 50 NPL011 findings checked (got %d)" !seen)
    true (!seen >= 50)

(* -- allocation -------------------------------------------------------- *)

(* Words one warm [Engine.diagnostics] call allocates on the native
   backend (the pre-execution analysis every [`Warn] query pays): the
   measured figure plus 15%. The schema verdict is memoized after the
   warm-up call, so the fixpoint itself is not counted; a change that
   re-runs it, or walks the pattern again beside it, fails here. *)
let diagnostics_words =
  [
    ("T1 top-down", Virt.q_top_down ~vnf_id:virt.Virt.vnf_ids.(0), 3562.);
    ( "VM-VM(4)",
      Virt.q_vm_vm ~a:virt.Virt.container_ids.(0) ~b:virt.Virt.container_ids.(1),
      2971. );
  ]

let test_diagnostics_words () =
  let conn = Nepal.conn db in
  List.iter
    (fun (name, text, measured) ->
      let q = Nepal.Query_parser.parse_exn text in
      ignore (Nepal.Engine.diagnostics ~conn q);
      let used, ds = Words.during (fun () -> Nepal.Engine.diagnostics ~conn q) in
      Alcotest.(check (list string)) (name ^ ": no findings") []
        (List.map Diag.to_string ds);
      let bound = measured *. 1.15 in
      if used > bound then
        Alcotest.failf "%s: %.0f words per analysis (bound %.0f)" name used bound)
    diagnostics_words

(* -- observability wiring --------------------------------------------- *)

let test_analysis_rejected_stat_class () =
  Nepal.Metrics.reset_all ();
  let q =
    "Retrieve P From PATHS P Where P MATCHES \
     Container(id=987654)->VirtualLink()->Container(id=987655)"
  in
  (match Nepal.query db ~analyze:`Strict q with
  | Ok _ -> Alcotest.fail "expected strict rejection"
  | Error _ -> ());
  let fp = Nepal.Stat_statements.fingerprint q in
  let st =
    List.find_opt
      (fun s -> s.Nepal.Stat_statements.st_fingerprint = fp)
      (Nepal.Stat_statements.stats ())
  in
  match st with
  | None -> Alcotest.fail "rejected statement not recorded"
  | Some s ->
      Alcotest.(check int) "analysis_rejected class" 1
        s.Nepal.Stat_statements.st_analysis_rejected;
      Alcotest.(check int) "not counted as backend error" 0
        s.Nepal.Stat_statements.st_errors

let contains_line lines needle =
  let contains hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  List.exists contains lines

let explain_lines result =
  match result with
  | Nepal.Engine.Table { columns = [ "explain" ]; rows } ->
      List.filter_map
        (function [ Nepal.Value.Str l ] -> Some l | _ -> None)
        rows
  | _ -> []

let test_explain_shows_diagnostics () =
  match
    Nepal.query db
      "EXPLAIN Retrieve P From PATHS P Where P MATCHES \
       VNF()->(ComposedOf()|Connects())->VFC()"
  with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok result ->
      let lines = explain_lines result in
      Alcotest.(check bool) "diagnostics section" true
        (contains_line lines "diagnostics:");
      Alcotest.(check bool) "NPL011 reported" true
        (contains_line lines "NPL011")

let test_error_enrichment () =
  match Nepal.query db "Retrieve P From PATHS P Where P MATCHES Srever()" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
      let contains needle =
        let nh = String.length e and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub e i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "code in message" true (contains "NPL001");
      Alcotest.(check bool) "caret snippet" true (String.contains e '^')

let () =
  Alcotest.run "nepal_analysis"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "golden corpus" `Quick test_golden_corpus;
          Alcotest.test_case "NPL019 needs a cost model" `Quick
            test_npl019_with_cost;
          Alcotest.test_case "code and span coverage" `Quick
            test_code_and_span_coverage;
          Alcotest.test_case "did-you-mean suggestions" `Quick test_suggestions;
          Alcotest.test_case "caret rendering" `Quick test_render_caret;
        ] );
      ( "modes",
        [
          Alcotest.test_case "strict rejects with zero round-trips" `Quick
            test_strict_rejects_without_roundtrips;
          Alcotest.test_case "warn logs but executes" `Quick
            test_warn_mode_still_executes;
          Alcotest.test_case "strict passes clean queries" `Quick
            test_strict_allows_clean_queries;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_no_false_positives;
          QCheck_alcotest.to_alcotest qcheck_npl010_reference;
          Alcotest.test_case "NPL010 oracle coverage" `Quick
            test_npl010_coverage;
          Alcotest.test_case "no NPL010 across a skipped optional block"
            `Quick test_npl010_optional_block;
          Alcotest.test_case "no NPL011 on a repeated alternation" `Quick
            test_npl011_repeated_alternation;
          Alcotest.test_case
            "removing an NPL011 branch leaves the reference answer unchanged"
            `Quick test_npl011_removal;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "diagnostics words per query" `Quick
            test_diagnostics_words;
        ] );
      ( "observability",
        [
          Alcotest.test_case "analysis.rejected stat class" `Quick
            test_analysis_rejected_stat_class;
          Alcotest.test_case "EXPLAIN shows diagnostics" `Quick
            test_explain_shows_diagnostics;
          Alcotest.test_case "errors carry diagnostics" `Quick
            test_error_enrichment;
        ] );
    ]
