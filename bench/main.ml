(* The evaluation harness: one section per artifact of the paper's
   Section 6 (see DESIGN.md's experiment index).

     table1   — Table 1: query response times, virtualized service graph
     table2   — Table 2: query response times, legacy topology
     reclass  — Section 6: re-loading the legacy graph with 66 edge subclasses
     storage  — Section 6: temporal-table storage overhead vs 60 snapshots
     backends — Section 5: the same workload through SQL and Gremlin targets
     anchors  — Section 5.1: anchor-selection ablation
     temporal — Section 4: snapshot vs timeslice vs time-range costs
     planner  — cost-based plan compiler: chosen vs legacy vs every
                forced plan per query family, plus plan-cache timing
     watch    — incremental standing-query monitoring (CDC + relevance
                filter + debounce) vs naive re-run-per-mutation
     micro    — Bechamel micro-benchmarks of the core primitives

   Run all:            dune exec bench/main.exe
   Run one section:    dune exec bench/main.exe -- table1
   Quick mode:         dune exec bench/main.exe -- all --quick
   JSON results:       dune exec bench/main.exe -- all --json out.json

   Absolute times are not comparable to the paper's testbed; the
   *shape* (which queries are interactive, which explode, what
   re-classing buys) is the reproduction target. EXPERIMENTS.md records
   paper-vs-measured for every row. *)

module Nepal = Core.Nepal
module Virt = Nepal.Virt_service
module Legacy = Nepal.Legacy
module Prng = Nepal.Prng

let quick = ref false
let sections = ref []
let json_file = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a file argument";
        exit 2
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | s :: rest ->
        if String.length s > 0 && s.[0] <> '-' then sections := s :: !sections;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let want name =
  match !sections with [] | [ "all" ] -> true | l -> List.mem name l

(* Machine-readable results: every section pushes (section, label,
   metrics) rows; --json <file> writes them out at the end. A row may
   also carry a per-operator breakdown (operator name -> metrics),
   emitted as a nested "per_operator" object. *)
let json_rows :
    (string * string * (string * float) list * (string * (string * float) list) list)
    list
    ref =
  ref []

let record ~section ~label ?(per_operator = []) metrics =
  json_rows := (section, label, metrics, per_operator) :: !json_rows

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json file =
  let oc =
    try open_out file
    with Sys_error msg ->
      prerr_endline ("bench: cannot write --json output: " ^ msg);
      exit 2
  in
  output_string oc "{\n  \"results\": [\n";
  let rows = List.rev !json_rows in
  List.iteri
    (fun i (section, label, metrics, per_operator) ->
      let kv (k, v) =
        Printf.sprintf "\"%s\": %s" (json_escape k) (json_number v)
      in
      let fields = List.map kv metrics in
      let fields =
        if per_operator = [] then fields
        else
          fields
          @ [
              Printf.sprintf "\"per_operator\": {%s}"
                (String.concat ", "
                   (List.map
                      (fun (op, ms) ->
                        Printf.sprintf "\"%s\": {%s}" (json_escape op)
                          (String.concat ", " (List.map kv ms)))
                      per_operator));
            ]
      in
      Printf.fprintf oc "    {\"section\": \"%s\", \"label\": \"%s\", %s}%s\n"
        (json_escape section) (json_escape label)
        (String.concat ", " fields)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ],\n";
  (* The statement-statistics view of the same run: every query the
     harness executed, aggregated by fingerprint, heaviest first. *)
  let top_stmts = Nepal.Stat_statements.top 20 in
  Printf.fprintf oc "  \"top_statements\": %s"
    (String.trim (Nepal.Stat_statements.render_stats_json top_stmts));
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %d result row(s) to %s\n" (List.length rows) file;
  (* Sidecar OpenMetrics snapshot of the in-process registry. *)
  let om = file ^ ".openmetrics" in
  (try
     let oc = open_out om in
     output_string oc (Nepal.Metrics.render_openmetrics ());
     close_out oc;
     Printf.printf "wrote OpenMetrics snapshot to %s\n" om
   with Sys_error msg ->
     prerr_endline ("bench: cannot write OpenMetrics sidecar: " ^ msg))

let ok = function Ok v -> v | Error e -> failwith e

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let count_query conn q =
  match Nepal.Engine.run_string ~conn q with
  | Ok r -> Nepal.Engine.result_count r
  | Error e -> failwith (e ^ "\n  in query: " ^ q)

(* Prefix the query with AT '<clock>' to read through the historical
   view — the paper's "Time (hist)" column. *)
let with_hist store q =
  Printf.sprintf "AT '%s' %s"
    (Nepal.Time_point.to_string (Nepal.Graph_store.clock store))
    q

(* Run the instance list, reporting average path count and averaged
   per-query seconds for the snapshot and historical variants. *)
let measure conn store instances =
  let n = List.length instances in
  let total_paths = ref 0 and t_snap = ref 0. and t_hist = ref 0. in
  List.iter
    (fun q ->
      let c, dt = time (fun () -> count_query conn q) in
      total_paths := !total_paths + c;
      t_snap := !t_snap +. dt;
      let _, dth = time (fun () -> count_query conn (with_hist store q)) in
      t_hist := !t_hist +. dth)
    instances;
  ( float_of_int !total_paths /. float_of_int n,
    !t_snap /. float_of_int n,
    !t_hist /. float_of_int n )

let header title = Printf.printf "\n==== %s ====\n%!" title

let row4 name paths snap hist (p_paths, p_snap, p_hist) =
  Printf.printf "%-18s %10.1f %10.4f %10.4f   | paper: %10s %8s %8s\n%!" name
    paths snap hist p_paths p_snap p_hist

let table_header () =
  Printf.printf "%-18s %10s %10s %10s   | %17s %8s %8s\n" "type" "#paths"
    "snap(s)" "hist(s)" "#paths" "snap" "hist";
  Printf.printf "%s\n" (String.make 92 '-')

(* Sample instances whose result is non-empty, as the paper does ("we
   avoided instances that result in zero paths"). *)
let sample_nonzero ~tries ~n rng conn gen =
  let rec collect acc k guard =
    if k = 0 || guard = 0 then List.rev acc
    else
      let q = gen rng in
      if count_query conn q > 0 then collect (q :: acc) (k - 1) (guard - 1)
      else collect acc k (guard - 1)
  in
  collect [] n (tries * n)

(* ------------------------------------------------------------------ *)
(* Shared topologies                                                    *)
(* ------------------------------------------------------------------ *)

let virt_setup =
  lazy
    (let t = Virt.generate () in
     Virt.simulate_history t;
     let db = Nepal.of_store t.Virt.store in
     (t, db))

let legacy_nodes () = if !quick then 6_000 else 20_000

let legacy_setup =
  lazy
    (let t = Legacy.generate ~nodes:(legacy_nodes ()) Legacy.Flat in
     Legacy.simulate_history ~days:60 t;
     (t, Nepal.of_store t.Legacy.store))

(* Per-operator attribution of one representative instance (the first),
   for the nested "per_operator" object of the --json rows. *)
let per_operator_breakdown conn instances =
  match instances with
  | [] -> []
  | q :: _ -> (
      match Nepal.Engine.run_string_traced ~conn q with
      | Error _ -> []
      | Ok (_, root) ->
          List.map
            (fun (op, a) ->
              ( op,
                [
                  ("count", float_of_int a.Nepal.Trace.a_count);
                  ("wall_s", a.Nepal.Trace.a_wall_s);
                  ("rows_out", float_of_int a.Nepal.Trace.a_rows_out);
                  ("calls", float_of_int a.Nepal.Trace.a_calls);
                ] ))
            (Nepal.Trace.per_operator root))

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let table1_instances t conn =
  let rng = Prng.create 1001 in
  let n = if !quick then 10 else 50 in
  let top_down =
    (* Only 33 distinct VNFs, as in the paper. *)
    Array.to_list (Array.map (fun id -> Virt.q_top_down ~vnf_id:id) t.Virt.vnf_ids)
  in
  let bottom_up =
    sample_nonzero ~tries:10 ~n rng conn (fun rng ->
        Virt.q_bottom_up ~server_id:(Virt.sample_server_id rng t))
  in
  let vm_vm =
    sample_nonzero ~tries:10 ~n rng conn (fun rng ->
        let a = Virt.sample_container_id rng t in
        let b = Virt.sample_container_id rng t in
        Virt.q_vm_vm ~a ~b)
  in
  let host_host4 =
    sample_nonzero ~tries:10 ~n rng conn (fun rng ->
        let a = Virt.sample_server_id rng t in
        let b = Virt.sample_server_id rng t in
        Virt.q_host_host ~hops:4 ~a ~b)
  in
  let host_host6 =
    (* The expensive scaling probe: fewer instances. *)
    sample_nonzero ~tries:10 ~n:(max 5 (n / 5)) rng conn (fun rng ->
        let a = Virt.sample_server_id rng t in
        let b = Virt.sample_server_id rng t in
        Virt.q_host_host ~hops:6 ~a ~b)
  in
  [ ("Top-down", top_down); ("Bottom-up", bottom_up); ("VM-VM (4)", vm_vm);
    ("Host-Host (4)", host_host4); ("Host-Host (6)", host_host6) ]

let paper_table1 =
  [
    ("Top-down", ("19.5", ".058", ".073"));
    ("Bottom-up", ("2.3", ".061", ".072"));
    ("VM-VM (4)", ("215.9", ".184", ".206"));
    ("Host-Host (4)", ("18.5", ".067", ".081"));
    ("Host-Host (6)", ("561.7", ".67", ".68"));
  ]

let run_table1 () =
  header "Table 1 — query response times, virtualized service graph";
  let t, db = Lazy.force virt_setup in
  let store = t.Virt.store in
  Printf.printf "graph: %d nodes, %d edges; history %.1f%% larger (paper: ~6%%)\n"
    (Nepal.Graph_store.count_current store ~cls:"Node")
    (Nepal.Graph_store.count_current store ~cls:"Edge")
    (Virt.history_overhead t *. 100.);
  let conn = Nepal.conn db in
  let families = table1_instances t conn in
  table_header ();
  List.iter
    (fun (name, instances) ->
      let paths, snap, hist = measure conn store instances in
      record ~section:"table1" ~label:name
        ~per_operator:(per_operator_breakdown conn instances)
        [ ("paths", paths); ("snap_s", snap); ("hist_s", hist) ];
      row4 name paths snap hist (List.assoc name paper_table1))
    families

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [
    ("Service path", ("32.9", ".038", ".040"));
    ("Reverse path", ("391000", "9.844", "9.520"));
    ("Top-down", ("4.4", ".029", ".039"));
    ("Bottom-up", ("73.18", ".672", ".772"));
  ]

let table2_instances t conn =
  let rng = Prng.create 2002 in
  let n = if !quick then 5 else 25 in
  let service =
    sample_nonzero ~tries:10 ~n rng conn (fun rng ->
        Legacy.q_service_path t ~src:(Legacy.sample_source rng t))
  in
  let reverse =
    sample_nonzero ~tries:10 ~n:(max 3 (n / 5)) rng conn (fun rng ->
        Legacy.q_reverse_path t ~sink:(Legacy.sample_sink rng t))
  in
  let top_down =
    sample_nonzero ~tries:10 ~n rng conn (fun rng ->
        Legacy.q_top_down t ~src:(Legacy.sample_top rng t))
  in
  let bottom_up =
    sample_nonzero ~tries:10 ~n rng conn (fun rng ->
        Legacy.q_bottom_up t ~dst:(Legacy.sample_physical rng t))
  in
  [ ("Service path", service); ("Reverse path", reverse);
    ("Top-down", top_down); ("Bottom-up", bottom_up) ]

let run_table2 () =
  header "Table 2 — query response times, legacy topology";
  let t, db = Lazy.force legacy_setup in
  let store = t.Legacy.store in
  Printf.printf
    "graph: %d nodes, %d edges (paper: 1.6M/7.1M; scaled); history %.1f%% larger (paper: 16%%)\n"
    (Nepal.Graph_store.count_current store ~cls:"LegacyNode")
    (Nepal.Graph_store.count_current store ~cls:"LegacyEdge")
    (Legacy.history_overhead t *. 100.);
  let conn = Nepal.conn db in
  let families = table2_instances t conn in
  table_header ();
  List.iter
    (fun (name, instances) ->
      let paths, snap, hist = measure conn store instances in
      record ~section:"table2" ~label:name
        [ ("paths", paths); ("snap_s", snap); ("hist_s", hist) ];
      row4 name paths snap hist (List.assoc name paper_table2))
    families

(* ------------------------------------------------------------------ *)
(* Re-classing experiment                                               *)
(* ------------------------------------------------------------------ *)

let run_reclass () =
  header "Re-classing — 1 edge class vs 66 edge subclasses (Section 6)";
  let nodes = if !quick then 4_000 else 12_000 in
  let flat = Legacy.generate ~nodes Legacy.Flat in
  let classed = ok (Nepal_loader.Reclass.reclass flat) in
  Printf.printf "legacy graph at %d nodes\n" nodes;
  let prep legacy =
    let db = Nepal.of_store legacy.Legacy.store in
    let rb = ok (Nepal.to_relational db) in
    (Nepal.relational_conn rb, Nepal.conn db)
  in
  let rel_flat, nat_flat = prep flat in
  let rel_classed, nat_classed = prep classed in
  let rng = Prng.create 3003 in
  let n = if !quick then 3 else 10 in
  let rev_sinks = List.init n (fun _ -> Legacy.sample_sink rng flat) in
  let bu_ids =
    let rec collect acc k guard =
      if k = 0 || guard = 0 then acc
      else
        let id = Legacy.sample_physical rng flat in
        if count_query nat_flat (Legacy.q_bottom_up flat ~dst:id) > 0 then
          collect (id :: acc) (k - 1) (guard - 1)
        else collect acc k (guard - 1)
    in
    collect [] n (n * 20)
  in
  let avg conn qs =
    let _, dt = time (fun () -> List.iter (fun q -> ignore (count_query conn q)) qs) in
    dt /. float_of_int (max 1 (List.length qs))
  in
  let report name q_flat q_classed =
    let f_rel = avg rel_flat q_flat in
    let c_rel = avg rel_classed q_classed in
    let f_nat = avg nat_flat q_flat in
    let c_nat = avg nat_classed q_classed in
    Printf.printf
      "%-22s relational: %8.4f -> %8.4f s (%4.1fx)   native: %8.4f -> %8.4f s (%4.1fx)\n%!"
      name f_rel c_rel (f_rel /. Float.max 1e-9 c_rel) f_nat c_nat
      (f_nat /. Float.max 1e-9 c_nat)
  in
  report "Reverse service path"
    (List.map (fun sink -> Legacy.q_reverse_path flat ~sink) rev_sinks)
    (List.map (fun sink -> Legacy.q_reverse_path classed ~sink) rev_sinks);
  report "Bottom-up"
    (List.map (fun dst -> Legacy.q_bottom_up flat ~dst) bu_ids)
    (List.map (fun dst -> Legacy.q_bottom_up classed ~dst) bu_ids);
  Printf.printf
    "paper: reverse path 9.844 -> 8.390 s (1.2x), bottom-up .672 -> .049 s (13.7x)\n"

(* ------------------------------------------------------------------ *)
(* Storage overhead                                                     *)
(* ------------------------------------------------------------------ *)

let run_storage () =
  header "Storage — temporal tables vs 60 separate snapshots (Section 6)";
  let report name store paper =
    let current = Nepal.Graph_store.count_current_total store in
    let versions = Nepal.Graph_store.count_versions store in
    let temporal_overhead =
      100. *. ((float_of_int versions /. float_of_int current) -. 1.)
    in
    Printf.printf
      "%-22s current %8d; versions %8d; temporal overhead %6.1f%% (paper %s)\n"
      name current versions temporal_overhead paper;
    Printf.printf
      "%-22s 60 separate snapshots would store %8d rows: +%d%% (paper +5900%%)\n" ""
      (60 * current) 5900
  in
  let t, _ = Lazy.force virt_setup in
  report "virtualized service" t.Virt.store "~6%";
  let l, _ = Lazy.force legacy_setup in
  report "legacy topology" l.Legacy.store "16%";
  (* The relational target stores exactly one row per version. *)
  let small = Virt.generate ~seed:77 ~vnf_count:8 ~server_count:16 () in
  Virt.simulate_history ~seed:78 ~days:20 small;
  let rb = ok (Nepal.to_relational (Nepal.of_store small.Virt.store)) in
  Printf.printf
    "relational mirror:     %d store versions = %d table rows (current+history)\n"
    (Nepal.Graph_store.count_versions small.Virt.store)
    (Nepal.Relational_backend.stored_rows rb)

(* ------------------------------------------------------------------ *)
(* Backend comparison                                                   *)
(* ------------------------------------------------------------------ *)

let run_backends () =
  header "Backends — the same workload through native, SQL and Gremlin targets";
  let t, db = Lazy.force virt_setup in
  let rb = ok (Nepal.to_relational db) in
  let gb = ok (Nepal.to_gremlin db) in
  let conns =
    [
      ("native", Nepal.conn db);
      ("relational", Nepal.relational_conn rb);
      ("gremlin", Nepal.gremlin_conn gb);
    ]
  in
  let rng = Prng.create 4004 in
  let n = if !quick then 5 else 20 in
  let instances =
    Array.to_list
      (Array.sub (Array.map (fun id -> Virt.q_top_down ~vnf_id:id) t.Virt.vnf_ids) 0 10)
    @ sample_nonzero ~tries:10 ~n rng (Nepal.conn db) (fun rng ->
          Virt.q_bottom_up ~server_id:(Virt.sample_server_id rng t))
  in
  Printf.printf "%-12s %10s %12s %12s\n" "backend" "#instances" "total paths" "avg sec";
  Printf.printf "%s\n" (String.make 50 '-');
  let reference = ref None in
  List.iter
    (fun (name, conn) ->
      let counts, dt =
        time (fun () -> List.map (fun q -> count_query conn q) instances)
      in
      let total = List.fold_left ( + ) 0 counts in
      (match !reference with
      | None -> reference := Some counts
      | Some r ->
          if r <> counts then
            Printf.printf "!! %s disagrees with the native results\n" name);
      Printf.printf "%-12s %10d %12d %12.4f\n%!" name (List.length instances)
        total
        (dt /. float_of_int (List.length instances)))
    conns

(* ------------------------------------------------------------------ *)
(* Anchor ablation                                                      *)
(* ------------------------------------------------------------------ *)

let run_anchors () =
  header "Anchor selection — cheapest vs costliest candidate (Section 5.1)";
  let t, db = Lazy.force virt_setup in
  let conn = Nepal.conn db in
  let schema = Nepal.schema db in
  let rng = Prng.create 5005 in
  let parse text = ok (Nepal.Rpe.validate schema (Nepal.Rpe_parser.parse_exn text)) in
  let cases =
    [
      ( "anchored start (top-down)",
        Printf.sprintf "VNF(id=%d)->[Vertical()]{1,6}->Server()"
          (Virt.sample_vnf_id rng t) );
      ( "anchored end (bottom-up)",
        Printf.sprintf "VNF()->[Vertical()]{1,6}->Server(id=%d)"
          (Virt.sample_server_id rng t) );
      ( "anchored middle",
        Printf.sprintf "VNF()->VFC(id=%d)->Container()" t.Virt.vfc_ids.(3) );
    ]
  in
  Printf.printf "%-28s %12s %12s %10s\n" "query" "cheapest(s)" "costliest(s)" "slowdown";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun (name, text) ->
      let rpe = parse text in
      let tc = Nepal.Time_constraint.Snapshot in
      let best, t_best =
        time (fun () -> List.length (ok (Nepal.Eval_rpe.find conn ~tc rpe)))
      in
      let worst, t_worst =
        time (fun () ->
            List.length (ok (Nepal.Eval_rpe.find conn ~tc ~anchor:`Costliest rpe)))
      in
      if best <> worst then Printf.printf "!! result mismatch on %s\n" name;
      Printf.printf "%-28s %12.4f %12.4f %9.1fx\n%!" name t_best t_worst
        (t_worst /. Float.max 1e-9 t_best))
    cases;
  Printf.printf
    "(the paper's top-down vs bottom-up asymmetry is exactly this effect)\n"

(* ------------------------------------------------------------------ *)
(* Temporal query costs                                                 *)
(* ------------------------------------------------------------------ *)

let run_temporal () =
  header "Temporal — snapshot vs timeslice vs time-range (Section 4)";
  let t, db = Lazy.force virt_setup in
  let store = t.Virt.store in
  let conn = Nepal.conn db in
  let rng = Prng.create 6006 in
  let n = if !quick then 5 else 20 in
  let born = t.Virt.born in
  let clock = Nepal.Graph_store.clock store in
  let mid = Nepal.Time_point.add_days born 30 in
  let ids = List.init n (fun _ -> Virt.sample_vnf_id rng t) in
  let base id = Virt.q_top_down ~vnf_id:id in
  let modes =
    [
      ("snapshot", fun id -> base id);
      ( "timeslice (now)",
        fun id ->
          Printf.sprintf "AT '%s' %s" (Nepal.Time_point.to_string clock) (base id) );
      ( "timeslice (day 30)",
        fun id ->
          Printf.sprintf "AT '%s' %s" (Nepal.Time_point.to_string mid) (base id) );
      ( "range (60 days)",
        fun id ->
          Printf.sprintf "AT '%s' : '%s' %s"
            (Nepal.Time_point.to_string born)
            (Nepal.Time_point.to_string clock)
            (base id) );
    ]
  in
  Printf.printf "%-20s %12s %12s\n" "mode" "avg paths" "avg sec";
  Printf.printf "%s\n" (String.make 46 '-');
  List.iter
    (fun (name, mk) ->
      let total = ref 0 in
      let _, dt =
        time (fun () ->
            List.iter (fun id -> total := !total + count_query conn (mk id)) ids)
      in
      Printf.printf "%-20s %12.1f %12.4f\n%!" name
        (float_of_int !total /. float_of_int n)
        (dt /. float_of_int n))
    modes;
  (* When-Exists aggregation. *)
  let vnf = List.hd ids in
  let rpe =
    ok
      (Nepal.Rpe.validate (Nepal.schema db)
         (Nepal.Rpe_parser.parse_exn
            (Printf.sprintf "VNF(id=%d)->[Vertical()]{1,6}->Server()" vnf)))
  in
  let w, dt =
    time (fun () -> ok (Nepal.Temporal_agg.when_exists conn ~window:(born, clock) rpe))
  in
  Printf.printf "When-Exists over 60 days: %d interval(s) in %.4f s\n"
    (Nepal.Interval_set.cardinality w) dt

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let t, db = Lazy.force virt_setup in
  let store = t.Virt.store in
  let conn = Nepal.conn db in
  let schema = Nepal.schema db in
  let rpe_text = "VNF(id=100)->[Vertical()]{1,6}->Server()" in
  let norm = ok (Nepal.Rpe.validate schema (Nepal.Rpe_parser.parse_exn rpe_text)) in
  let tests =
    Test.make_grouped ~name:"nepal"
      [
        Test.make ~name:"rpe_parse"
          (Staged.stage (fun () -> ignore (Nepal.Rpe_parser.parse_exn rpe_text)));
        Test.make ~name:"query_parse"
          (Staged.stage (fun () ->
               ignore
                 (Nepal.Query_parser.parse_exn
                    "Retrieve P From PATHS P Where P MATCHES VNF()->VFC()")));
        Test.make ~name:"nfa_compile"
          (Staged.stage (fun () -> ignore (Nepal_rpe.Nfa.compile norm)));
        Test.make ~name:"index_lookup"
          (Staged.stage (fun () ->
               ignore
                 (Nepal.Graph_store.lookup store ~tc:Nepal.Time_constraint.Snapshot
                    ~cls:"VNF" ~field:"id" (Nepal.Value.Int 100))));
        Test.make ~name:"top_down_query"
          (Staged.stage (fun () -> ignore (count_query conn (Virt.q_top_down ~vnf_id:100))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(if !quick then 100 else 500)
      ~quota:(Time.second (if !quick then 0.05 else 0.3))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Live monitoring: incremental watches vs naive re-run-per-mutation    *)
(* ------------------------------------------------------------------ *)

(* The standing-query question (DESIGN.md §10): a consumer that must
   know when a path set changes can either re-run the query after every
   mutation, or register a watch and let the monitor's relevance filter
   plus debounce coalescing decide when re-evaluation is necessary.
   Both arms replay the identical churn stream (same seed, fresh
   topology) grouped into bursts of [burst] mutations per observation
   point — the monitor may coalesce a whole burst into one evaluation,
   the naive arm must evaluate per mutation or risk missing a
   transition it cannot rule out. *)
let run_watch () =
  header "watch — incremental standing queries vs naive re-run-per-mutation";
  let watch_q =
    "Retrieve P From PATHS P Where P MATCHES \
     Container()->VirtualLink()->VirtualNetwork()"
  in
  let events = if !quick then 150 else 600 in
  let mctr name = Nepal.Metrics.counter_value (Nepal.Metrics.counter name) in
  Printf.printf "standing query: %s\n%d mutations per arm\n\n" watch_q events;
  Printf.printf "%-10s %13s %13s %10s %13s %13s %10s %9s\n" "burst"
    "evals" "naive evals" "eval x" "rtrips" "naive rtrips" "rtrip x" "wall x";
  List.iter
    (fun burst ->
      let churn t store f =
        let rng = Prng.create 77 in
        let i = ref 0 in
        let left = ref events in
        while !left > 0 do
          let n = min burst !left in
          for _ = 1 to n do
            incr i;
            let at =
              Nepal.Time_point.add_seconds (Nepal.Graph_store.clock store) 60.
            in
            Virt.churn_step ~rng ~at ~scale_tag:(200000 + !i) t;
            f `Mutation
          done;
          left := !left - n;
          f `Boundary
        done
      in
      (* Incremental arm: poll at burst boundaries (debounce 0 so every
         boundary with a relevant change evaluates — the coalescing win
         measured here is the burst grouping itself). *)
      let t = Virt.generate () in
      let store = t.Virt.store in
      let conn = Nepal.native_conn store in
      let monitor = Nepal.Monitor.create ~debounce_ms:0. ~conn store in
      (match Nepal.Monitor.watch monitor watch_q with
      | Error e -> failwith e
      | Ok _ -> ());
      let evals0 = mctr "monitor.evaluations"
      and skipped0 = mctr "monitor.skipped"
      and rt0 = Nepal.Backend.conn_roundtrips conn in
      let (), wall_inc =
        time (fun () ->
            churn t store (function
              | `Mutation -> ()
              | `Boundary -> ignore (Nepal.Monitor.flush monitor)))
      in
      let evals = mctr "monitor.evaluations" - evals0
      and skipped = mctr "monitor.skipped" - skipped0
      and rt_inc = Nepal.Backend.conn_roundtrips conn - rt0 in
      Nepal.Monitor.close monitor;
      (* Naive arm: identical stream, re-run the query after every
         mutation. *)
      let t = Virt.generate () in
      let store = t.Virt.store in
      let conn = Nepal.native_conn store in
      let rt0 = Nepal.Backend.conn_roundtrips conn in
      let naive_evals = ref 0 in
      let (), wall_naive =
        time (fun () ->
            churn t store (function
              | `Mutation ->
                  incr naive_evals;
                  ignore (count_query conn watch_q)
              | `Boundary -> ()))
      in
      let rt_naive = Nepal.Backend.conn_roundtrips conn - rt0 in
      if skipped = 0 then
        Printf.printf
          "(warning: monitor.skipped did not advance — relevance filter \
           inactive?)\n";
      let fdiv a b = if b = 0. then Float.nan else a /. b in
      let label = Printf.sprintf "burst=%d" burst in
      Printf.printf "%-10s %13d %13d %10.1f %13d %13d %10.1f %9.1f\n" label
        evals !naive_evals
        (fdiv (float_of_int !naive_evals) (float_of_int evals))
        rt_inc rt_naive
        (fdiv (float_of_int rt_naive) (float_of_int rt_inc))
        (fdiv wall_naive wall_inc);
      record ~section:"watch" ~label
        [
          ("mutations", float_of_int events);
          ("burst", float_of_int burst);
          ("evaluations", float_of_int evals);
          ("naive_evaluations", float_of_int !naive_evals);
          ("skipped", float_of_int skipped);
          ("roundtrips", float_of_int rt_inc);
          ("naive_roundtrips", float_of_int rt_naive);
          ("roundtrip_ratio",
           fdiv (float_of_int rt_naive) (float_of_int rt_inc));
          ("wall_s", wall_inc);
          ("naive_wall_s", wall_naive);
          ("wall_ratio", fdiv wall_naive wall_inc);
        ])
    [ 1; 5; 25 ]

(* ------------------------------------------------------------------ *)
(* Plan compiler (E12)                                                  *)
(* ------------------------------------------------------------------ *)

(* Per query family: the optimizer's chosen plan vs the legacy greedy
   pick vs every forced alternative (each anchor candidate plus the
   bidirectional decomposition where the shape admits one). All
   variants run at the [Eval_rpe.find] level so plan choice — not
   parse/analysis overhead — is what is measured; p50/p95 come from
   metrics histograms over the per-instance times. A final row times
   first-plan vs repeat-plan to show the plan cache. *)
let run_planner () =
  header "Planner — chosen vs legacy vs forced plans (cost-based compiler)";
  let t, db = Lazy.force virt_setup in
  let conn = Nepal.conn db in
  let schema = Nepal.Backend.conn_schema conn in
  let take n xs =
    let rec go n = function
      | x :: tl when n > 0 -> x :: go (n - 1) tl
      | _ -> []
    in
    go n xs
  in
  let cap = if !quick then 3 else 10 in
  let families =
    let t1 =
      List.map
        (fun (name, qs) -> ("T1 " ^ name, conn, schema, take cap qs))
        (table1_instances t conn)
    in
    if !quick then t1
    else
      let lt, ldb = Lazy.force legacy_setup in
      let lconn = Nepal.conn ldb in
      let lschema = Nepal.Backend.conn_schema lconn in
      t1
      @ List.map
          (fun (name, qs) -> ("T2 " ^ name, lconn, lschema, take cap qs))
          (table2_instances lt lconn)
  in
  (* One (norm, tc, planner decision) triple per instance, via the
     engine's own planning prelude. Families with joins or multiple
     variables would need per-variable treatment; the Table-1/2
     workloads are single-variable. *)
  let instance_plans conn qs =
    List.filter_map
      (fun q ->
        let parsed = ok (Nepal.Query_parser.parse q) in
        match Nepal.Engine.plan ~conn parsed with
        | Error _ -> None
        | Ok p -> (
            match p.Nepal.Engine.p_order with
            | [ vp ] ->
                Some
                  ( vp.Nepal.Engine.vp_rpe,
                    vp.Nepal.Engine.vp_tc,
                    vp.Nepal.Engine.vp_opt )
            | _ -> None))
      qs
  in
  let find conn ?strategy ?prune (norm, tc) =
    List.length (ok (Nepal.Eval_rpe.find conn ~tc ?strategy ?prune norm))
  in
  Printf.printf "%-18s %10s %10s %10s %10s %10s %8s\n" "family" "chosen p50"
    "chosen p95" "legacy p50" "best frc" "worst frc" "win";
  Printf.printf "%s\n" (String.make 84 '-');
  List.iter
    (fun (name, conn, schema, qs) ->
      let plans = instance_plans conn qs in
      if plans <> [] then begin
        let h_chosen = Nepal.Metrics.unregistered_histogram "chosen" in
        let h_legacy = Nepal.Metrics.unregistered_histogram "legacy" in
        (* Sub-50ms runs are noisy at single-shot resolution (GC pauses
           dwarf the work); take the min of a few repetitions so
           chosen-vs-forced ratios on identical physical plans converge
           to 1 instead of ±20% jitter. Slow alternatives stay
           single-shot. *)
        let time_adaptive f =
          let c, dt = time f in
          if dt >= 0.05 then (c, dt)
          else begin
            let best = ref dt in
            for _ = 1 to 5 do
              let _, dt' = time f in
              if dt' < !best then best := dt'
            done;
            (c, !best)
          end
        in
        (* Every forced alternative for an instance: each anchor
           candidate by enumeration index, plus the bidirectional plan.
           Alternative k exists only for instances that have it. *)
        let forced_of (norm, tc, _) =
          let anchored =
            Nepal.Anchor.enumerate
              ~cost:(fun a ->
                try Nepal.Backend.estimate_atom conn a with _ -> 1.)
              norm
            |> List.map (fun s -> Nepal.Eval_rpe.Forced s)
          in
          let bidi =
            match Nepal.Planner.bidi_of schema ~tc norm with
            | Some bp -> [ Nepal.Eval_rpe.Bidi bp ]
            | None -> []
          in
          take 6 (anchored @ bidi)
        in
        (* One interleaved pass per instance: warm the adjacency and
           pruner-mask caches, then time the chosen plan, the legacy
           evaluator, and every forced alternative back to back, so
           identical physical plans see identical cache and heap state.
           (Timing them in separate passes skews the ratios by ~10%.) *)
        let measured =
          List.map
            (fun ((norm, tc, (d : Nepal.Engine.var_decision)) as p) ->
              let strategy = d.vd_strategy and prune = d.vd_prune in
              ignore (find conn ~strategy ?prune (norm, tc));
              let c_chosen, dt_chosen =
                time_adaptive (fun () -> find conn ~strategy ?prune (norm, tc))
              in
              Nepal.Metrics.observe h_chosen dt_chosen;
              let c_legacy, dt_legacy =
                time_adaptive (fun () -> find conn (norm, tc))
              in
              Nepal.Metrics.observe h_legacy dt_legacy;
              let forced =
                List.map
                  (fun strategy ->
                    (* Same pruner as the chosen plan: forced runs
                       differ from it only in the plan choice. *)
                    let prune = Nepal.Planner.pruner_of schema in
                    snd
                      (time_adaptive (fun () ->
                           find conn ~strategy ~prune (norm, tc))))
                  (forced_of p)
              in
              (c_chosen, c_legacy, forced))
            plans
        in
        let chosen_counts = List.map (fun (c, _, _) -> c) measured in
        let legacy_counts = List.map (fun (_, c, _) -> c) measured in
        if chosen_counts <> legacy_counts then
          Printf.printf "!! %s: chosen plan changed the result counts\n" name;
        let n_alts =
          List.fold_left (fun m (_, _, f) -> max m (List.length f)) 0 measured
        in
        let forced_avgs =
          List.init n_alts (fun k ->
              let total, count =
                List.fold_left
                  (fun (tot, cnt) (_, _, f) ->
                    match take 1 (List.filteri (fun i _ -> i = k) f) with
                    | [ dt ] -> (tot +. dt, cnt + 1)
                    | _ -> (tot, cnt))
                  (0., 0) measured
              in
              if count = 0 then infinity else total /. float_of_int count)
          |> List.filter Float.is_finite
        in
        let chosen_p50 = Nepal.Metrics.quantile h_chosen 0.5 in
        let chosen_p95 = Nepal.Metrics.quantile h_chosen 0.95 in
        let legacy_p50 = Nepal.Metrics.quantile h_legacy 0.5 in
        let legacy_p95 = Nepal.Metrics.quantile h_legacy 0.95 in
        let best_forced =
          List.fold_left Float.min infinity forced_avgs
        in
        let worst_forced = List.fold_left Float.max 0. forced_avgs in
        let n = float_of_int (List.length plans) in
        let chosen_avg =
          Nepal.Metrics.histogram_sum h_chosen /. Float.max 1. n
        in
        let legacy_avg =
          Nepal.Metrics.histogram_sum h_legacy /. Float.max 1. n
        in
        Printf.printf "%-18s %10.4f %10.4f %10.4f %10.4f %10.4f %7.1fx\n%!"
          name chosen_p50 chosen_p95 legacy_p50 best_forced worst_forced
          (legacy_avg /. Float.max 1e-9 chosen_avg);
        record ~section:"planner" ~label:name
          [
            ("chosen_p50_s", chosen_p50);
            ("chosen_p95_s", chosen_p95);
            ("legacy_p50_s", legacy_p50);
            ("legacy_p95_s", legacy_p95);
            ("chosen_avg_s", chosen_avg);
            ("legacy_avg_s", legacy_avg);
            ("best_forced_s", best_forced);
            ("worst_forced_s", worst_forced);
            ("chosen_over_best",
             chosen_avg /. Float.max 1e-9 best_forced);
            ("legacy_over_chosen",
             legacy_avg /. Float.max 1e-9 chosen_avg);
            ("forced_alternatives", float_of_int (List.length forced_avgs));
          ]
      end)
    families;
  (* Plan-cache effect: planning the same statement again should be
     (almost) free — the decisions replay from the fingerprint cache. *)
  (match families with
  | (_, conn, _, q :: _) :: _ ->
      let parsed = ok (Nepal.Query_parser.parse q) in
      Nepal.Planner.cache_clear ();
      let _, t_first = time (fun () -> ok (Nepal.Engine.plan ~conn parsed)) in
      let reps = 200 in
      let _, t_total =
        time (fun () ->
            for _ = 1 to reps do
              ignore (Nepal.Engine.plan ~conn parsed)
            done)
      in
      let t_repeat = t_total /. float_of_int reps in
      let _, hits, misses = Nepal.Planner.cache_stats () in
      Printf.printf
        "plan cache: first %.3f ms, repeat %.4f ms (%.0fx); hits=%d misses=%d\n"
        (t_first *. 1e3) (t_repeat *. 1e3)
        (t_first /. Float.max 1e-9 t_repeat)
        hits misses;
      record ~section:"planner" ~label:"plan-cache"
        [
          ("plan_first_s", t_first);
          ("plan_repeat_s", t_repeat);
          ("speedup", t_first /. Float.max 1e-9 t_repeat);
          ("cache_hits", float_of_int hits);
          ("cache_misses", float_of_int misses);
        ]
  | _ -> ())

let () =
  if want "table1" then run_table1 ();
  if want "table2" then run_table2 ();
  if want "reclass" then run_reclass ();
  if want "storage" then run_storage ();
  if want "backends" then run_backends ();
  if want "anchors" then run_anchors ();
  if want "temporal" then run_temporal ();
  if want "planner" then run_planner ();
  if want "watch" then run_watch ();
  if want "micro" then run_micro ();
  (match !json_file with Some f -> write_json f | None -> ());
  Printf.printf "\nbench complete.\n"
