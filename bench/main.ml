(* The evaluation harness: one section per artifact of the paper's
   Section 6 (see DESIGN.md's experiment index).

     table1   — Table 1: query response times, virtualized service graph
     table2   — Table 2: query response times, legacy topology
     reclass  — Section 6: re-loading the legacy graph with 66 edge subclasses
     storage  — Section 6: temporal-table storage overhead vs 60 snapshots
     backends — Section 5: the same workload through SQL and Gremlin targets
     anchors  — Section 5.1: anchor-selection ablation
     temporal — Section 4: snapshot vs timeslice vs time-range costs

   Run all:            dune exec bench/main.exe
   Run one section:    dune exec bench/main.exe -- table1
   Quick mode:         dune exec bench/main.exe -- all --quick

   A `!!` line means two evaluations that must agree did not (a
   backend or a forced anchor changed a result); the run then exits
   non-zero.

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

let known =
  [ "all"; "table1"; "table2"; "reclass"; "storage"; "backends"; "anchors"; "temporal" ]

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | s :: rest when List.mem s known ->
        sections := s :: !sections;
        parse rest
    | s :: _ ->
        Printf.eprintf "bench: unknown argument %S (sections: %s; flag: --quick)\n" s
          (String.concat " " known);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let want name =
  match !sections with [] | [ "all" ] -> true | l -> List.mem name l

let ok = function Ok v -> v | Error e -> failwith e

(* Disagreements reported with `!!`; any makes the run exit non-zero. *)
let mismatches = ref 0

let mismatch fmt =
  incr mismatches;
  Printf.printf ("!! " ^^ fmt ^^ "\n")

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
            mismatch "%s disagrees with the native results" name);
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
      if best <> worst then mismatch "result mismatch on %s" name;
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

let () =
  if want "table1" then run_table1 ();
  if want "table2" then run_table2 ();
  if want "reclass" then run_reclass ();
  if want "storage" then run_storage ();
  if want "backends" then run_backends ();
  if want "anchors" then run_anchors ();
  if want "temporal" then run_temporal ();
  Printf.printf "\nbench complete.\n";
  if !mismatches > 0 then begin
    Printf.printf "%d mismatch(es)\n" !mismatches;
    exit 1
  end
