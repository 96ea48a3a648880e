(* The mini relational engine: INHERITS, plan operators, expressions,
   temporal tables, SQL rendering, join-cache invalidation. *)

open Nepal_relational
module Value = Nepal_schema.Value
module Time_point = Nepal_temporal.Time_point
module Time_constraint = Nepal_temporal.Time_constraint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tp = Time_point.of_string_exn
let t0 = tp "2017-02-01 00:00:00"
let t1 = tp "2017-02-05 00:00:00"
let t2 = tp "2017-02-10 00:00:00"

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let i n = Value.Int n
let s x = Value.Str x

(* -- tables & INHERITS ---------------------------------------------- *)

let vm_family () =
  let db = Database.create () in
  ok (Database.create_table db ~name:"Node" [ "id_" ]);
  ok (Database.create_table db ~parent:"Node" ~name:"VM" [ "id_"; "status" ]);
  ok (Database.create_table db ~parent:"VM" ~name:"VMWare" [ "id_"; "status"; "dc" ]);
  ok (Database.create_table db ~parent:"VM" ~name:"OnMetal" [ "id_"; "status" ]);
  ok (Database.insert db "VM" [ ("id_", i 1); ("status", s "Green") ]);
  ok (Database.insert db "VMWare" [ ("id_", i 2); ("status", s "Red"); ("dc", s "east") ]);
  ok (Database.insert db "OnMetal" [ ("id_", i 3); ("status", s "Green") ]);
  db

let test_inherits_scan () =
  let db = vm_family () in
  let rs = Plan.run_exn db (Plan.Scan { table = "VM"; only = false }) in
  check_int "family scan sees children" 3 (Plan.rowset_count rs);
  let rs_only = Plan.run_exn db (Plan.Scan { table = "VM"; only = true }) in
  check_int "ONLY scan" 1 (Plan.rowset_count rs_only);
  let rs_node = Plan.run_exn db (Plan.Scan { table = "Node"; only = false }) in
  check_int "root family" 3 (Plan.rowset_count rs_node);
  (* Child columns are projected away on a parent scan. *)
  check_bool "parent cols only" true
    (Array.to_list rs.Plan.cols = [ "id_"; "status" ])

let test_child_prefix_enforced () =
  let db = Database.create () in
  ok (Database.create_table db ~name:"P" [ "a"; "b" ]);
  (* Reordered parent columns are fine (merge is by name)... *)
  ok (Database.create_table db ~parent:"P" ~name:"C" [ "b"; "a"; "c" ]);
  (* ...but dropping a parent column is not. *)
  match Database.create_table db ~parent:"P" ~name:"D" [ "a"; "c" ] with
  | Ok () -> Alcotest.fail "child missing a parent column accepted"
  | Error _ -> ()

let test_drop_rules () =
  let db = vm_family () in
  (match Database.drop_table db "VM" with
  | Ok () -> Alcotest.fail "dropped a table with children"
  | Error _ -> ());
  ok (Database.drop_table db "VMWare");
  check_bool "gone" false (Database.mem_table db "VMWare")

(* -- plan operators --------------------------------------------------- *)

let test_filter_project () =
  let db = vm_family () in
  let plan =
    Plan.Project
      ( Plan.Filter
          ( Plan.Scan { table = "VM"; only = false },
            Expr.Cmp (Expr.Col "status", Expr.Eq, Expr.Const (s "Green")) ),
        [ ("vm_id", Expr.Col "id_") ] )
  in
  let rs = Plan.run_exn db plan in
  check_int "two green" 2 (Plan.rowset_count rs);
  check_bool "projected col" true (rs.Plan.cols = [| "vm_id" |])

let test_hash_join_and_residual () =
  let db = vm_family () in
  ok (Database.create_table db ~name:"edges" [ "src"; "dst" ]);
  ok (Database.insert db "edges" [ ("src", i 1); ("dst", i 2) ]);
  ok (Database.insert db "edges" [ ("src", i 1); ("dst", i 3) ]);
  ok (Database.insert db "edges" [ ("src", i 2); ("dst", i 3) ]);
  let plan =
    Plan.Hash_join
      {
        left = Plan.Scan { table = "edges"; only = false };
        right =
          Plan.Project
            ( Plan.Scan { table = "VM"; only = false },
              [ ("vm_id", Expr.Col "id_"); ("vm_status", Expr.Col "status") ] );
        left_key = Expr.Col "dst";
        right_key = Expr.Col "vm_id";
        residual = Expr.Cmp (Expr.Col "vm_status", Expr.Eq, Expr.Const (s "Green"));
      }
  in
  let rs = Plan.run_exn db plan in
  (* Joins landing on vm 3 (green): edges 1->3 and 2->3. *)
  check_int "residual filters" 2 (Plan.rowset_count rs)

let test_union_distinct_sort_limit () =
  let db = vm_family () in
  let vm = Plan.Scan { table = "VM"; only = true } in
  let rs = Plan.run_exn db (Plan.Union_all [ vm; vm; vm ]) in
  check_int "union all" 3 (Plan.rowset_count rs);
  let rs2 = Plan.run_exn db (Plan.Distinct (Plan.Union_all [ vm; vm ])) in
  check_int "distinct" 1 (Plan.rowset_count rs2);
  let all = Plan.Scan { table = "VM"; only = false } in
  let sorted =
    Plan.run_exn db (Plan.Sort (all, [ (Expr.Col "id_", `Desc) ]))
  in
  (match sorted.Plan.rows with
  | first :: _ -> check_bool "desc order" true (Value.equal first.(0) (i 3))
  | [] -> Alcotest.fail "empty");
  let limited = Plan.run_exn db (Plan.Limit (all, 2)) in
  check_int "limit" 2 (Plan.rowset_count limited)

let test_aggregate () =
  let db = vm_family () in
  let plan =
    Plan.Aggregate
      {
        input = Plan.Scan { table = "VM"; only = false };
        group_by = [ "status" ];
        aggs = [ ("n", Plan.Count); ("max_id", Plan.Max "id_") ];
      }
  in
  let rs = Plan.run_exn db plan in
  check_int "two groups" 2 (Plan.rowset_count rs);
  let green =
    List.find
      (fun row -> Value.equal (Plan.column_value rs row "status") (s "Green"))
      rs.Plan.rows
  in
  check_bool "count green" true (Value.equal (Plan.column_value rs green "n") (i 2));
  check_bool "max id green" true
    (Value.equal (Plan.column_value rs green "max_id") (i 3))

let test_array_exprs () =
  let env c =
    match c with
    | "uid_list" -> Value.List [ i 1; i 2 ]
    | "x" -> i 2
    | _ -> Value.Null
  in
  check_bool "contains" true
    (Expr.eval_bool env (Expr.Arr_contains (Expr.Col "x", Expr.Col "uid_list")));
  check_bool "not contains" true
    (Expr.eval_bool env
       (Expr.Not (Expr.Arr_contains (Expr.Const (i 9), Expr.Col "uid_list"))));
  match Expr.eval env (Expr.Arr_concat (Expr.Col "uid_list", Expr.Arr_lit [ Expr.Const (i 3) ])) with
  | Value.List l -> check_int "concat length" 3 (List.length l)
  | _ -> Alcotest.fail "expected list"

(* -- temporal tables -------------------------------------------------- *)

let temporal_db () =
  let db = Database.create () in
  ok (Temporal_tables.create db ~name:"VM" [ "id_"; "status" ]);
  ok (Temporal_tables.insert db "VM" ~at:t0 [ ("id_", i 1); ("status", s "Green") ]);
  ok (Temporal_tables.insert db "VM" ~at:t0 [ ("id_", i 2); ("status", s "Green") ]);
  db

let where_id n = Expr.Cmp (Expr.Col "id_", Expr.Eq, Expr.Const (i n))

let test_temporal_update_moves_history () =
  let db = temporal_db () in
  let n = ok (Temporal_tables.update db "VM" ~at:t1 ~where_:(where_id 1) ~set:[ ("status", s "Red") ]) in
  check_int "one row updated" 1 n;
  let current = Plan.run_exn db (Temporal_tables.current db "VM") in
  check_int "current unchanged count" 2 (Plan.rowset_count current);
  let hist =
    Plan.run_exn db (Plan.Scan { table = Temporal_tables.history_name "VM"; only = false })
  in
  check_int "one archived version" 1 (Plan.rowset_count hist);
  let historical = Plan.run_exn db (Temporal_tables.historical db "VM") in
  check_int "historical view" 3 (Plan.rowset_count historical)

let test_temporal_slice () =
  let db = temporal_db () in
  ignore (ok (Temporal_tables.update db "VM" ~at:t1 ~where_:(where_id 1) ~set:[ ("status", s "Red") ]));
  ignore (ok (Temporal_tables.delete db "VM" ~at:t2 ~where_:(where_id 2)));
  (* Timeslice before any change: both green. *)
  let before = Plan.run_exn db (Temporal_tables.slice db "VM" (Time_constraint.at t0)) in
  check_int "slice at t0" 2 (Plan.rowset_count before);
  let at_t1 = Plan.run_exn db (Temporal_tables.slice db "VM" (Time_constraint.at t1)) in
  check_int "slice at t1" 2 (Plan.rowset_count at_t1);
  let now = Plan.run_exn db (Temporal_tables.slice db "VM" Time_constraint.snapshot) in
  check_int "snapshot after delete" 1 (Plan.rowset_count now);
  let range =
    Plan.run_exn db
      (Temporal_tables.slice db "VM" (Time_constraint.range t0 (tp "2017-03-01 00:00")))
  in
  check_int "range sees all versions" 3 (Plan.rowset_count range)

let test_reserved_column () =
  let db = Database.create () in
  match Temporal_tables.create db ~name:"T" [ "sys_period" ] with
  | Ok () -> Alcotest.fail "reserved column accepted"
  | Error _ -> ()

(* -- SQL rendering ----------------------------------------------------- *)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let test_sql_rendering () =
  let plan =
    Plan.Filter
      ( Plan.Scan { table = "VM"; only = false },
        Expr.And
          ( Expr.Period_contains
              (Expr.Col "sys_period", Expr.Const (Value.Time t0)),
            Expr.Not (Expr.Arr_contains (Expr.Col "id_", Expr.Col "uid_list")) ) )
  in
  let sql = Plan.to_sql plan in
  check_bool "has table" true (contains ~affix:"FROM VM" sql);
  check_bool "has period containment" true (contains ~affix:"sys_period @>" sql);
  check_bool "has ANY" true (contains ~affix:"= ANY(uid_list)" sql)

(* -- join cache --------------------------------------------------------- *)

let test_join_cache_invalidation () =
  let db = vm_family () in
  ok (Database.create_table db ~name:"pairs" [ "k" ]);
  ok (Database.insert db "pairs" [ ("k", i 1) ]);
  let join () =
    Plan.run_exn db
      (Plan.Hash_join
         {
           left = Plan.Scan { table = "pairs"; only = false };
           right = Plan.Scan { table = "VM"; only = false };
           left_key = Expr.Col "k";
           right_key = Expr.Col "id_";
           residual = Expr.tt;
         })
  in
  check_int "first run" 1 (Plan.rowset_count (join ()));
  (* A write to the build side must invalidate the cached hash. *)
  ok (Database.insert db "VM" [ ("id_", i 1); ("status", s "Blue") ]);
  check_int "sees new row" 2 (Plan.rowset_count (join ()))


let test_rename_and_values () =
  let db = vm_family () in
  let plan =
    Plan.Hash_join
      {
        left = Plan.Rename (Plan.Scan { table = "VM"; only = false }, "l");
        right = Plan.Values { cols = [ "k" ]; rows = [ [| i 1 |]; [| i 3 |] ] };
        left_key = Expr.Col "l.id_";
        right_key = Expr.Col "k";
        residual = Expr.tt;
      }
  in
  let rs = Plan.run_exn db plan in
  check_int "rename-qualified join" 2 (Plan.rowset_count rs)

let test_iset_union_aggregate () =
  let db = Database.create () in
  ok (Database.create_table db ~name:"periods" [ "g"; "p" ]);
  let iv a b =
    Ivalue.of_interval_set
      (Nepal_temporal.Interval_set.singleton
         (Nepal_temporal.Interval.between (tp a) (tp b)))
  in
  ok (Database.insert db "periods" [ ("g", i 1); ("p", iv "2017-02-01 00:00" "2017-02-02 00:00") ]);
  ok (Database.insert db "periods" [ ("g", i 1); ("p", iv "2017-02-01 12:00" "2017-02-03 00:00") ]);
  ok (Database.insert db "periods" [ ("g", i 1); ("p", iv "2017-02-05 00:00" "2017-02-06 00:00") ]);
  let plan =
    Plan.Aggregate
      {
        input = Plan.Scan { table = "periods"; only = false };
        group_by = [ "g" ];
        aggs = [ ("u", Plan.Iset_union "p") ];
      }
  in
  let rs = Plan.run_exn db plan in
  check_int "one group" 1 (Plan.rowset_count rs);
  match Ivalue.to_interval_set (Plan.column_value rs (List.hd rs.Plan.rows) "u") with
  | Some set ->
      check_int "merged to two intervals" 2
        (Nepal_temporal.Interval_set.cardinality set)
  | None -> Alcotest.fail "expected an interval set"

(* -- allocation ---------------------------------------------------- *)

(* Mirror backends read every joined cell by name, several times per
   row; the lookup scans the column names in place. Over [n] calls,
   fewer than [n] words in all means none per call. *)
let test_column_value_allocation_free () =
  let rs =
    {
      Plan.cols = [| "item_id"; "curr_uid"; "id_"; "source_id_"; "id_"; "status" |];
      rows = [ [| i 1; i 2; i 3; i 4; i 5; s "Green" |] ];
    }
  in
  let row = List.hd rs.Plan.rows in
  check_bool "first match wins" true (Plan.column_value rs row "id_" = i 3);
  check_bool "absent is NULL" true (Plan.column_value rs row "dc" = Value.Null);
  let n = 1_000 in
  let used, () =
    Words.during (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Plan.column_value rs row "status"));
          ignore (Sys.opaque_identity (Plan.column_value rs row "dc"))
        done)
  in
  if used >= float_of_int n then
    Alcotest.failf "column_value: %.0f words over %d calls" used (2 * n)

let () =
  Alcotest.run "nepal_relational"
    [
      ( "catalog",
        [
          Alcotest.test_case "INHERITS scan" `Quick test_inherits_scan;
          Alcotest.test_case "child column rule" `Quick test_child_prefix_enforced;
          Alcotest.test_case "drop rules" `Quick test_drop_rules;
        ] );
      ( "plans",
        [
          Alcotest.test_case "filter+project" `Quick test_filter_project;
          Alcotest.test_case "hash join" `Quick test_hash_join_and_residual;
          Alcotest.test_case "union/distinct/sort/limit" `Quick test_union_distinct_sort_limit;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "array expressions" `Quick test_array_exprs;
          Alcotest.test_case "rename + values join" `Quick test_rename_and_values;
          Alcotest.test_case "interval-set aggregate" `Quick test_iset_union_aggregate;
        ] );
      ( "temporal_tables",
        [
          Alcotest.test_case "update archives" `Quick test_temporal_update_moves_history;
          Alcotest.test_case "slices" `Quick test_temporal_slice;
          Alcotest.test_case "reserved column" `Quick test_reserved_column;
        ] );
      ("sql", [ Alcotest.test_case "rendering" `Quick test_sql_rendering ]);
      ("cache", [ Alcotest.test_case "invalidation" `Quick test_join_cache_invalidation ]);
      ( "allocation",
        [
          Alcotest.test_case "column_value allocation-free" `Quick
            test_column_value_allocation_free;
        ] );
    ]
