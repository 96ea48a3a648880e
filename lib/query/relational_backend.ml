module Schema = Nepal_schema.Schema
module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Time_point = Nepal_temporal.Time_point
module Time_constraint = Nepal_temporal.Time_constraint
module Interval = Nepal_temporal.Interval
module Interval_set = Nepal_temporal.Interval_set
module Rpe = Nepal_rpe.Rpe
module Predicate = Nepal_rpe.Predicate
module R = Nepal_relational
open Backend_intf

type t = {
  schema : Schema.t;
  db : R.Database.t;
  mutable next_uid : int;
  mutable clock : Time_point.t;
  (* uid -> concrete class; mirrors the `uids` directory table for
     O(1) lookup. *)
  directory : (int, string) Hashtbl.t;
  (* (class, field) -> (rows seen at computation time, distinct values):
     the planner statistics behind anchor costing. *)
  stats : (string * string, int * int) Hashtbl.t;
  mutable log : string list;
  mutable log_len : int;
}

let ( let* ) = Result.bind

let name = "relational"
let schema t = t.schema
let database t = t.db

(* Read paths mutate connection state (SQL log, temp tables, join
   caches, lazy statistics), so walks stay sequential here. *)
let parallel_safe = false

let max_log = 500

let log_sql t sql =
  if t.log_len < max_log then begin
    t.log <- sql :: t.log;
    t.log_len <- t.log_len + 1
  end

let take_log t =
  let l = List.rev t.log in
  t.log <- [];
  t.log_len <- 0;
  l

let reserved_cols = [ "id_"; "source_id_"; "target_id_"; "cls_"; "sys_period" ]

let base_cols sch cls =
  match Schema.kind_of sch cls with
  | Some Schema.Edge_kind -> [ "id_"; "source_id_"; "target_id_" ]
  | _ -> [ "id_" ]

let own_fields sch cls =
  let all = Schema.fields_of sch cls in
  match Schema.parent_of sch cls with
  | Some p when p <> "Any" && p <> "Node" && p <> "Edge" ->
      let parent_fields = List.map fst (Schema.fields_of sch p) in
      List.filter (fun (f, _) -> not (List.mem f parent_fields)) all
  | _ -> all

let table_cols sch cls =
  (* Parent columns first (INHERITS prefix rule), then own fields. *)
  let parent_cols =
    match Schema.parent_of sch cls with
    | Some p when p <> "Any" ->
        if p = "Node" || p = "Edge" then base_cols sch cls
        else base_cols sch cls @ List.map fst (Schema.fields_of sch p)
    | _ -> base_cols sch cls
  in
  parent_cols @ List.map fst (own_fields sch cls)

let create sch =
  let db = R.Database.create () in
  let* () = R.Database.create_table db ~name:"uids" [ "id_"; "cls_" ] in
  (* Create class tables top-down so parents exist first. *)
  let create_class parent_table cls =
    let* () =
      if cls = "Node" || cls = "Edge" then
        R.Temporal_tables.create db ~name:cls (base_cols sch cls)
      else begin
        let clash =
          List.find_opt
            (fun (f, _) -> List.mem f reserved_cols)
            (Schema.fields_of sch cls)
        in
        match clash with
        | Some (f, _) ->
            Error (Printf.sprintf "field %S of class %S clashes with a reserved column" f cls)
        | None ->
            R.Temporal_tables.create db ?parent:parent_table ~name:cls
              (table_cols sch cls)
      end
    in
    List.fold_left
      (fun acc child ->
        let* () = acc in
        if child = cls then Ok () else Ok ())
      (Ok ()) []
  in
  let rec walk parent_table cls =
    let* () = create_class parent_table cls in
    let children =
      List.filter
        (fun c -> Schema.parent_of sch c = Some cls)
        (Schema.all_classes sch)
    in
    List.fold_left
      (fun acc child ->
        let* () = acc in
        walk (Some cls) child)
      (Ok ()) children
  in
  let* () = walk None "Node" in
  let* () = walk None "Edge" in
  Ok
    {
      schema = sch;
      db;
      next_uid = 1;
      clock = Time_point.epoch;
      directory = Hashtbl.create 4096;
      stats = Hashtbl.create 64;
      log = [];
      log_len = 0;
    }

let create_exn sch =
  match create sch with
  | Ok t -> t
  | Error e -> invalid_arg ("Relational_backend.create_exn: " ^ e)

(* -- mutations ------------------------------------------------------- *)

let tick t at =
  if Time_point.compare at t.clock < 0 then
    Error
      (Printf.sprintf "transaction time %s precedes clock %s"
         (Time_point.to_string at) (Time_point.to_string t.clock))
  else begin
    t.clock <- at;
    Ok ()
  end

let register_uid t uid cls =
  Hashtbl.replace t.directory uid cls;
  R.Database.insert t.db "uids" [ ("id_", Value.Int uid); ("cls_", Value.Str cls) ]

let fresh_uid t =
  let u = t.next_uid in
  t.next_uid <- u + 1;
  u

let field_bindings fields = Strmap.bindings fields

let insert_node t ~at ~cls ~fields =
  let* () = tick t at in
  let* () =
    match Schema.kind_of t.schema cls with
    | Some Schema.Node_kind -> Ok ()
    | _ -> Error (Printf.sprintf "%S is not a node class" cls)
  in
  let* fields = Schema.typecheck_record t.schema cls fields in
  let uid = fresh_uid t in
  let* () = register_uid t uid cls in
  let* () =
    R.Temporal_tables.insert t.db cls ~at
      (("id_", Value.Int uid) :: field_bindings fields)
  in
  log_sql t
    (Printf.sprintf "INSERT INTO %s (id_, ...) VALUES (%d, ...)" cls uid);
  Ok uid

let current_class_of t uid = Hashtbl.find_opt t.directory uid

let where_id uid =
  R.Expr.Cmp (R.Expr.Col "id_", R.Expr.Eq, R.Expr.Const (Value.Int uid))

let alive t uid =
  match current_class_of t uid with
  | None -> false
  | Some cls -> (
      let plan =
        R.Plan.Filter (R.Temporal_tables.current t.db cls, where_id uid)
      in
      match R.Plan.run t.db plan with
      | Ok rs -> R.Plan.rowset_count rs > 0
      | Error _ -> false)

let insert_edge t ~at ~cls ~src ~dst ~fields =
  let* () = tick t at in
  let* () =
    match Schema.kind_of t.schema cls with
    | Some Schema.Edge_kind -> Ok ()
    | _ -> Error (Printf.sprintf "%S is not an edge class" cls)
  in
  let* fields = Schema.typecheck_record t.schema cls fields in
  let* src_cls =
    match current_class_of t src with
    | Some c when alive t src -> Ok c
    | _ -> Error (Printf.sprintf "edge source #%d is not alive" src)
  in
  let* dst_cls =
    match current_class_of t dst with
    | Some c when alive t dst -> Ok c
    | _ -> Error (Printf.sprintf "edge target #%d is not alive" dst)
  in
  let* () =
    if Schema.edge_allowed t.schema ~edge:cls ~src:src_cls ~dst:dst_cls then Ok ()
    else
      Error
        (Printf.sprintf "schema forbids edge %s from %s to %s" cls src_cls dst_cls)
  in
  let uid = fresh_uid t in
  let* () = register_uid t uid cls in
  let* () =
    R.Temporal_tables.insert t.db cls ~at
      (("id_", Value.Int uid)
      :: ("source_id_", Value.Int src)
      :: ("target_id_", Value.Int dst)
      :: field_bindings fields)
  in
  log_sql t
    (Printf.sprintf "INSERT INTO %s (id_, source_id_, target_id_, ...) VALUES (%d, %d, %d, ...)"
       cls uid src dst);
  Ok uid

let update t ~at uid ~fields =
  let* () = tick t at in
  match current_class_of t uid with
  | None -> Error (Printf.sprintf "#%d unknown" uid)
  | Some cls ->
      (* Validate merged record: read current row first. *)
      let* fields =
        (* Partial update: typecheck only the supplied fields. *)
        List.fold_left
          (fun acc (f, v) ->
            let* acc = acc in
            match Schema.field_type t.schema cls f with
            | None -> Error (Printf.sprintf "class %S has no field %S" cls f)
            | Some ft ->
                let* () = Schema.typecheck_value t.schema ft v in
                Ok ((f, v) :: acc))
          (Ok []) (Strmap.bindings fields)
      in
      let* n = R.Temporal_tables.update t.db cls ~at ~where_:(where_id uid) ~set:fields in
      if n = 0 then Error (Printf.sprintf "#%d is not alive; cannot update" uid)
      else begin
        log_sql t (Printf.sprintf "UPDATE %s SET ... WHERE id_ = %d" cls uid);
        Ok ()
      end

let live_incident_edges t uid =
  (* Scan the Edge family's current rows for either endpoint. *)
  let plan =
    R.Plan.Filter
      ( R.Temporal_tables.current t.db "Edge",
        R.Expr.Or
          ( R.Expr.Cmp (R.Expr.Col "source_id_", R.Expr.Eq, R.Expr.Const (Value.Int uid)),
            R.Expr.Cmp (R.Expr.Col "target_id_", R.Expr.Eq, R.Expr.Const (Value.Int uid)) ) )
  in
  match R.Plan.run t.db plan with
  | Ok rs ->
      List.filter_map
        (fun row ->
          match R.Plan.column_value rs row "id_" with
          | Value.Int i -> Some i
          | _ -> None)
        rs.R.Plan.rows
  | Error _ -> []

let rec delete t ~at ?(cascade = false) uid =
  let* () = tick t at in
  match current_class_of t uid with
  | None -> Error (Printf.sprintf "#%d unknown" uid)
  | Some cls -> (
      match Schema.kind_of t.schema cls with
      | Some Schema.Edge_kind ->
          let* n = R.Temporal_tables.delete t.db cls ~at ~where_:(where_id uid) in
          if n = 0 then Error (Printf.sprintf "#%d is not alive" uid)
          else begin
            log_sql t (Printf.sprintf "DELETE FROM %s WHERE id_ = %d" cls uid);
            Ok ()
          end
      | _ ->
          let incident = List.sort_uniq Int.compare (live_incident_edges t uid) in
          if incident <> [] && not cascade then
            Error (Printf.sprintf "node #%d has %d live incident edges" uid (List.length incident))
          else
            let* () =
              List.fold_left
                (fun acc e ->
                  let* () = acc in
                  delete t ~at e)
                (Ok ()) incident
            in
            let* n = R.Temporal_tables.delete t.db cls ~at ~where_:(where_id uid) in
            if n = 0 then Error (Printf.sprintf "#%d is not alive" uid)
            else begin
              log_sql t (Printf.sprintf "DELETE FROM %s WHERE id_ = %d" cls uid);
              Ok ()
            end)

(* -- mirroring a native store --------------------------------------- *)

let mirror_store t store =
  let module GS = Nepal_store.Graph_store in
  let module E = Nepal_store.Entity in
  let uids = List.init (GS.count_entities store) (fun i -> i + 1) in
  let insert_version uid (v : E.t) =
    let row =
      ("id_", Value.Int uid)
      :: ("sys_period", R.Ivalue.of_interval v.period)
      :: (match v.endpoints with
         | Some (s, d) -> [ ("source_id_", Value.Int s); ("target_id_", Value.Int d) ]
         | None -> [])
      @ Strmap.bindings v.fields
    in
    let table =
      if Interval.is_current v.period then v.cls
      else R.Temporal_tables.history_name v.cls
    in
    R.Database.insert t.db table row
  in
  List.fold_left
    (fun acc uid ->
      let* () = acc in
      match GS.versions store uid with
      | [] -> Ok ()
      | (first :: _) as versions ->
          let* () = register_uid t uid first.E.cls in
          if uid >= t.next_uid then t.next_uid <- uid + 1;
          List.fold_left
            (fun acc v ->
              let* () = acc in
              insert_version uid v)
            (Ok ()) versions)
    (Ok ()) uids

let stored_rows t =
  R.Database.total_rows t.db
  - (match R.Database.table t.db "uids" with
    | Ok tbl -> R.Table.row_count tbl
    | Error _ -> 0)

(* -- reading --------------------------------------------------------- *)

(* Compile a Nepal predicate to an engine expression over the class
   table's columns. *)
let rec compile_pred (p : Predicate.t) : R.Expr.t =
  match p with
  | Predicate.True -> R.Expr.tt
  | Predicate.And (a, b) -> R.Expr.And (compile_pred a, compile_pred b)
  | Predicate.Or (a, b) -> R.Expr.Or (compile_pred a, compile_pred b)
  | Predicate.Not a -> R.Expr.Not (compile_pred a)
  | Predicate.Cmp (path, op, lit) ->
      let base =
        match path with
        | [] -> R.Expr.Const Value.Null
        | head :: rest ->
            List.fold_left
              (fun acc f -> R.Expr.Data_field (acc, f))
              (R.Expr.Col head) rest
      in
      let op' =
        match op with
        | Predicate.Eq -> R.Expr.Eq
        | Predicate.Ne -> R.Expr.Ne
        | Predicate.Lt -> R.Expr.Lt
        | Predicate.Le -> R.Expr.Le
        | Predicate.Gt -> R.Expr.Gt
        | Predicate.Ge -> R.Expr.Ge
      in
      R.Expr.Cmp (base, op', R.Expr.Const lit)

let run_logged t plan =
  (* Render only while the log still keeps entries. *)
  if t.log_len < max_log then log_sql t (R.Plan.to_sql plan);
  R.Plan.run t.db plan

let row_fields sch cls ~is_node rs row =
  let fields =
    List.fold_left
      (fun acc (f, _) ->
        Strmap.add f (R.Plan.column_value rs row f) acc)
      Strmap.empty (Schema.fields_of sch cls)
  in
  if is_node then fields
  else
    fields
    |> Strmap.add "source_id_" (R.Plan.column_value rs row "source_id_")
    |> Strmap.add "target_id_" (R.Plan.column_value rs row "target_id_")

let element_of_row sch cls rs row =
  let is_node = Schema.kind_of sch cls = Some Schema.Node_kind in
  match R.Plan.column_value rs row "id_" with
  | Value.Int uid ->
      Some { Path.uid; cls; fields = row_fields sch cls ~is_node rs row; is_node }
  | _ -> None

let row_period rs row = R.Ivalue.to_interval (R.Plan.column_value rs row "sys_period")

(* The rows of a (possibly multi-version) scan by uid, in descending uid
   order: the latest qualifying row, then the others. *)
let latest_first_by_uid rs =
  let best = Hashtbl.create 16 in
  List.iter
    (fun row ->
      match R.Plan.column_value rs row "id_" with
      | Value.Int uid -> (
          let period = R.Plan.column_value rs row "sys_period" in
          match Hashtbl.find_opt best uid with
          | Some (p0, latest, older) when Value.compare p0 period >= 0 ->
              Hashtbl.replace best uid (p0, latest, row :: older)
          | Some (_, latest, older) ->
              Hashtbl.replace best uid (period, row, latest :: older)
          | None -> Hashtbl.replace best uid (period, row, []))
      | _ -> ())
    rs.R.Plan.rows;
  Hashtbl.fold (fun uid (_, latest, older) acc -> (uid, latest, older) :: acc) best []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a)

(* A read's elements in uid order, one per uid from its latest row.
   Under Range every row is also a version of its uid (the rows the
   window-overlap filter returned); the latest shares the element's
   field map. *)
let read_rows sch ~tc cls rs =
  let range = match tc with Time_constraint.Range _ -> true | _ -> false in
  let elems = ref [] and versions = ref no_versions in
  List.iter
    (fun (uid, latest, older) ->
      match element_of_row sch cls rs latest with
      | None -> ()
      | Some e ->
          elems := e :: !elems;
          if range then
            let version fields row =
              Option.map (fun period -> { period; fields }) (row_period rs row)
            in
            let others =
              List.filter_map
                (fun row -> version (row_fields sch cls ~is_node:e.Path.is_node rs row) row)
                older
            in
            versions :=
              (uid, Option.to_list (version e.Path.fields latest) @ others) :: !versions)
    (latest_first_by_uid rs);
  (!elems, !versions)

let temporal_filter_expr tc =
  match tc with
  | Time_constraint.Snapshot -> R.Expr.Period_is_current (R.Expr.Col "sys_period")
  | Time_constraint.At p ->
      R.Expr.Period_contains (R.Expr.Col "sys_period", R.Expr.Const (Value.Time p))
  | Time_constraint.Range (w0, w1) ->
      R.Expr.Period_overlaps
        ( R.Expr.Col "sys_period",
          R.Expr.Const (Value.Time w0),
          R.Expr.Const (Value.Time w1) )

(* The Select operator's plan for one concrete class table — shared by
   execution ([select_atom]) and EXPLAIN ([describe_select]) so the
   rendered SQL is exactly what runs. *)
let select_plan ~tc (a : Rpe.atom) cls =
  (* ONLY-scan each concrete table so child columns survive. *)
  let base =
    R.Plan.Union_all
      [
        R.Plan.Scan { table = cls; only = true };
        R.Plan.Scan { table = R.Temporal_tables.history_name cls; only = true };
      ]
  in
  let residual = R.Expr.And (temporal_filter_expr tc, compile_pred a.Rpe.pred) in
  (* An equality predicate becomes an index-style probe: a hash
     join against the cached build side keyed by that column. *)
  match Predicate.equality_lookups a.Rpe.pred with
  | (field, v) :: _ ->
      R.Plan.Hash_join
        {
          left = R.Plan.Values { cols = [ "probe_val" ]; rows = [ [| v |] ] };
          right = base;
          left_key = R.Expr.Col "probe_val";
          right_key = R.Expr.Col field;
          residual;
        }
  | [] -> R.Plan.Filter (base, residual)

let select_atom t ~tc (a : Rpe.atom) =
  let sch = t.schema in
  let concrete = Schema.concrete_subclasses sch a.Rpe.cls in
  let per_class =
    List.map
      (fun cls ->
        match run_logged t (select_plan ~tc a cls) with
        | Error _ -> ([], no_versions)
        | Ok rs -> read_rows sch ~tc cls rs)
      concrete
  in
  (List.concat_map fst per_class, List.concat_map snd per_class)

(* Distinct-value statistics per (class, field), recomputed lazily when
   the extent has grown substantially — the planner statistics the
   paper mentions ("database statistics are used if available"). *)
let distinct_values t cls field =
  let rows, classes =
    List.fold_left
      (fun (acc, cs) c ->
        match R.Database.table t.db c with
        | Ok tbl -> (acc + R.Table.row_count tbl, tbl :: cs)
        | Error _ -> (acc, cs))
      (0, [])
      (Schema.concrete_subclasses t.schema cls)
  in
  match Hashtbl.find_opt t.stats (cls, field) with
  | Some (seen_rows, distinct) when rows <= 2 * max 1 seen_rows -> (rows, distinct)
  | _ ->
      let seen = Hashtbl.create 256 in
      List.iter
        (fun tbl ->
          match R.Table.col_index tbl field with
          | None -> ()
          | Some idx ->
              List.iter
                (fun row -> Hashtbl.replace seen (Value.hash row.(idx)) ())
                (R.Table.rows_in_order tbl))
        classes;
      let distinct = max 1 (Hashtbl.length seen) in
      Hashtbl.replace t.stats (cls, field) (rows, distinct);
      (rows, distinct)

let estimate_atom t (a : Rpe.atom) =
  let sch = t.schema in
  let count =
    List.fold_left
      (fun acc cls ->
        match R.Database.table t.db cls with
        | Ok tbl -> acc + R.Table.row_count tbl
        | Error _ -> acc)
      0
      (Schema.concrete_subclasses sch a.Rpe.cls)
  in
  let countf =
    if count > 0 then float_of_int count
    else
      match Schema.cardinality_hint sch a.Rpe.cls with
      | Some h -> float_of_int h
      | None -> 100_000.
  in
  match Predicate.equality_lookups a.Rpe.pred with
  | (field, _) :: _ when count > 0 ->
      let rows, distinct = distinct_values t a.Rpe.cls field in
      Float.max 1. (float_of_int rows /. float_of_int distinct)
  | _ :: _ -> Float.max 1. (countf /. 100.)
  | [] -> countf


(* Point lookups go through a hash join against the class's historical
   union so the engine's join cache (one hash build per table version)
   serves them in O(1) — the analog of the primary-key index a real
   Postgres would have on id_. *)
let rows_by_uid t cls uids =
  let base =
    R.Plan.Union_all
      [
        R.Plan.Scan { table = cls; only = true };
        R.Plan.Scan { table = R.Temporal_tables.history_name cls; only = true };
      ]
  in
  let plan =
    R.Plan.Hash_join
      {
        left =
          R.Plan.Values
            { cols = [ "probe_uid" ];
              rows = List.map (fun u -> [| Value.Int u |]) uids };
        right = base;
        left_key = R.Expr.Col "probe_uid";
        right_key = R.Expr.Col "id_";
        residual = R.Expr.tt;
      }
  in
  match R.Plan.run t.db plan with Ok rs -> Some rs | Error _ -> None

(* Elements for [uids] of one class: the latest row admitted by the
   constraint per uid, in uid order, with their versions under Range. *)
let elements_by_uids t ~tc cls uids =
  match rows_by_uid t cls uids with
  | None -> ([], no_versions)
  | Some rs ->
      let qualifying =
        List.filter
          (fun row ->
            match row_period rs row with
            | Some iv -> Time_constraint.admits tc iv
            | None -> false)
          rs.R.Plan.rows
      in
      read_rows t.schema ~tc cls { rs with R.Plan.rows = qualifying }

let element_by_uid t ~tc uid =
  match current_class_of t uid with
  | None -> None
  | Some cls -> (
      match elements_by_uids t ~tc cls [ uid ] with
      | e :: _, versions -> Some (e, versions)
      | [], _ -> None)

(* Candidate edge classes to join against when extending from nodes. *)
let extend_edge_classes sch (spec : extend_spec) =
  if spec.with_skip then Schema.concrete_subclasses sch "Edge"
  else
    List.concat_map
      (fun (a : Rpe.atom) ->
        match Rpe.atom_kind sch a with
        | Some Schema.Edge_kind -> Schema.concrete_subclasses sch a.Rpe.cls
        | _ -> [])
      spec.atoms
    |> List.sort_uniq String.compare

(* The Extend operator's join for one edge class against a frontier
   relation — shared by [bulk_extend] and [describe_extend]. *)
let extend_join_plan ~tc ~dir ~frontier cls =
  let key_col = match dir with Fwd -> "source_id_" | Bwd -> "target_id_" in
  let scan =
    R.Plan.Filter
      ( R.Plan.Union_all
          [
            R.Plan.Scan { table = cls; only = true };
            R.Plan.Scan { table = R.Temporal_tables.history_name cls; only = true };
          ],
        temporal_filter_expr tc )
  in
  R.Plan.Hash_join
    {
      left = R.Plan.Scan { table = frontier; only = true };
      right = scan;
      left_key = R.Expr.Col "curr_uid";
      right_key = R.Expr.Col key_col;
      residual =
        R.Expr.Not
          (R.Expr.Arr_contains (R.Expr.Col "id_", R.Expr.Col "uid_list"));
    }

(* The paper's Extend: a hash join between the frontier temp relation
   and each relevant class table, with the cycle-exclusion predicate
   id_ != ANY(uid_list). *)
let bulk_extend t ~tc ~dir ~spec items =
  let sch = t.schema in
  (* Partition frontier items by whether they sit on a node or an edge. *)
  let node_items = List.filter (fun i -> i.frontier.Path.is_node) items in
  let edge_items = List.filter (fun i -> not i.frontier.Path.is_node) items in
  (* The paper's approach: the partial paths live in a TEMP table which
     each Extend joins against the relevant class tables. *)
  let frontier_temp is =
    let values =
      R.Plan.Values
        {
          cols = [ "item_id"; "curr_uid"; "uid_list" ];
          rows =
            List.map
              (fun i ->
                [|
                  Value.Int i.item_id;
                  Value.Int i.frontier.Path.uid;
                  Value.List
                    (List.map
                       (fun u -> Value.Int u)
                       (List.sort_uniq Int.compare
                          (List.map (fun (e : Path.element) -> e.Path.uid) i.prefix)));
                |])
              is;
        }
    in
    match R.Plan.create_temp t.db values with
    | Ok name ->
        log_sql t
          (Printf.sprintf "CREATE TEMP TABLE %s (item_id, curr_uid, uid_list) -- %d paths"
             name (List.length is));
        Some name
    | Error _ -> None
  in
  let edge_classes = extend_edge_classes sch spec in
  let range = match tc with Time_constraint.Range _ -> true | _ -> false in
  let versions = ref no_versions in
  let from_nodes =
    if node_items = [] || edge_classes = [] then []
    else
      match frontier_temp node_items with
      | None -> []
      | Some temp ->
      let results = List.concat_map
        (fun cls ->
          let join = extend_join_plan ~tc ~dir ~frontier:temp cls in
          match run_logged t join with
          | Error _ -> []
          | Ok rs ->
              (* One extension per (item, edge uid): dedup versions. Under
                 Range every row of an edge is one of its versions: an
                 (item, edge) pair's first row is the element's own, and
                 its later rows, which few edges have, go to [more] and
                 then into every entry for that edge. *)
              let seen = Hashtbl.create 64 and more = ref [] in
              let extensions =
                List.filter_map
                  (fun row ->
                    match
                      ( R.Plan.column_value rs row "item_id",
                        R.Plan.column_value rs row "id_" )
                    with
                    | Value.Int item_id, Value.Int uid ->
                        if Hashtbl.mem seen (item_id, uid) then begin
                          (if range then
                             Option.iter
                               (fun period ->
                                 let fields = row_fields sch cls ~is_node:false rs row in
                                 more := (uid, { period; fields }) :: !more)
                               (row_period rs row));
                          None
                        end
                        else begin
                          Hashtbl.replace seen (item_id, uid) ();
                          match element_of_row sch cls rs row with
                          | Some e ->
                              (if range then
                                 match row_period rs row with
                                 | Some period ->
                                     let v = { period; fields = e.Path.fields } in
                                     versions := (uid, [ v ]) :: !versions
                                 | None -> ());
                              Some (item_id, e)
                          | None -> None
                        end
                    | _ -> None)
                  rs.R.Plan.rows
              in
              if !more <> [] then
                versions :=
                  List.map
                    (fun (uid, vs) ->
                      ( uid,
                        vs
                        @ List.filter_map
                            (fun (u, v) -> if u = uid then Some v else None)
                            !more ))
                    !versions;
              extensions)
        edge_classes
      in
      ignore (R.Database.drop_table t.db temp);
      results
  in
  (* From an edge the next element is its endpoint node: one uid probe
     batch per endpoint class, results in item order. *)
  let from_edges =
    let key = match dir with Fwd -> "target_id_" | Bwd -> "source_id_" in
    let wanted =
      List.filter_map
        (fun i ->
          match Strmap.find_opt key i.frontier.Path.fields with
          | Some (Value.Int next_uid) when not (Path.mem_uid next_uid i.prefix) ->
              Some (i.item_id, next_uid)
          | _ -> None)
        edge_items
    in
    let by_class = Hashtbl.create 8 in
    List.iter
      (fun (_, uid) ->
        match current_class_of t uid with
        | Some cls ->
            let uids = Option.value (Hashtbl.find_opt by_class cls) ~default:[] in
            Hashtbl.replace by_class cls (uid :: uids)
        | None -> ())
      wanted;
    let found = Hashtbl.create 64 in
    Hashtbl.iter
      (fun cls uids ->
        let elems, vs = elements_by_uids t ~tc cls (List.sort_uniq Int.compare uids) in
        List.iter (fun (e : Path.element) -> Hashtbl.replace found e.Path.uid e) elems;
        versions := List.rev_append vs !versions)
      by_class;
    List.filter_map
      (fun (item_id, uid) ->
        Option.map (fun e -> (item_id, e)) (Hashtbl.find_opt found uid))
      wanted
  in
  (from_nodes @ from_edges, !versions)

let more_classes = function
  | [] -> ""
  | rest ->
      Printf.sprintf "\n-- plus %d more subclass plan(s): %s" (List.length rest)
        (String.concat ", " rest)

let describe_select t ~tc (a : Rpe.atom) =
  match Schema.concrete_subclasses t.schema a.Rpe.cls with
  | [] -> Printf.sprintf "-- no concrete subclasses of %s" a.Rpe.cls
  | cls :: rest -> R.Plan.to_sql (select_plan ~tc a cls) ^ more_classes rest

let describe_extend t ~tc ~dir ~spec =
  match extend_edge_classes t.schema spec with
  | [] -> "-- endpoint lookup only (no candidate edge classes)"
  | cls :: rest ->
      R.Plan.to_sql (extend_join_plan ~tc ~dir ~frontier:"frontier_tmp" cls)
      ^ more_classes rest

let version_boundaries t ~uid ~window:(w0, w1) =
  match current_class_of t uid with
  | None -> []
  | Some cls -> (
      match rows_by_uid t cls [ uid ] with
      | None -> []
      | Some rs ->
          let in_window p =
            Time_point.compare w0 p <= 0 && Time_point.compare p w1 < 0
          in
          List.concat_map
            (fun row ->
              match R.Ivalue.to_interval (R.Plan.column_value rs row "sys_period") with
              | Some iv ->
                  (if in_window iv.Interval.start then [ iv.Interval.start ] else [])
                  @ (match iv.Interval.stop with
                    | Some e when in_window e -> [ e ]
                    | _ -> [])
              | None -> [])
            rs.R.Plan.rows
          |> List.sort_uniq Time_point.compare)
