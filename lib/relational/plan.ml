module Value = Nepal_schema.Value
module Interval_set = Nepal_temporal.Interval_set

type rowset = { cols : string array; rows : Value.t array list }

type agg =
  | Count
  | First of string
  | Iset_union of string
  | Min of string
  | Max of string
  | Sum of string

type t =
  | Scan of { table : string; only : bool }
  | Values of { cols : string list; rows : Value.t array list }
  | Filter of t * Expr.t
  | Project of t * (string * Expr.t) list
  | Rename of t * string
  | Hash_join of { left : t; right : t; left_key : Expr.t; right_key : Expr.t;
                   residual : Expr.t }
  | Union_all of t list
  | Distinct of t
  | Aggregate of { input : t; group_by : string list; aggs : (string * agg) list }
  | Sort of t * (Expr.t * [ `Asc | `Desc ]) list
  | Limit of t * int

let ( let* ) = Result.bind

let env_of cols =
  let index = Hashtbl.create (Array.length cols) in
  Array.iteri (fun i c -> if not (Hashtbl.mem index c) then Hashtbl.replace index c i) cols;
  fun row c ->
    match Hashtbl.find_opt index c with
    | Some i -> row.(i)
    | None -> Value.Null

let rec find_column cols row c i =
  if i = Array.length cols then Value.Null
  else if String.equal cols.(i) c then row.(i)
  else find_column cols row c (i + 1)

let column_value rs row c = find_column rs.cols row c 0
let rowset_count rs = List.length rs.rows

(* Project a child-table row (whose columns extend the parent's) onto
   the parent's column list. *)
let project_onto parent_cols (tbl : Table.t) rows =
  let idx =
    Array.map
      (fun c ->
        match Table.col_index tbl c with
        | Some i -> i
        | None -> -1)
      parent_cols
  in
  List.map (fun row -> Array.map (fun i -> if i >= 0 then row.(i) else Value.Null) idx) rows

(* -- SQL rendering --------------------------------------------------- *)

let agg_sql = function
  | Count -> "count(*)"
  | First c -> Printf.sprintf "first(%s)" c
  | Iset_union c -> Printf.sprintf "range_agg(%s)" c
  | Min c -> Printf.sprintf "min(%s)" c
  | Max c -> Printf.sprintf "max(%s)" c
  | Sum c -> Printf.sprintf "sum(%s)" c

let rec to_sql = function
  | Scan { table; only } ->
      if only then Printf.sprintf "SELECT * FROM ONLY %s" table
      else Printf.sprintf "SELECT * FROM %s" table
  | Values { cols; rows } ->
      Printf.sprintf "SELECT * FROM (VALUES %s) AS v(%s)"
        (String.concat ", "
           (List.map
              (fun r ->
                "("
                ^ String.concat ", "
                    (List.map
                       (fun v -> Expr.to_sql (Expr.Const v))
                       (Array.to_list r))
                ^ ")")
              rows))
        (String.concat ", " cols)
  | Filter (input, pred) ->
      Printf.sprintf "SELECT * FROM (%s) q WHERE %s" (to_sql input)
        (Expr.to_sql pred)
  | Project (input, items) ->
      Printf.sprintf "SELECT %s FROM (%s) q"
        (String.concat ", "
           (List.map (fun (n, e) -> Printf.sprintf "%s AS %s" (Expr.to_sql e) n) items))
        (to_sql input)
  | Rename (input, prefix) ->
      Printf.sprintf "SELECT * FROM (%s) AS %s" (to_sql input) prefix
  | Hash_join { left; right; left_key; right_key; residual } ->
      Printf.sprintf "SELECT * FROM (%s) l JOIN (%s) r ON %s = %s AND %s"
        (to_sql left) (to_sql right) (Expr.to_sql left_key)
        (Expr.to_sql right_key) (Expr.to_sql residual)
  | Union_all inputs ->
      String.concat " UNION ALL " (List.map (fun p -> "(" ^ to_sql p ^ ")") inputs)
  | Distinct input -> Printf.sprintf "SELECT DISTINCT * FROM (%s) q" (to_sql input)
  | Aggregate { input; group_by; aggs } ->
      Printf.sprintf "SELECT %s FROM (%s) q%s"
        (String.concat ", "
           (group_by
           @ List.map (fun (n, a) -> Printf.sprintf "%s AS %s" (agg_sql a) n) aggs))
        (to_sql input)
        (if group_by = [] then "" else " GROUP BY " ^ String.concat ", " group_by)
  | Sort (input, keys) ->
      Printf.sprintf "%s ORDER BY %s" (to_sql input)
        (String.concat ", "
           (List.map
              (fun (e, dir) ->
                Expr.to_sql e ^ match dir with `Asc -> " ASC" | `Desc -> " DESC")
              keys))
  | Limit (input, n) -> Printf.sprintf "%s LIMIT %d" (to_sql input) n

(* -- tables referenced by a plan (for cache invalidation) -------- *)

let rec tables_of db = function
  | Scan { table; only } ->
      if only then [ table ] else Database.family db table
  | Values _ -> []
  | Filter (p, _) | Project (p, _) | Rename (p, _) | Distinct p
  | Sort (p, _) | Limit (p, _) ->
      tables_of db p
  | Aggregate { input; _ } -> tables_of db input
  | Hash_join { left; right; _ } -> tables_of db left @ tables_of db right
  | Union_all ps -> List.concat_map (tables_of db) ps

let rec run db plan =
  match plan with
  | Scan { table; only } ->
      let* tbl = Database.table db table in
      let names = if only then [ table ] else Database.family db table in
      let cols = tbl.Table.cols in
      let* rows =
        List.fold_left
          (fun acc name ->
            let* acc = acc in
            let* child = Database.table db name in
            Ok (acc @ project_onto cols child (Table.rows_in_order child)))
          (Ok []) names
      in
      Ok { cols; rows }
  | Values { cols; rows } -> Ok { cols = Array.of_list cols; rows }
  | Filter (input, pred) ->
      let* rs = run db input in
      let env = env_of rs.cols in
      Ok { rs with rows = List.filter (fun r -> Expr.eval_bool (env r) pred) rs.rows }
  | Project (input, items) ->
      let* rs = run db input in
      let env = env_of rs.cols in
      let cols = Array.of_list (List.map fst items) in
      let exprs = List.map snd items in
      let rows =
        List.map
          (fun r ->
            let e = env r in
            Array.of_list (List.map (Expr.eval e) exprs))
          rs.rows
      in
      Ok { cols; rows }
  | Rename (input, prefix) ->
      let* rs = run db input in
      Ok { rs with cols = Array.map (fun c -> prefix ^ "." ^ c) rs.cols }
  | Hash_join { left; right; left_key; right_key; residual } ->
      let* lrs = run db left in
      let* rcols, buckets = build_side db right right_key in
      let lenv = env_of lrs.cols in
      let cols = Array.append lrs.cols rcols in
      let joined_env = env_of cols in
      let rows =
        List.concat_map
          (fun lrow ->
            let k = Expr.eval (lenv lrow) left_key in
            if k = Value.Null then []
            else
              (match Hashtbl.find_opt buckets (Value.hash k) with
              | Some entries -> entries
              | None -> [])
              |> List.filter_map (fun (k', rrow) ->
                     if Value.equal k k' then
                       let combined = Array.append lrow rrow in
                       if Expr.eval_bool (joined_env combined) residual then
                         Some combined
                       else None
                     else None))
          lrs.rows
      in
      Ok { cols; rows }
  | Union_all inputs -> (
      match inputs with
      | [] -> Ok { cols = [||]; rows = [] }
      | first :: rest ->
          let* frs = run db first in
          let* rows =
            List.fold_left
              (fun acc p ->
                let* acc = acc in
                let* rs = run db p in
                if Array.length rs.cols <> Array.length frs.cols then
                  Error "UNION branches have different arities"
                else Ok (acc @ rs.rows))
              (Ok frs.rows) rest
          in
          Ok { cols = frs.cols; rows })
  | Distinct input ->
      let* rs = run db input in
      let seen = Hashtbl.create 256 in
      let rows =
        List.filter
          (fun r ->
            let key = Value.List (Array.to_list r) in
            let h = Value.hash key in
            let dups = Hashtbl.find_all seen h in
            if List.exists (Value.equal key) dups then false
            else begin
              Hashtbl.add seen h key;
              true
            end)
          rs.rows
      in
      Ok { rs with rows }
  | Aggregate { input; group_by; aggs } ->
      let* rs = run db input in
      let env = env_of rs.cols in
      let groups : (int, Value.t list * Value.t array list) Hashtbl.t =
        Hashtbl.create 64
      in
      let order = ref [] in
      List.iter
        (fun r ->
          let key = List.map (env r) group_by in
          let h = Value.hash (Value.List key) in
          let rec find = function
            | [] -> None
            | (k, _) :: _ when List.for_all2 Value.equal k key ->
                Some h
            | _ :: rest -> find rest
          in
          match find (Hashtbl.find_all groups h) with
          | Some _ ->
              let k, rows = Hashtbl.find groups h in
              Hashtbl.replace groups h (k, r :: rows)
          | None ->
              Hashtbl.add groups h (key, [ r ]);
              order := h :: !order)
        rs.rows;
      let agg_value rows = function
        | Count -> Value.Int (List.length rows)
        | First c -> (
            match List.rev rows with [] -> Value.Null | r :: _ -> env r c)
        | Iset_union c ->
            let sets =
              List.filter_map (fun r -> Ivalue.to_interval_set (env r c)) rows
            in
            Ivalue.of_interval_set
              (List.fold_left Interval_set.union Interval_set.empty sets)
        | Min c ->
            List.fold_left
              (fun acc r ->
                let v = env r c in
                if v = Value.Null then acc
                else if acc = Value.Null || Value.compare v acc < 0 then v
                else acc)
              Value.Null rows
        | Max c ->
            List.fold_left
              (fun acc r ->
                let v = env r c in
                if v = Value.Null then acc
                else if acc = Value.Null || Value.compare v acc > 0 then v
                else acc)
              Value.Null rows
        | Sum c ->
            List.fold_left
              (fun acc r ->
                match (acc, env r c) with
                | Value.Int a, Value.Int b -> Value.Int (a + b)
                | Value.Float a, Value.Int b -> Value.Float (a +. float_of_int b)
                | (Value.Int _ as a), Value.Null -> a
                | Value.Int a, Value.Float b -> Value.Float (float_of_int a +. b)
                | Value.Float a, Value.Float b -> Value.Float (a +. b)
                | a, _ -> a)
              (Value.Int 0) rows
      in
      let cols = Array.of_list (group_by @ List.map fst aggs) in
      let rows =
        List.rev_map
          (fun h ->
            let key, rows = Hashtbl.find groups h in
            Array.of_list (key @ List.map (fun (_, a) -> agg_value rows a) aggs))
          !order
      in
      Ok { cols; rows }
  | Sort (input, keys) ->
      let* rs = run db input in
      let env = env_of rs.cols in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (e, dir) :: rest -> (
              let c = Value.compare (Expr.eval (env a) e) (Expr.eval (env b) e) in
              let c = match dir with `Asc -> c | `Desc -> -c in
              match c with 0 -> go rest | c -> c)
        in
        go keys
      in
      Ok { rs with rows = List.stable_sort cmp rs.rows }
  | Limit (input, n) ->
      let* rs = run db input in
      Ok { rs with rows = List.filteri (fun i _ -> i < n) rs.rows }

(* Build (and cache) the hash side of a join. The cache key is the
   plan's SQL text plus the key expression; entries are invalidated by
   table version counters — the engine's analog of an index. *)
and build_side db right right_key =
  let key = to_sql right ^ "|#|" ^ Expr.to_sql right_key in
  let deps =
    List.sort_uniq compare (tables_of db right)
    |> List.filter_map (fun name ->
           match Database.table db name with
           | Ok tbl -> Some (name, Table.version tbl)
           | Error _ -> None)
  in
  let cache = Database.join_cache db in
  match Hashtbl.find_opt cache key with
  | Some entry when entry.Join_cache.deps = deps ->
      Ok (entry.Join_cache.cols, entry.Join_cache.buckets)
  | _ ->
      let* rrs = run db right in
      let renv = env_of rrs.cols in
      let buckets = Hashtbl.create (max 16 (List.length rrs.rows)) in
      List.iter
        (fun r ->
          let k = Expr.eval (renv r) right_key in
          if k <> Value.Null then begin
            let h = Value.hash k in
            let existing =
              match Hashtbl.find_opt buckets h with Some l -> l | None -> []
            in
            Hashtbl.replace buckets h ((k, r) :: existing)
          end)
        rrs.rows;
      Hashtbl.replace cache key
        { Join_cache.deps; buckets; cols = rrs.cols };
      Ok (rrs.cols, buckets)

let run_exn db plan =
  match run db plan with
  | Ok rs -> rs
  | Error e -> invalid_arg ("Plan.run_exn: " ^ e)

let create_temp db plan =
  let* rs = run db plan in
  let name = Database.fresh_temp_name db in
  let* () =
    Database.create_table db ~temp:true ~name (Array.to_list rs.cols)
  in
  let* tbl = Database.table db name in
  let* () =
    List.fold_left
      (fun acc row ->
        let* () = acc in
        Table.insert_row tbl row)
      (Ok ()) rs.rows
  in
  Ok name

