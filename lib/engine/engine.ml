module Strmap = Nepal_util.Strmap
module Metrics = Nepal_util.Metrics
module Event_log = Nepal_util.Event_log
module Value = Nepal_schema.Value
module Time_constraint = Nepal_temporal.Time_constraint
module Interval_set = Nepal_temporal.Interval_set
module Rpe = Nepal_rpe.Rpe
module Anchor = Nepal_rpe.Anchor
module Predicate = Nepal_rpe.Predicate
module Path = Nepal_query.Path
module Backend_intf = Nepal_query.Backend_intf
module Eval_rpe = Nepal_query.Eval_rpe
module Query_ast = Nepal_query.Query_ast
module Query_parser = Nepal_query.Query_parser
module Stat_statements = Nepal_query.Stat_statements
module Trace = Nepal_query.Trace
module Analysis = Nepal_analysis.Analysis
module Diagnostic = Nepal_analysis.Diagnostic
module Planner = Nepal_planner.Planner
open Query_ast

type row = { paths : Path.t Strmap.t; coexist : Interval_set.t option }

type result =
  | Rows of { vars : string list; rows : row list }
  | Table of { columns : string list; rows : Value.t list list }

let ( let* ) = Result.bind

let tc_of_spec = function
  | At_point t -> Time_constraint.at t
  | At_range (a, b) -> Time_constraint.range a b

(* -- scalar evaluation over a row ----------------------------------- *)

let node_of_path f p =
  match f with Source -> Path.source p | Target -> Path.target p

let rec drill fields = function
  | [] -> Value.Null
  | [ f ] -> Strmap.find_opt_or f ~default:Value.Null fields
  | f :: rest -> (
      match Strmap.find_opt f fields with
      | Some (Value.Data (_, inner)) -> drill inner rest
      | _ -> Value.Null)

let eval_scalar row = function
  | Lit v -> Ok v
  | Node_of (f, var) -> (
      match Strmap.find_opt var row.paths with
      | Some p -> Ok (Value.Int (node_of_path f p).Path.uid)
      | None -> Error (Printf.sprintf "unbound pathway variable %S" var))
  | Field_of (f, var, fields) -> (
      match Strmap.find_opt var row.paths with
      | Some p -> Ok (drill (node_of_path f p).Path.fields fields)
      | None -> Error (Printf.sprintf "unbound pathway variable %S" var))
  | Length_of var -> (
      match Strmap.find_opt var row.paths with
      | Some p -> Ok (Value.Int (Path.length p))
      | None -> Error (Printf.sprintf "unbound pathway variable %S" var))
  | Aggregate _ ->
      Error "aggregates are only allowed as Select items"

(* Display form for Select output: nodes render as class#uid. *)
let eval_scalar_display row s =
  match s with
  | Node_of (f, var) -> (
      match Strmap.find_opt var row.paths with
      | Some p ->
          let n = node_of_path f p in
          Ok (Value.Str (Printf.sprintf "%s#%d" n.Path.cls n.Path.uid))
      | None -> Error (Printf.sprintf "unbound pathway variable %S" var))
  | _ -> eval_scalar row s

let rec scalar_vars = function
  | Node_of (_, v) | Field_of (_, v, _) | Length_of v -> [ v ]
  | Lit _ -> []
  | Aggregate (_, Some inner) -> scalar_vars inner
  | Aggregate (_, None) -> []

(* -- correlation substitution for subqueries ------------------------ *)

(* Replace scalar references to outer variables by their literal values
   from the outer row. *)
let substitute_correlated outer_vars outer_row q =
  let subst_scalar s =
    match s with
    | (Node_of (_, v) | Field_of (_, v, _) | Length_of v)
      when List.mem v outer_vars -> (
        match eval_scalar outer_row s with
        | Ok value -> Ok (Lit value)
        | Error e -> Error e)
    | s -> Ok s
  in
  let rec subst_cond = function
    | Cmp (a, op, b) ->
        let* a = subst_scalar a in
        let* b = subst_scalar b in
        Ok (Cmp (a, op, b))
    | And (a, b) ->
        let* a = subst_cond a in
        let* b = subst_cond b in
        Ok (And (a, b))
    | Or (a, b) ->
        let* a = subst_cond a in
        let* b = subst_cond b in
        Ok (Or (a, b))
    | Not c ->
        let* c = subst_cond c in
        Ok (Not c)
    | (Matches _ | Exists _ | Not_exists _) as c -> Ok c
  in
  let* where_ = subst_cond q.where_ in
  Ok { q with where_ }

(* Values of the correlated scalars, used as the memoization key. *)
let correlation_key outer_vars outer_row q =
  let rec collect_cond acc = function
    | Cmp (a, _, b) -> collect_scalar (collect_scalar acc a) b
    | And (a, b) | Or (a, b) -> collect_cond (collect_cond acc a) b
    | Not c -> collect_cond acc c
    | Matches _ | Exists _ | Not_exists _ -> acc
  and collect_scalar acc s =
    match scalar_vars s with
    | [ v ] when List.mem v outer_vars -> (
        match eval_scalar outer_row s with
        | Ok value -> value :: acc
        | Error _ -> Value.Null :: acc)
    | _ -> acc
  in
  collect_cond [] q.where_

(* -- validation and planning ---------------------------------------- *)

type seed_plan =
  | Seed_anchor of Anchor.selection
      (** anchored evaluation over the selection's splits *)
  | Seed_lit of path_fun * Value.t
      (** seeded from a literal-pinned node function *)
  | Seed_join of path_fun * string * path_fun
      (** anchor imported from an already-evaluated join partner:
          (own function, partner variable, partner function) *)
  | Seed_bidi of Eval_rpe.bidi_plan
      (** bidirectional meet-in-the-middle evaluation *)

type var_plan = {
  vp_var : string;
  vp_backend : string;
  vp_tc : Time_constraint.t;
  vp_rpe : Rpe.norm;
  vp_seed : seed_plan;
  vp_opt : Planner.var_decision;
      (** the planner's decision for this variable *)
}

type plan = {
  p_order : var_plan list;  (** in evaluation order *)
  p_joins : (path_fun * string * path_fun * string) list;
  p_filter_count : int;
  p_coexist : bool;
  p_mode : string;
  p_opt : Planner.exec_plan;  (** the compiled plan behind [p_order] *)
}

let conn_for ~conn binds var =
  match List.assoc_opt var binds with Some c -> c | None -> conn

(* Everything [run] decides before it touches data: validation, the
   planner call, and each variable's seed in the planner's order.
   EXPLAIN renders the [plan] half; [run] evaluates it, using the
   classified conditions for the joins and filters. *)
let compile ~conn ~binds q =
  let conn_of = conn_for ~conn binds in
  let declared = List.map (fun v -> v.var_name) q.vars in
  let* () =
    let rec dup = function
      | [] -> Ok ()
      | v :: rest ->
          if List.mem v rest then Error (Printf.sprintf "variable %S declared twice" v)
          else dup rest
    in
    dup declared
  in
  let conjs = conjuncts q.where_ in
  (* MATCHES must appear only as top-level conjuncts. *)
  let* () =
    if
      List.exists
        (fun c ->
          match c with Matches _ -> false | c -> mentions_matches c)
        conjs
    then Error "MATCHES may only appear as a top-level conjunct"
    else Ok ()
  in
  let cls = classify conjs in
  (* One MATCHES per declared variable. *)
  let* var_rpes =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match List.filter (fun (w, _) -> w = v.var_name) cls.matches with
        | [ (_, rpe) ] ->
            let schema = Backend_intf.conn_schema (conn_of v.var_name) in
            let* norm = Rpe.validate schema rpe in
            Ok ((v.var_name, norm) :: acc)
        | [] ->
            Error (Printf.sprintf "variable %S has no MATCHES predicate" v.var_name)
        | _ ->
            Error (Printf.sprintf "variable %S has multiple MATCHES predicates" v.var_name))
      (Ok []) q.vars
  in
  let* () =
    match
      List.find_opt (fun (w, _) -> not (List.mem w declared)) cls.matches
    with
    | Some (w, _) -> Error (Printf.sprintf "MATCHES on undeclared variable %S" w)
    | None -> Ok ()
  in
  let var_tc v =
    match v.var_tc with
    | Some tc -> tc_of_spec tc
    | None -> (
        match q.q_at with
        | Some tc -> tc_of_spec tc
        | None -> Time_constraint.snapshot)
  in
  let tcs = List.map (fun v -> (v.var_name, var_tc v)) q.vars in
  (* A literal-pinned node function supplies a seed. *)
  let lit_anchor var =
    List.find_opt (fun (_, v, _) -> v = var) cls.anchors_from_lit
  in
  let* ep =
    let join_vars var =
      List.filter_map
        (fun (_, v1, _, v2) ->
          if v1 = var then Some v2 else if v2 = var then Some v1 else None)
        cls.joins
    in
    Planner.plan_query
      (List.map
         (fun v ->
           {
             Planner.pi_var = v.var_name;
             pi_conn = conn_of v.var_name;
             pi_tc = List.assoc v.var_name tcs;
             pi_norm = List.assoc v.var_name var_rpes;
             pi_lit_seed = lit_anchor v.var_name <> None;
             pi_join_vars = join_vars v.var_name;
           })
         q.vars)
  in
  (* Seed each variable in the planner's order: a literal or a join
     partner evaluated earlier, else the planner's strategy. *)
  let* _, rev_order =
    List.fold_left
      (fun acc d ->
        let* evaluated, order = acc in
        let var = d.Planner.vd_var in
        let join_partner =
          List.find_map
            (fun (f1, v1, f2, v2) ->
              if v1 = var && List.mem v2 evaluated then Some (f1, v2, f2)
              else if v2 = var && List.mem v1 evaluated then Some (f2, v1, f1)
              else None)
            cls.joins
        in
        let* seed =
          match (lit_anchor var, join_partner, d.vd_strategy) with
          | Some (f, _, (Value.Int _ as lit)), _, _ -> Ok (Seed_lit (f, lit))
          | Some _, _, _ ->
              Error "node functions compare to node identities (integers)"
          | None, Some (f_self, partner, f_partner), _ ->
              Ok (Seed_join (f_self, partner, f_partner))
          | None, None, Eval_rpe.Bidi bp -> Ok (Seed_bidi bp)
          | None, None, Eval_rpe.Forced sel -> Ok (Seed_anchor sel)
          | None, None, Eval_rpe.Auto ->
              Error
                (Printf.sprintf
                   "variable %S is not anchored and cannot import an anchor from a join"
                   var)
        in
        Ok
          ( var :: evaluated,
            {
              vp_var = var;
              vp_backend = Backend_intf.conn_name (conn_of var);
              vp_tc = List.assoc var tcs;
              vp_rpe = List.assoc var var_rpes;
              vp_seed = seed;
              vp_opt = d;
            }
            :: order ))
      (Ok ([], [])) ep.Planner.xp_order
  in
  Ok
    ( {
        p_order = List.rev rev_order;
        p_joins = cls.joins;
        p_filter_count =
          List.length cls.filters + List.length cls.anchors_from_lit;
        p_coexist = (match q.q_at with Some (At_range _) -> true | _ -> false);
        p_mode = (match q.mode with Retrieve _ -> "retrieve" | Select _ -> "select");
        p_opt = ep;
      },
      cls )

let plan ~conn ?(binds = []) q = Result.map fst (compile ~conn ~binds q)

(* -- the main evaluation -------------------------------------------- *)

(* Engine-side span helper; backend round-trips are attributed at the
   Var level (each variable knows its connection), not here. *)
let spanned ?trace name detail f =
  match trace with
  | None -> f None
  | Some parent ->
      let s = Trace.child ~detail parent name in
      Trace.time s (fun () -> f (Some s))

let rec run ~conn ?(binds = []) ?max_length ?stats ?trace q =
  let stats = match stats with Some s -> s | None -> Eval_rpe.new_stats () in
  let* plan, cls = compile ~conn ~binds q in
  let declared = List.map (fun v -> v.var_name) q.vars in
  (* Evaluate the variables in plan order, importing anchors from
     joins. *)
  let evaluated : (string, Path.t list) Hashtbl.t = Hashtbl.create 8 in
  let eval_var vp =
    let var = vp.vp_var and tc = vp.vp_tc and d = vp.vp_opt in
    let c = conn_for ~conn binds var in
    spanned ?trace "Var"
      (Printf.sprintf "%s via %s [%s, %s]" var (Backend_intf.conn_name c)
         d.Planner.vd_desc d.Planner.vd_variant)
      (fun vspan ->
        let rt0 = Backend_intf.conn_roundtrips c in
        let from f reads =
          let elems, versions = List.split reads in
          let versions = List.concat versions in
          match f with
          | Source -> Some (Eval_rpe.From_nodes (elems, versions))
          | Target -> Some (Eval_rpe.To_nodes (elems, versions))
        in
        let seed =
          match vp.vp_seed with
          | Seed_lit (f, Value.Int uid) ->
              from f (Option.to_list (Backend_intf.element_by_uid c ~tc uid))
          | Seed_join (f_self, partner, f_partner) ->
              let uids =
                List.map
                  (fun p -> (node_of_path f_partner p).Path.uid)
                  (Hashtbl.find evaluated partner)
                |> List.sort_uniq Int.compare
              in
              from f_self
                (List.filter_map (Backend_intf.element_by_uid c ~tc) uids)
          | Seed_anchor _ | Seed_bidi _ -> None
          | Seed_lit _ -> None (* [compile] admits integer literals only *)
        in
        Option.iter (fun s -> s.Trace.est_rows <- d.Planner.vd_est_rows) vspan;
        let r =
          Eval_rpe.find c ~tc ?max_length ?seed ~stats
            ~strategy:d.Planner.vd_strategy ?prune:d.Planner.vd_prune
            ?trace:vspan vp.vp_rpe
        in
        (match (vspan, r) with
        | Some s, Ok paths ->
            s.Trace.rows_out <- List.length paths;
            s.Trace.calls <- Backend_intf.conn_roundtrips c - rt0
        | _ -> ());
        r)
  in
  let* () =
    List.fold_left
      (fun acc vp ->
        let* () = acc in
        let* paths = eval_var vp in
        Ok (Hashtbl.replace evaluated vp.vp_var paths))
      (Ok ()) plan.p_order
  in
  let order = List.map (fun vp -> vp.vp_var) plan.p_order in
  (* Join the per-variable path sets. *)
  let join_rows =
    spanned ?trace "Join"
      (Printf.sprintf "vars=%s" (String.concat "," order))
      (fun jspan ->
        let r =
    List.fold_left
      (fun rows var ->
        let paths = Hashtbl.find evaluated var in
        match rows with
        | None -> Some (List.map (fun p -> Strmap.singleton var p) paths)
        | Some rows ->
            let constraints =
              List.filter_map
                (fun (f1, v1, f2, v2) ->
                  if v1 = var && v2 <> var then Some (f1, f2, v2)
                  else if v2 = var && v1 <> var then Some (f2, f1, v1)
                  else None)
                cls.joins
              (* Constraints whose partner joins later are checked then,
                 from the symmetric direction. *)
            in
            let extended =
              List.concat_map
                (fun r ->
                  List.filter_map
                    (fun p ->
                      let ok =
                        List.for_all
                          (fun (f_self, f_partner, partner) ->
                            match Strmap.find_opt partner r with
                            | Some pp ->
                                (node_of_path f_self p).Path.uid
                                = (node_of_path f_partner pp).Path.uid
                            | None -> true)
                          constraints
                      in
                      if ok then Some (Strmap.add var p r) else None)
                    paths)
                rows
            in
            Some extended)
      None order
        in
        (match jspan with
        | Some s ->
            s.Trace.rows_out <- (match r with Some rows -> List.length rows | None -> 0)
        | None -> ());
        r)
  in
  let rows0 = match join_rows with Some r -> r | None -> [] in
  (* Literal anchor conditions double as filters (the seeding above may
     over-approximate when the element was missing). *)
  let lit_filters =
    List.map
      (fun (f, v, lit) -> Cmp (Node_of (f, v), Predicate.Eq, Lit lit))
      cls.anchors_from_lit
  in
  (* Query-level range: all pathways must coexist. *)
  let coexistence_applies = match q.q_at with Some (At_range _) -> true | _ -> false in
  let with_coexist =
    spanned ?trace "Coexist"
      (if coexistence_applies then "range intersection" else "pass-through")
      (fun cspan ->
        let r =
    List.filter_map
      (fun paths ->
        let row = { paths; coexist = None } in
        if not coexistence_applies then Some row
        else
          let governed =
            List.filter (fun v -> v.var_tc = None) q.vars
            |> List.filter_map (fun v -> Strmap.find_opt v.var_name paths)
          in
          let sets = List.filter_map (fun p -> p.Path.valid) governed in
          match sets with
          | [] -> Some row
          | first :: rest -> (
              let inter = List.fold_left Interval_set.inter first rest in
              match q.q_at with
              | Some (At_range (w0, w1)) ->
                  let window =
                    Interval_set.singleton (Nepal_temporal.Interval.between w0 w1)
                  in
                  if Interval_set.is_empty (Interval_set.inter inter window) then
                    None
                  else Some { row with coexist = Some inter }
              | _ ->
                  if Interval_set.is_empty inter then None
                  else Some { row with coexist = Some inter }))
      rows0
        in
        (match cspan with
        | Some s ->
            s.Trace.rows_in <- List.length rows0;
            s.Trace.rows_out <- List.length r
        | None -> ());
        r)
  in
  (* Residual filters and subqueries. *)
  let subquery_memo : (Value.t list, bool) Hashtbl.t = Hashtbl.create 16 in
  let rec eval_condition row = function
    | Matches _ -> Ok true
    | Cmp (a, op, b) ->
        let* va = eval_scalar row a in
        let* vb = eval_scalar row b in
        if Value.equal va Value.Null || Value.equal vb Value.Null then Ok false
        else
          let c = Value.compare va vb in
          Ok
            (match op with
            | Predicate.Eq -> c = 0
            | Predicate.Ne -> c <> 0
            | Predicate.Lt -> c < 0
            | Predicate.Le -> c <= 0
            | Predicate.Gt -> c > 0
            | Predicate.Ge -> c >= 0)
    | And (a, b) ->
        let* ra = eval_condition row a in
        if not ra then Ok false else eval_condition row b
    | Or (a, b) ->
        let* ra = eval_condition row a in
        if ra then Ok true else eval_condition row b
    | Not c ->
        let* r = eval_condition row c in
        Ok (not r)
    | Exists sub -> eval_exists row sub
    | Not_exists sub ->
        let* r = eval_exists row sub in
        Ok (not r)
  and eval_exists row sub =
    let key = correlation_key declared row sub in
    match Hashtbl.find_opt subquery_memo key with
    | Some b -> Ok b
    | None ->
        let* sub' = substitute_correlated declared row sub in
        (* Inherit the outer temporal scope unless the subquery sets
           its own. *)
        let sub' = if sub'.q_at = None then { sub' with q_at = q.q_at } else sub' in
        let* res = run ~conn ~binds ?max_length ~stats sub' in
        let b = result_count res > 0 in
        Hashtbl.replace subquery_memo key b;
        Ok b
  in
  let* filtered =
    spanned ?trace "Filter"
      (Printf.sprintf "conds=%d" (List.length (cls.filters @ lit_filters)))
      (fun fspan ->
        let r =
          List.fold_left
            (fun acc row ->
              let* acc = acc in
              let* keep =
                List.fold_left
                  (fun keep c ->
                    let* keep = keep in
                    if not keep then Ok false else eval_condition row c)
                  (Ok true) (cls.filters @ lit_filters)
              in
              Ok (if keep then row :: acc else acc))
            (Ok []) with_coexist
        in
        (match (fspan, r) with
        | Some s, Ok rows ->
            s.Trace.rows_in <- List.length with_coexist;
            s.Trace.rows_out <- List.length rows
        | _ -> ());
        r)
  in
  let rows = List.rev filtered in
  (* Deduplicate identical variable bindings. *)
  let dedup_rows rows =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun r ->
        let h =
          Strmap.fold
            (fun v p h -> (((h * 31) + Hashtbl.hash v) * 31) + Path.hash p)
            r.paths 0
        in
        let bucket = try Hashtbl.find seen h with Not_found -> [] in
        if List.exists (Strmap.equal Path.equal r.paths) bucket then false
        else begin
          Hashtbl.replace seen h (r.paths :: bucket);
          true
        end)
      rows
  in
  let rows = dedup_rows rows in
  let produce () =
    match q.mode with
    | Retrieve vars ->
      let* () =
        match List.find_opt (fun v -> not (List.mem v declared)) vars with
        | Some v -> Error (Printf.sprintf "Retrieve of undeclared variable %S" v)
        | None -> Ok ()
      in
      let projected =
        List.map
          (fun r ->
            {
              r with
              paths =
                Strmap.filter (fun v _ -> List.mem v vars) r.paths;
            })
          rows
        |> dedup_rows
      in
      Ok (Rows { vars; rows = projected })
  | Select items ->
      let columns =
        List.map
          (fun { item; alias } ->
            match alias with Some a -> a | None -> scalar_to_string item)
          items
      in
      let has_aggregate =
        List.exists (fun { item; _ } -> match item with Aggregate _ -> true | _ -> false) items
      in
      if not has_aggregate then begin
        let* table_rows =
          List.fold_left
            (fun acc r ->
              let* acc = acc in
              let* vals =
                List.fold_left
                  (fun vacc { item; _ } ->
                    let* vacc = vacc in
                    let* v = eval_scalar_display r item in
                    Ok (v :: vacc))
                  (Ok []) items
              in
              Ok (List.rev vals :: acc))
            (Ok []) rows
        in
        (* Set semantics for the result-processing layer. *)
        let seen = Hashtbl.create 64 in
        let distinct =
          List.filter
            (fun vals ->
              if Hashtbl.mem seen vals then false
              else begin
                Hashtbl.replace seen vals ();
                true
              end)
            (List.rev table_rows)
        in
        Ok (Table { columns; rows = distinct })
      end
      else begin
        (* Aggregation over pathway sets (future work in the paper):
           plain items are the implicit grouping key; aggregates are
           computed per group. *)
        let* groups =
          List.fold_left
            (fun acc r ->
              let* acc = acc in
              let* key =
                List.fold_left
                  (fun kacc { item; _ } ->
                    let* kacc = kacc in
                    match item with
                    | Aggregate _ -> Ok kacc
                    | plain ->
                        let* v = eval_scalar_display r plain in
                        Ok (v :: kacc))
                  (Ok []) items
              in
              let key = List.rev key in
              let existing = match List.assoc_opt key acc with Some l -> l | None -> [] in
              Ok ((key, r :: existing) :: List.remove_assoc key acc))
            (Ok []) rows
        in
        let groups = List.rev groups in
        let compute_agg group_rows kind inner =
          match kind with
          | Count -> Ok (Value.Int (List.length group_rows))
          | _ ->
              let* values =
                List.fold_left
                  (fun acc r ->
                    let* acc = acc in
                    match inner with
                    | None -> Error "min/max/sum/avg need an argument"
                    | Some e ->
                        let* v = eval_scalar r e in
                        Ok (v :: acc))
                  (Ok []) group_rows
              in
              let numeric v =
                match v with
                | Value.Int i -> Some (float_of_int i)
                | Value.Float f -> Some f
                | _ -> None
              in
              (match kind with
              | Min ->
                  Ok (List.fold_left
                        (fun acc v ->
                          if Value.equal acc Value.Null || Value.compare v acc < 0 then v
                          else acc)
                        Value.Null values)
              | Max ->
                  Ok (List.fold_left
                        (fun acc v ->
                          if Value.equal acc Value.Null || Value.compare v acc > 0 then v
                          else acc)
                        Value.Null values)
              | Sum | Avg -> (
                  let nums = List.filter_map numeric values in
                  let total = List.fold_left ( +. ) 0. nums in
                  match kind with
                  | Sum ->
                      if List.for_all (fun v -> match v with Value.Int _ -> true | _ -> false)
                           (List.filter (fun v -> not (Value.equal v Value.Null)) values)
                      then Ok (Value.Int (int_of_float total))
                      else Ok (Value.Float total)
                  | _ ->
                      if nums = [] then Ok Value.Null
                      else Ok (Value.Float (total /. float_of_int (List.length nums))))
              | Count -> assert false)
        in
        let* table_rows =
          List.fold_left
            (fun acc (key, group_rows) ->
              let* acc = acc in
              let key_rest = ref key in
              let* vals =
                List.fold_left
                  (fun vacc { item; _ } ->
                    let* vacc = vacc in
                    match item with
                    | Aggregate (kind, inner) ->
                        let* v = compute_agg group_rows kind inner in
                        Ok (v :: vacc)
                    | _ -> (
                        match !key_rest with
                        | v :: rest ->
                            key_rest := rest;
                            Ok (v :: vacc)
                        | [] -> Error "internal: group key arity"))
                  (Ok []) items
              in
              Ok (List.rev vals :: acc))
            (Ok []) groups
        in
        Ok (Table { columns; rows = List.rev table_rows })
      end
  in
  spanned ?trace "Result"
    (match q.mode with Retrieve _ -> "retrieve" | Select _ -> "select")
    (fun rspan ->
      let r = produce () in
      (match (rspan, r) with
      | Some s, Ok res ->
          s.Trace.rows_in <- List.length rows;
          s.Trace.rows_out <- result_count res
      | _ -> ());
      r)

and result_count = function
  | Rows { rows; _ } -> List.length rows
  | Table { rows; _ } -> List.length rows

(* Whole-query instruments: one count/observation per top-level [run]
   (subqueries recurse through [run] directly and are not re-counted). *)
let m_queries = Metrics.counter "engine.queries"
let m_query_errors = Metrics.counter "engine.query_errors"
let m_slow_queries = Metrics.counter "engine.slow_queries"
let m_query_seconds = Metrics.histogram "engine.query_seconds"
let m_analysis_warnings = Metrics.counter "engine.analysis_warnings"
let m_analysis_rejected = Metrics.counter "engine.analysis_rejected"

(* -- pre-execution static analysis ---------------------------------- *)

type analyze_mode = [ `Off | `Warn | `Strict ]

(* A measured span tree as a JSON value for the structured event log —
   the same shape the wire protocol returns for traced queries. *)
let span_json = Trace.to_json

(* One-line-per-operator plan rendering for slow-query events: the
   evaluation order, seeds and costs, without the per-operator backend
   request text (EXPLAIN renders that; an event should stay compact). *)
let plan_summary ~conn ~binds q =
  match plan ~conn ~binds q with
  | Error e -> "plan unavailable: " ^ e
  | Ok p ->
      let seed_str = function
        | Seed_anchor sel ->
            Printf.sprintf "anchor(~%.0f recs, %d split(s))" sel.Anchor.cost
              (List.length sel.Anchor.splits)
        | Seed_lit (f, lit) ->
            Printf.sprintf "lit %s=%s"
              (Query_ast.path_fun_to_string f)
              (Value.to_string lit)
        | Seed_bidi bp ->
            Printf.sprintf "bidirectional ⟨%s⟩↔⟨%s⟩"
              bp.Eval_rpe.bd_left.Rpe.cls bp.Eval_rpe.bd_right.Rpe.cls
        | Seed_join (f_self, partner, f_partner) ->
            Printf.sprintf "join %s=%s(%s)"
              (Query_ast.path_fun_to_string f_self)
              (Query_ast.path_fun_to_string f_partner)
              partner
      in
      let vars =
        List.map
          (fun vp ->
            Printf.sprintf "Var %s via %s seed=%s rpe=%s" vp.vp_var
              vp.vp_backend (seed_str vp.vp_seed)
              (Rpe.norm_to_string vp.vp_rpe))
          p.p_order
      in
      String.concat "; "
        (Printf.sprintf "%s%s" p.p_mode
           (if p.p_coexist then "+coexist" else "")
         :: vars
        @
        if p.p_filter_count > 0 then
          [ Printf.sprintf "filters=%d" p.p_filter_count ]
        else [])

(* The analyzer's findings for [q], each variable resolved to its bound
   connection. Shared by the analysis prelude and EXPLAIN. *)
let diagnostics ~conn ?(binds = []) q =
  let conn_of = conn_for ~conn binds in
  Analysis.analyze ~schema:(Backend_intf.conn_schema conn)
    ~schema_of:(fun var -> Backend_intf.conn_schema (conn_of var))
    ~cost:(fun var a -> Backend_intf.estimate_atom (conn_of var) a)
    q

let analysis_prelude ~conn ~binds ~(analyze : analyze_mode) q =
  match analyze with
  | `Off -> Ok ()
  | `Warn | `Strict ->
      let diags = diagnostics ~conn ~binds q in
      let flagged =
        List.filter
          (fun (d : Diagnostic.t) ->
            match d.severity with Error | Warning -> true | Hint -> false)
          diags
      in
      List.iter
        (fun (d : Diagnostic.t) ->
          Metrics.incr m_analysis_warnings;
          if Event_log.enabled () then
            Event_log.emit
              ~level:
                (match d.severity with
                | Error -> Event_log.Error
                | Warning | Hint -> Event_log.Warn)
              ~kind:"analysis.diagnostic"
              [
                ("code", Event_log.Str d.code);
                ("severity", Event_log.Str (Diagnostic.severity_to_string d.severity));
                ("message", Event_log.Str d.message);
                ("line", Event_log.Int d.span.line);
                ("column", Event_log.Int d.span.col);
                ("query", Event_log.Str (Query_ast.to_string q));
              ])
        flagged;
      if analyze = `Strict && flagged <> [] then
        Error
          (String.concat "\n"
             ("query rejected by static analysis:"
             :: List.map (fun d -> "  " ^ Diagnostic.to_string d) flagged))
      else Ok ()

(* Instrumented top-level entry shared by every public run path:
   counts the query, observes its wall time, accumulates statement
   statistics under the query's fingerprint, and — when the event log
   is armed with a slow-query threshold — runs traced so an offending
   query's event can carry the measured span tree and plan text.
   [own_trace] marks a root span this function is responsible for
   stamping (as opposed to a caller's parent span). *)
let run_instrumented ~conn ?(binds = []) ?max_length ?stats ?trace
    ?(own_trace = false) ?(analyze = (`Warn : analyze_mode)) ~text q =
  Metrics.incr m_queries;
  match analysis_prelude ~conn ~binds ~analyze q with
  | Error e ->
      Metrics.incr m_analysis_rejected;
      let query_text =
        match text with Some t -> t | None -> Query_ast.to_string q
      in
      Stat_statements.record
        ~backend:(Backend_intf.conn_name conn)
        ~fingerprint:(Stat_statements.fingerprint query_text)
        ~error:false ~analysis_rejected:true ~wall_s:0. ();
      if Event_log.enabled () then
        Event_log.emit ~level:Event_log.Error ~kind:"analysis.rejected"
          [
            ("backend", Event_log.Str (Backend_intf.conn_name conn));
            ("query", Event_log.Str query_text);
            ("error", Event_log.Str e);
          ];
      Error e
  | Ok () ->
  let slow_thr = Event_log.slow_query_threshold () in
  let root, own_trace =
    match (trace, slow_thr) with
    | Some s, _ -> (Some s, own_trace)
    | None, Some _ -> (Some (Trace.make "Query"), true)
    | None, None -> (None, false)
  in
  let rt0 = Backend_intf.conn_roundtrips conn in
  let t0 = Unix.gettimeofday () in
  let res = run ~conn ~binds ?max_length ?stats ?trace:root q in
  let wall = Unix.gettimeofday () -. t0 in
  Metrics.observe m_query_seconds wall;
  let rows = match res with Ok r -> result_count r | Error _ -> 0 in
  (if own_trace then
     match root with
     | Some r ->
         r.Trace.wall_s <- wall;
         r.Trace.rows_out <- rows
     | None -> ());
  let roundtrips = Backend_intf.conn_roundtrips conn - rt0 in
  let backend = Backend_intf.conn_name conn in
  let query_text = match text with Some t -> t | None -> Query_ast.to_string q in
  let fp = Stat_statements.fingerprint query_text in
  Stat_statements.record ~backend ~fingerprint:fp ~rows ~roundtrips
    ~error:(Result.is_error res)
    ~wall_s:wall ();
  (match res with
  | Error e ->
      Metrics.incr m_query_errors;
      if Event_log.enabled () then
        Event_log.emit ~level:Event_log.Error ~kind:"query.error"
          [
            ("backend", Event_log.Str backend);
            ("fingerprint", Event_log.Str fp);
            ("query", Event_log.Str query_text);
            ("error", Event_log.Str e);
          ]
  | Ok _ -> (
      match slow_thr with
      | Some thr when wall >= thr ->
          Metrics.incr m_slow_queries;
          let span_fields =
            match root with
            | Some r ->
                [
                  ("spans", span_json r);
                  ("span_text", Event_log.Str (Trace.to_string r));
                ]
            | None -> []
          in
          Event_log.emit ~level:Event_log.Warn ~kind:"query.slow"
            ([
               ("backend", Event_log.Str backend);
               ("fingerprint", Event_log.Str fp);
               ("query", Event_log.Str query_text);
               ("wall_ms", Event_log.Float (wall *. 1e3));
               ("threshold_ms", Event_log.Float (thr *. 1e3));
               ("rows", Event_log.Int rows);
               ("roundtrips", Event_log.Int roundtrips);
               ("plan", Event_log.Str (plan_summary ~conn ~binds q));
             ]
            @ span_fields)
      | _ -> ()));
  res

let run ~conn ?binds ?max_length ?stats ?trace ?analyze q =
  run_instrumented ~conn ?binds ?max_length ?stats ?trace ?analyze ~text:None q

let run_string ~conn ?binds ?max_length ?stats ?analyze text =
  let* q = Query_parser.parse text in
  run_instrumented ~conn ?binds ?max_length ?stats ?analyze ~text:(Some text) q

let run_string_traced ~conn ?binds ?max_length ?stats ?analyze text =
  let* q = Query_parser.parse text in
  let root = Trace.make "Query" in
  let* r =
    run_instrumented ~conn ?binds ?max_length ?stats ?analyze ~trace:root
      ~own_trace:true ~text:(Some text) q
  in
  Ok (r, root)

(* The one result renderer: the wire, the CLI and [Nepal.query_on]
   callers all print these bytes. Every line is appended straight into
   one buffer, so a result of N bytes costs O(N). *)
let result_to_string result =
  let b = Buffer.create 1024 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let values vals = line (String.concat " | " (List.map Value.to_string vals)) in
  (match result with
  | Rows { vars; rows } ->
      Buffer.add_string b (string_of_int (List.length rows));
      Buffer.add_string b " row(s) of (";
      Buffer.add_string b (String.concat ", " vars);
      line ")";
      List.iter
        (fun r ->
          Strmap.iter
            (fun v p ->
              Buffer.add_string b "  ";
              Buffer.add_string b v;
              Buffer.add_string b " = ";
              Path.add_to_buffer b p;
              Buffer.add_char b '\n')
            r.paths;
          Option.iter
            (fun s ->
              Buffer.add_string b "  coexist ";
              Interval_set.add_to_buffer b s;
              Buffer.add_char b '\n')
            r.coexist)
        rows
  | Table { columns = [ "explain" ]; rows } ->
      (* EXPLAIN output: one pre-formatted line per row, printed raw
         (Value.to_string would quote them). *)
      List.iter (function [ Value.Str s ] -> line s | vals -> values vals) rows
  | Table { columns; rows } ->
      line (String.concat " | " columns);
      List.iter values rows);
  Buffer.contents b

let pp_result ppf result =
  Format.pp_print_string ppf (result_to_string result);
  Format.pp_print_flush ppf ()
