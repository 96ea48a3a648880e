(* EXPLAIN / EXPLAIN ANALYZE; the report shapes are documented in
   explain.mli. *)

module Rpe = Nepal_rpe.Rpe
module Anchor = Nepal_rpe.Anchor
module Value = Nepal_schema.Value
module Backend_intf = Nepal_query.Backend_intf
module Eval_rpe = Nepal_query.Eval_rpe
module Query_ast = Nepal_query.Query_ast
module Query_parser = Nepal_query.Query_parser
module Trace = Nepal_query.Trace
module Analysis = Nepal_analysis.Analysis
module Diagnostic = Nepal_analysis.Diagnostic
module Planner = Nepal_planner.Planner

let ( let* ) = Result.bind

type request = Plain | Plan | Analyze

(* The first word of [s] at or after [pos] (letters only, case-folded)
   and the offset just past it. *)
let word_at s pos =
  let n = String.length s in
  let i = ref pos in
  while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    incr i
  done;
  let j = ref !i in
  while !j < n && (match s.[!j] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false) do
    incr j
  done;
  if !j > !i then Some (String.uppercase_ascii (String.sub s !i (!j - !i)), !j)
  else None

(* [text] with everything before [stop] blanked except newlines: the
   query parses as if the keywords were absent, and its spans still
   index the text the user typed. *)
let blank_prefix text stop =
  String.mapi (fun i c -> if i < stop && c <> '\n' then ' ' else c) text

let classify text =
  match word_at text 0 with
  | Some ("EXPLAIN", stop) -> (
      match word_at text stop with
      | Some ("ANALYZE", stop') -> (Analyze, blank_prefix text stop')
      | _ -> (Plan, blank_prefix text stop))
  | _ -> (Plain, text)

let table_of_lines lines =
  Engine.Table
    { columns = [ "explain" ]; rows = List.map (fun l -> [ Value.Str l ]) lines }

(* -- EXPLAIN (plan rendering) --------------------------------------- *)

let tc_to_string tc = Format.asprintf "%a" Nepal_temporal.Time_constraint.pp tc

(* Indent every line of a (possibly multi-line) backend request. *)
let request_lines ~indent text =
  String.split_on_char '\n' text
  |> List.map (fun l -> indent ^ "| " ^ l)

let extend_lines conn ~tc ~dir ~label norm =
  let spec = { Backend_intf.atoms = Rpe.atoms norm; with_skip = false } in
  (Printf.sprintf "    Extend %s %s" label (Rpe.norm_to_string norm))
  :: request_lines ~indent:"      "
       (Backend_intf.describe_extend conn ~tc ~dir ~spec)

(* Planner-decision lines: the chosen alternative with its cost-model
   estimate plus the alternatives the planner rejected, so EXPLAIN
   shows why this plan won. *)
let decision_lines (vp : Engine.var_plan) =
  let d = vp.Engine.vp_opt in
  Printf.sprintf "    plan: %s  [variant=%s, est cost ~%.0f, est rows ~%.0f]"
    d.Planner.vd_desc d.Planner.vd_variant d.Planner.vd_est_cost
    d.Planner.vd_est_rows
  :: List.map
       (fun (desc, cost) ->
         Printf.sprintf "    rejected: %s  (est cost ~%.0f)" desc cost)
       d.Planner.vd_alternatives

let render_var conn (vp : Engine.var_plan) =
  let tc = vp.Engine.vp_tc in
  let header =
    Printf.sprintf "  Var %s  [backend=%s, tc=%s, rpe=%s]" vp.Engine.vp_var
      vp.Engine.vp_backend (tc_to_string tc)
      (Rpe.norm_to_string vp.Engine.vp_rpe)
  in
  let body =
    match vp.Engine.vp_seed with
    | Engine.Seed_anchor sel ->
        let cost =
          Printf.sprintf "    cost: ~%.0f anchor records across %d split(s)"
            sel.Anchor.cost
            (List.length sel.Anchor.splits)
        in
        cost
        :: List.concat_map
             (fun (split : Anchor.split) ->
               let select =
                 Printf.sprintf "    Select %s" (Anchor.split_to_string split)
                 :: request_lines ~indent:"      "
                      (Backend_intf.describe_select conn ~tc split.Anchor.anchor)
               in
               let bwd =
                 match split.Anchor.before with
                 | None -> []
                 | Some norm ->
                     extend_lines conn ~tc ~dir:Backend_intf.Bwd ~label:"bwd" norm
               in
               let fwd =
                 match split.Anchor.after with
                 | None -> []
                 | Some norm ->
                     extend_lines conn ~tc ~dir:Backend_intf.Fwd ~label:"fwd" norm
               in
               select @ bwd @ fwd)
             sel.Anchor.splits
        @
        if List.length sel.Anchor.splits > 1 then
          [ Printf.sprintf "    Union of %d splits" (List.length sel.Anchor.splits) ]
        else []
    | Engine.Seed_bidi bp ->
        let select label (a : Rpe.atom) =
          Printf.sprintf "    Select %s %s" label
            (Rpe.norm_to_string (Rpe.N_atom a))
          :: request_lines ~indent:"      "
               (Backend_intf.describe_select conn ~tc a)
        in
        Printf.sprintf "    cost: ~bidirectional, halves %s / %s"
          (Rpe.norm_to_string bp.Eval_rpe.bd_fwd)
          (Rpe.norm_to_string bp.Eval_rpe.bd_bwd)
        :: (select "left" bp.Eval_rpe.bd_left
           @ select "right" bp.Eval_rpe.bd_right
           @ extend_lines conn ~tc ~dir:Backend_intf.Fwd ~label:"fwd"
               bp.Eval_rpe.bd_fwd
           @ extend_lines conn ~tc ~dir:Backend_intf.Bwd ~label:"bwd"
               bp.Eval_rpe.bd_bwd
           @ [ "    Union meet-in-the-middle on shared edge" ])
    | Engine.Seed_lit (f, lit) ->
        let dir, label =
          match f with
          | Query_ast.Source -> (Backend_intf.Fwd, "fwd")
          | Query_ast.Target -> (Backend_intf.Bwd, "bwd")
        in
        Printf.sprintf "    seed: literal %s(%s) = %s"
          (Query_ast.path_fun_to_string f)
          vp.Engine.vp_var (Value.to_string lit)
        :: extend_lines conn ~tc ~dir ~label vp.Engine.vp_rpe
    | Engine.Seed_join (f_self, partner, f_partner) ->
        let dir, label =
          match f_self with
          | Query_ast.Source -> (Backend_intf.Fwd, "fwd")
          | Query_ast.Target -> (Backend_intf.Bwd, "bwd")
        in
        Printf.sprintf "    seed: join %s(%s) = %s(%s)"
          (Query_ast.path_fun_to_string f_self)
          vp.Engine.vp_var
          (Query_ast.path_fun_to_string f_partner)
          partner
        :: extend_lines conn ~tc ~dir ~label vp.Engine.vp_rpe
  in
  (header :: decision_lines vp) @ body

let render_plan ~conn ?(binds = []) (p : Engine.plan) =
  let conn_of var =
    match List.assoc_opt var binds with Some c -> c | None -> conn
  in
  let header =
    Printf.sprintf "Query (%s%s)" p.Engine.p_mode
      (if p.Engine.p_coexist then ", coexist" else "")
  in
  let planner =
    let ep = p.Engine.p_opt in
    Printf.sprintf "  Planner: cost-based, total est cost ~%.0f" ep.Planner.xp_cost
  in
  let vars =
    List.concat_map
      (fun vp -> render_var (conn_of vp.Engine.vp_var) vp)
      p.Engine.p_order
  in
  let joins =
    List.map
      (fun (f1, v1, f2, v2) ->
        Printf.sprintf "  Join %s(%s) = %s(%s)"
          (Query_ast.path_fun_to_string f1)
          v1
          (Query_ast.path_fun_to_string f2)
          v2)
      p.Engine.p_joins
  in
  let coexist = if p.Engine.p_coexist then [ "  Coexist range intersection" ] else [] in
  let filters =
    if p.Engine.p_filter_count > 0 then
      [ Printf.sprintf "  Filter conds=%d" p.Engine.p_filter_count ]
    else []
  in
  let result = [ Printf.sprintf "  Result %s" p.Engine.p_mode ] in
  (header :: planner :: vars) @ joins @ coexist @ filters @ result

(* -- EXPLAIN ANALYZE ------------------------------------------------ *)

let per_operator_lines root =
  match Trace.per_operator root with
  | [] -> []
  | aggs ->
      "" :: "per-operator totals:"
      :: List.map
           (fun (name, a) ->
             Printf.sprintf "  %-8s count=%d wall=%.3fms rows_out=%d calls=%d"
               name a.Trace.a_count
               (a.Trace.a_wall_s *. 1e3)
               a.Trace.a_rows_out a.Trace.a_calls)
           aggs

(* -- dispatcher ----------------------------------------------------- *)

(* Static-analyzer findings for a planned query, one bare line each. *)
let diag_items ~conn ?binds q =
  List.map Diagnostic.to_string (Engine.diagnostics ~conn ?binds q)

(* The findings as extra EXPLAIN lines, with a section header. *)
let diagnostic_lines ~conn ?binds q =
  match diag_items ~conn ?binds q with
  | [] -> []
  | items -> "" :: "diagnostics:" :: List.map (fun d -> "  " ^ d) items

(* Engine and parse errors gain the analyzer's error-severity findings
   (code, span and a caret snippet into the typed [text]), so the user
   sees where and why, not only the first message the engine hit.
   Analysis rejections already carry their findings. *)
let enrich_error ~conn ?(binds = []) ~query text e =
  if String.starts_with ~prefix:"query rejected by static analysis" e then e
  else
    let conn_of var =
      match List.assoc_opt var binds with Some c -> c | None -> conn
    in
    let errors =
      List.filter
        (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Error)
        (Analysis.analyze_string
           ~schema:(Backend_intf.conn_schema conn)
           ~schema_of:(fun var -> Backend_intf.conn_schema (conn_of var))
           ~cost:(fun var a -> Backend_intf.estimate_atom (conn_of var) a)
           query)
    in
    String.concat "\n" (e :: List.map (Diagnostic.render ~source:text) errors)

(* Drop-in replacement for {!Engine.run_string} that intercepts
   [EXPLAIN] / [EXPLAIN ANALYZE] prefixes; plain queries fall through
   unchanged. *)
let run_string ~conn ?binds ?max_length ?stats ?analyze text =
  let request, query = classify text in
  let result =
    match request with
    | Plain -> Engine.run_string ~conn ?binds ?max_length ?stats ?analyze query
    | Plan ->
        let* q = Query_parser.parse query in
        let* p = Engine.plan ~conn ?binds q in
        Ok
          (table_of_lines
             (render_plan ~conn ?binds p @ diagnostic_lines ~conn ?binds q))
    | Analyze ->
        let* _r, root =
          Engine.run_string_traced ~conn ?binds ?max_length ?stats ?analyze
            query
        in
        Ok (table_of_lines (Trace.render root @ per_operator_lines root))
  in
  Result.map_error (enrich_error ~conn ?binds ~query text) result

(* -- wire tracing ---------------------------------------------------- *)

(* A traced run with everything the wire protocol's [{"trace": true}]
   response carries: the ordinary result, the measured span tree, the
   plan rendering, and analyzer diagnostics. The span tree is the same
   one EXPLAIN ANALYZE renders — [Engine.run_string_traced] under the
   hood — so an over-the-wire trace is structurally identical to an
   in-process one. *)
type traced = {
  tr_result : Engine.result;
  tr_root : Trace.span;
  tr_plan : string list;
  tr_diagnostics : string list;
}

let run_string_wire_traced ~conn ?binds ?max_length ?stats ?analyze text =
  match classify text with
  | (Plan | Analyze), _ ->
      Error
        "trace: true expects a plain query (EXPLAIN is implied by the flag)"
  | Plain, rest ->
      let* q = Query_parser.parse rest in
      let* p = Engine.plan ~conn ?binds q in
      let tr_plan = render_plan ~conn ?binds p in
      let tr_diagnostics = diag_items ~conn ?binds q in
      let* tr_result, tr_root =
        Engine.run_string_traced ~conn ?binds ?max_length ?stats ?analyze
          rest
      in
      Ok { tr_result; tr_root; tr_plan; tr_diagnostics }

(* The traced run as the JSON object embedded in a wire response frame:
   {"spans": <Trace.to_json>, "plan": [lines], "diagnostics": [lines]}. *)
let traced_json t =
  let module E = Nepal_util.Event_log in
  let strs l = E.List (List.map (fun s -> E.Str s) l) in
  E.Obj
    [
      ("spans", Trace.to_json t.tr_root);
      ("plan", strs t.tr_plan);
      ("diagnostics", strs t.tr_diagnostics);
    ]
