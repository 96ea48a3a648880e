module Value = Nepal_schema.Value
module Ftype = Nepal_schema.Ftype
module Schema = Nepal_schema.Schema
module Tosca = Nepal_schema.Tosca
module Strmap = Nepal_util.Strmap
module Prng = Nepal_util.Prng
module Time_point = Nepal_temporal.Time_point
module Interval = Nepal_temporal.Interval
module Interval_set = Nepal_temporal.Interval_set
module Time_constraint = Nepal_temporal.Time_constraint
module Graph_store = Nepal_store.Graph_store
module Entity = Nepal_store.Entity
module Predicate = Nepal_rpe.Predicate
module Rpe = Nepal_rpe.Rpe
module Rpe_parser = Nepal_rpe.Rpe_parser
module Anchor = Nepal_rpe.Anchor
module Path = Nepal_query.Path
module Backend = Nepal_query.Backend_intf
module Eval_rpe = Nepal_query.Eval_rpe
module Engine = Nepal_engine.Engine
module Explain = Nepal_engine.Explain
module Trace = Nepal_query.Trace
module Metrics = Nepal_util.Metrics
module Event_log = Nepal_util.Event_log
module Stat_statements = Nepal_query.Stat_statements
module Query_parser = Nepal_query.Query_parser
module Query_ast = Nepal_query.Query_ast
module Temporal_agg = Nepal_query.Temporal_agg
module Relational_backend = Nepal_query.Relational_backend
module Gremlin_backend = Nepal_query.Gremlin_backend
module Snapshot = Nepal_loader.Snapshot
module Snapshot_loader = Nepal_loader.Snapshot_loader
module Reclass = Nepal_loader.Reclass
module Model = Nepal_netmodel.Model
module Virt_service = Nepal_netmodel.Virt_service
module Legacy = Nepal_netmodel.Legacy
module Span = Nepal_rpe.Span
module Analysis = Nepal_analysis.Analysis
module Diagnostic = Nepal_analysis.Diagnostic
module Planner = Nepal_planner.Planner
module Monitor = Nepal_monitor.Monitor
module Server = Nepal_server.Server
module Server_client = Nepal_server.Client
module Wire = Nepal_server.Wire
module Http_metrics = Nepal_server.Http_metrics
module Env = Nepal_util.Env

type t = { store_ : Graph_store.t; conn_ : Backend.conn }

let of_store store_ = { store_; conn_ = Nepal_query.Connect.native store_ }
let create schema = of_store (Graph_store.create schema)
let store t = t.store_
let schema t = Graph_store.schema t.store_
let conn t = t.conn_

let insert_node t = Graph_store.insert_node t.store_
let insert_edge t = Graph_store.insert_edge t.store_
let update t = Graph_store.update t.store_
let delete t ~at ?cascade uid = Graph_store.delete t.store_ ~at ?cascade uid

(* Static analysis of [text] against [conn]'s catalog (per-variable
   [binds] respected); any leading EXPLAIN prefix is blanked first. *)
let check_on conn ?(binds = []) text =
  let _, rest = Explain.classify text in
  let conn_of var =
    match List.assoc_opt var binds with Some c -> c | None -> conn
  in
  Analysis.analyze_string
    ~schema:(Backend.conn_schema conn)
    ~schema_of:(fun var -> Backend.conn_schema (conn_of var))
    ~cost:(fun var a -> try Backend.estimate_atom (conn_of var) a with _ -> 1.0)
    rest

let query_on conn ?binds ?analyze text = Explain.run_string ~conn ?binds ?analyze text

let query t ?binds ?analyze text = query_on t.conn_ ?binds ?analyze text
let check t ?binds text = check_on t.conn_ ?binds text

let ( let* ) = Result.bind

let find_paths t ?(tc = Time_constraint.Snapshot) ?max_length text =
  let* rpe = Rpe_parser.parse text in
  let* norm = Rpe.validate (schema t) rpe in
  Eval_rpe.find t.conn_ ~tc ?max_length norm

let shortest_paths t ?(tc = Time_constraint.Snapshot) ?(via = "Edge")
    ?(max_hops = 8) ~src ~dst () =
  match Backend.element_by_uid t.conn_ ~tc src with
  | None -> Ok []
  | Some (src_elem, versions) ->
      let rec deepen hops =
        if hops > max_hops then Ok []
        else
          let rpe =
            Rpe.normalize (Rpe.Rep (Rpe.Atom (Rpe.atom via), 1, hops))
          in
          let* paths =
            Eval_rpe.find t.conn_ ~tc
              ~seed:(Eval_rpe.From_nodes ([ src_elem ], versions))
              rpe
          in
          let hits =
            List.filter (fun p -> (Path.target p).Path.uid = dst) paths
          in
          if hits = [] then deepen (hops + 1)
          else
            let best =
              List.fold_left (fun acc p -> min acc (Path.length p)) max_int hits
            in
            Ok (List.filter (fun p -> Path.length p = best) hits)
      in
      deepen 1

let to_relational t =
  let* rb = Relational_backend.create (schema t) in
  let* () = Relational_backend.mirror_store rb t.store_ in
  Ok rb

let to_gremlin t =
  let gb = Gremlin_backend.create (schema t) in
  let* () = Gremlin_backend.mirror_store gb t.store_ in
  Ok gb

let native_conn = Nepal_query.Connect.native
let relational_conn = Nepal_query.Connect.relational
let gremlin_conn = Nepal_query.Connect.gremlin

