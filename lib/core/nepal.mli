(** Nepal — a graph database for a virtualized network infrastructure.

    One-stop facade over the whole system. Typical use:

    {[
      let schema = Nepal.Tosca.parse_exn my_model in
      let db = Nepal.create schema in
      let _uid = Nepal.insert_node db ~at ~cls:"VM" ~fields in
      match
        Nepal.query db
          "Retrieve P From PATHS P Where P MATCHES \
           VNF()->[Vertical()]{1,6}->Host(id=23245)"
      with
      | Ok result -> Nepal.Engine.pp_result Format.std_formatter result
      | Error e -> prerr_endline e
    ]}

    The submodule aliases expose every layer for advanced use:
    {!Schema}/{!Tosca} (modeling), {!Rpe}/{!Rpe_parser} (pathway
    expressions), {!Engine}/{!Query_parser} (the query language),
    {!Graph_store} (the native temporal store), {!Relational_backend}
    and {!Gremlin_backend} (alternative targets), {!Snapshot_loader}
    (ingestion), and the {!Virt_service}/{!Legacy} evaluation
    topologies. *)

(** {1 Layer re-exports} *)

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

(** {1 Databases} *)

type t
(** A Nepal database: a native temporal graph store plus the connection
    used by the query engine. *)

val create : Schema.t -> t
val of_store : Graph_store.t -> t
val store : t -> Graph_store.t
val schema : t -> Schema.t
val conn : t -> Backend.conn

(** {1 Mutations} (transaction-time stamped) *)

val insert_node :
  t -> at:Time_point.t -> cls:string -> fields:Value.t Strmap.t ->
  (int, string) result

val insert_edge :
  t -> at:Time_point.t -> cls:string -> src:int -> dst:int ->
  fields:Value.t Strmap.t -> (int, string) result

val update :
  t -> at:Time_point.t -> int -> fields:Value.t Strmap.t -> (unit, string) result

val delete : t -> at:Time_point.t -> ?cascade:bool -> int -> (unit, string) result

(** {1 Queries} *)

val query :
  t ->
  ?binds:(string * Backend.conn) list ->
  ?analyze:Engine.analyze_mode ->
  string ->
  (Engine.result, string) result
(** Parse and evaluate a Nepal query. A leading [EXPLAIN] (plan only)
    or [EXPLAIN ANALYZE] (execute with tracing) prefix yields an
    ["explain"] table of report lines instead — see {!Explain}.

    Every query passes through the static analyzer first ([?analyze],
    default [`Warn]: findings are logged but execution proceeds;
    [`Strict] rejects on any error or warning before the backend is
    contacted; [`Off] skips analysis). On failure the error message is
    enriched with the analyzer's error-severity findings, including
    caret snippets pointing into the query text.

    The cost-based plan compiler ({!Planner}) picks the evaluation
    order and each variable's plan. *)

val check :
  t -> ?binds:(string * Backend.conn) list -> string -> Diagnostic.t list
(** Statically analyze a query (leading [EXPLAIN] prefixes are ignored)
    against this database's schema without executing it. See
    {!Analysis.analyze_string} for the diagnostic catalog. *)

val find_paths :
  t -> ?tc:Time_constraint.t -> ?max_length:int -> string ->
  (Path.t list, string) result
(** Evaluate a bare RPE (text) directly. *)

val shortest_paths :
  t ->
  ?tc:Time_constraint.t ->
  ?via:string ->
  ?max_hops:int ->
  src:int ->
  dst:int ->
  unit ->
  (Path.t list, string) result
(** All minimum-hop pathways from node [src] to node [dst] (store
    uids), following edges of the [via] concept (default ["Edge"], i.e.
    any edge class), searched by iterative deepening up to [max_hops]
    (default 8) — the "shortest path to route data packets" question of
    the paper's introduction. Empty list when unreachable. *)

(** {1 Alternative targets} *)

val to_relational : t -> (Relational_backend.t, string) result
(** Mirror the database into the relational target (preserving uids and
    history); returns the backend, whose {!Backend.conn} is obtained
    with {!relational_conn}. *)

val to_gremlin : t -> (Gremlin_backend.t, string) result

val native_conn : Graph_store.t -> Backend.conn
val relational_conn : Relational_backend.t -> Backend.conn
val gremlin_conn : Gremlin_backend.t -> Backend.conn

val query_on :
  Backend.conn ->
  ?binds:(string * Backend.conn) list ->
  ?analyze:Engine.analyze_mode ->
  string ->
  (Engine.result, string) result
(** Run a query against an arbitrary connection (relational, gremlin,
    or a mix via [binds]). Same analysis behaviour as {!query}. *)

val check_on :
  Backend.conn -> ?binds:(string * Backend.conn) list -> string ->
  Diagnostic.t list
(** {!check} against an arbitrary connection. *)
