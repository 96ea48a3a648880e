(** Full query evaluation: multi-variable pathway joins, imported
    anchors, [NOT EXISTS] subqueries, temporal scoping, and the
    result-processing ([Select]) layer.

    {!Nepal_analysis.Analysis.analyze} checks the query before it runs
    and the cost-based planner ({!Nepal_planner.Planner.plan_query})
    picks the evaluation order; both are called directly. Variables
    joined to an evaluated one through [source]/[target] equalities
    import their anchors from the partner (Section 3.4's [Phys]
    example); the coordination layer performs the joins — across
    different backends when variables are bound to different databases
    (the data-integration story). *)

module Strmap = Nepal_util.Strmap
module Value = Nepal_schema.Value
module Interval_set = Nepal_temporal.Interval_set
module Path = Nepal_query.Path
module Backend_intf = Nepal_query.Backend_intf
module Eval_rpe = Nepal_query.Eval_rpe
module Query_ast = Nepal_query.Query_ast
module Trace = Nepal_query.Trace
module Diagnostic = Nepal_analysis.Diagnostic
module Planner = Nepal_planner.Planner

type row = {
  paths : Path.t Strmap.t;       (** binding of each pathway variable *)
  coexist : Interval_set.t option;
      (** for query-level [AT a : b]: the maximal range during which all
          bound pathways coexisted *)
}

type result =
  | Rows of { vars : string list; rows : row list }
  | Table of { columns : string list; rows : Value.t list list }

(** {1 Pre-execution static analysis} *)

type analyze_mode = [ `Off | `Warn | `Strict ]
(** [`Warn] (the default) runs the static analyzer before evaluation
    and logs its findings through {!Nepal_util.Event_log} and the
    metrics registry; [`Strict] additionally rejects the query — before
    any backend round-trip — when an [Error]- or [Warning]-severity
    diagnostic fires; [`Off] skips analysis entirely. *)

val diagnostics :
  conn:Backend_intf.conn ->
  ?binds:(string * Backend_intf.conn) list ->
  Query_ast.query ->
  Diagnostic.t list
(** The analyzer's findings for the query, each variable resolved to
    its bound connection. The one analyzer call behind both the
    pre-execution analysis and EXPLAIN's diagnostics. An analyzer or
    cost-estimator exception propagates to the caller. *)

val run :
  conn:Backend_intf.conn ->
  ?binds:(string * Backend_intf.conn) list ->
  ?max_length:int ->
  ?stats:Eval_rpe.stats ->
  ?trace:Trace.span ->
  ?analyze:analyze_mode ->
  Query_ast.query ->
  (result, string) Stdlib.result
(** Evaluate the {!plan} of the query. [binds] maps individual pathway
    variables to other databases; unbound variables use [conn]. [trace]
    attaches per-operator child spans (Var/Select/Extend/Union, then
    Join/Coexist/Filter/Result) to the given parent span. *)

val run_string :
  conn:Backend_intf.conn ->
  ?binds:(string * Backend_intf.conn) list ->
  ?max_length:int ->
  ?stats:Eval_rpe.stats ->
  ?analyze:analyze_mode ->
  string ->
  (result, string) Stdlib.result
(** Parse and run. *)

val run_string_traced :
  conn:Backend_intf.conn ->
  ?binds:(string * Backend_intf.conn) list ->
  ?max_length:int ->
  ?stats:Eval_rpe.stats ->
  ?analyze:analyze_mode ->
  string ->
  (result * Trace.span, string) Stdlib.result
(** Parse and {!run}, returning the measured operator span tree
    alongside the result — the substance of [EXPLAIN ANALYZE]. *)

val run_instrumented :
  conn:Backend_intf.conn ->
  ?binds:(string * Backend_intf.conn) list ->
  ?max_length:int ->
  ?stats:Eval_rpe.stats ->
  ?trace:Trace.span ->
  ?own_trace:bool ->
  ?analyze:analyze_mode ->
  text:string option ->
  Query_ast.query ->
  (result, string) Stdlib.result
(** The shared instrumented entry behind every [run*] variant: metrics,
    statement statistics, slow-query tracing and the analysis prelude
    around a single evaluation. Exposed for callers that re-evaluate a
    stored parsed query repeatedly (standing watches): passing the
    original [text] keeps the statement fingerprint stable without
    reparsing. [own_trace] marks [trace] as created for this run, so
    its root span gets the measured wall time and row count. *)

(** {1 Planning-only surface ([EXPLAIN])} *)

type seed_plan =
  | Seed_anchor of Nepal_rpe.Anchor.selection
      (** anchored evaluation over the selection's splits *)
  | Seed_lit of Query_ast.path_fun * Value.t
      (** seeded from a literal-pinned node function *)
  | Seed_join of Query_ast.path_fun * string * Query_ast.path_fun
      (** anchor imported from an already-evaluated join partner:
          (own function, partner variable, partner function) *)
  | Seed_bidi of Eval_rpe.bidi_plan
      (** bidirectional meet-in-the-middle evaluation *)

type var_plan = {
  vp_var : string;
  vp_backend : string;
  vp_tc : Nepal_temporal.Time_constraint.t;
  vp_rpe : Nepal_rpe.Rpe.norm;
  vp_seed : seed_plan;
  vp_opt : Planner.var_decision;
      (** the planner's decision for this variable *)
}

type plan = {
  p_order : var_plan list;  (** in evaluation order *)
  p_joins :
    (Query_ast.path_fun * string * Query_ast.path_fun * string) list;
  p_filter_count : int;
  p_coexist : bool;
  p_mode : string;
  p_opt : Planner.exec_plan;  (** the cost-based plan behind [p_order] *)
}

val plan :
  conn:Backend_intf.conn ->
  ?binds:(string * Backend_intf.conn) list ->
  Query_ast.query ->
  (plan, string) Stdlib.result
(** Validation, the planner call and each variable's seed, without
    touching backend data. {!run} evaluates exactly this value, so
    [EXPLAIN] reports what [run] does. *)

val result_count : result -> int
val pp_result : Format.formatter -> result -> unit
(** Print {!result_to_string} and flush. *)

val result_to_string : result -> string
(** The rendering the CLI and the wire carry: a [Rows] header line, then
    one ["  var = <path>"] line per bound variable (plus
    ["  coexist {...}"] under COEXIST); a [Table] header and ["a | b"]
    rows; EXPLAIN lines raw. Linear in the output size. *)
