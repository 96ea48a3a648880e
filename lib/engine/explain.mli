(** EXPLAIN / EXPLAIN ANALYZE.

    [EXPLAIN <query>] renders the planned operator DAG — evaluation
    order, the planner's chosen and rejected alternatives, anchor
    splits, cost estimates, and the exact backend request (SQL /
    Gremlin) each Select and Extend operator would emit — from
    {!Engine.plan}, the value {!Engine.run} evaluates. Analyzer
    findings follow under a [diagnostics:] header.

    [EXPLAIN ANALYZE <query>] executes the query with tracing on and
    renders the measured span tree plus per-operator totals.

    Output is an ordinary {!Engine.result}: a one-column [Table] whose
    column is named ["explain"], one row per output line.
    {!Engine.pp_result} special-cases that shape and prints the lines
    raw. *)

type request =
  | Plain  (** an ordinary query *)
  | Plan  (** [EXPLAIN] *)
  | Analyze  (** [EXPLAIN ANALYZE] *)

val classify : string -> request * string
(** The request kind of a query text and the query to run: the typed
    text with its [EXPLAIN] / [EXPLAIN ANALYZE] prefix blanked to spaces
    (newlines kept), so source spans computed on it index the typed
    text. Keywords are case-insensitive; a plain query comes back
    whole. *)

val run_string :
  conn:Nepal_query.Backend_intf.conn ->
  ?binds:(string * Nepal_query.Backend_intf.conn) list ->
  ?max_length:int ->
  ?stats:Nepal_query.Eval_rpe.stats ->
  ?analyze:Engine.analyze_mode ->
  string ->
  (Engine.result, string) result
(** Drop-in replacement for {!Engine.run_string} that intercepts the
    [EXPLAIN] / [EXPLAIN ANALYZE] prefixes; plain queries fall through
    unchanged. An error (other than a static-analysis rejection, which
    already lists its findings) is followed by the analyzer's
    error-severity findings for the text, each with a caret snippet
    into the typed text. *)

type traced = {
  tr_result : Engine.result;  (** the ordinary query result *)
  tr_root : Nepal_query.Trace.span;  (** the measured span tree *)
  tr_plan : string list;  (** the EXPLAIN plan lines *)
  tr_diagnostics : string list;  (** analyzer findings, one per line *)
}
(** Everything a wire response to [{"trace": true}] carries. *)

val run_string_wire_traced :
  conn:Nepal_query.Backend_intf.conn ->
  ?binds:(string * Nepal_query.Backend_intf.conn) list ->
  ?max_length:int ->
  ?stats:Nepal_query.Eval_rpe.stats ->
  ?analyze:Engine.analyze_mode ->
  string ->
  (traced, string) result
(** Run a plain query traced. The span tree is the one EXPLAIN ANALYZE
    renders, so an over-the-wire trace is structurally identical to an
    in-process one. An [EXPLAIN] prefix is an error: the flag already
    implies it. *)

val traced_json : traced -> Nepal_util.Event_log.json
(** [{"spans": <Trace.to_json>, "plan": [lines], "diagnostics":
    [lines]}] — the object embedded in a traced wire response frame. *)
