(** Per-operator trace spans (the EXPLAIN ANALYZE substrate).

    A span records what one logical operator of the compiled query did:
    wall time, input/output row counts and backend round-trips. Spans
    form a tree mirroring the operator DAG — Query at the root, one Var
    child per path variable, Select/Extend/Union leaves underneath, then
    Join/Coexist/Filter/Result siblings for the cross-variable stages.

    Span names are the operator kind only (["Select"], ["Extend"], ...);
    anything instance-specific (the atom, the RPE, the variable) goes in
    [detail]. That keeps {!per_operator} aggregation trivial.

    Spans are plain mutable records with no locking: they are only ever
    written from the coordinating thread (the evaluator and engine set
    the counters in place). Domain-parallel walk internals report
    through [Eval_rpe.stats] and the metrics registry instead, and the
    coordinator folds those into the enclosing span afterwards. *)

type span = {
  name : string;
  mutable detail : string;
  mutable wall_s : float;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable est_rows : float;
      (** planner row estimate for this operator; negative (the
          default) = no estimate recorded *)
  mutable calls : int;  (** backend round-trips attributed to this span *)
  mutable rev_children : span list;  (** newest first; use {!children} *)
}

val make : ?detail:string -> string -> span
val child : ?detail:string -> span -> string -> span
(** Create a span and append it to the parent's children. *)

val children : span -> span list
(** Children in creation order. *)

val time : span -> (unit -> 'a) -> 'a
(** Run the thunk, charging its wall time to the span whatever the
    outcome. *)

val set_detail : span -> string -> unit

(** {1 Rendering} *)

val estimate_off : span -> bool
(** The recorded estimate misses the actual [rows_out] by more than 10×
    in either direction (+1-smoothed). Always false when no estimate
    was recorded. *)

val span_line : span -> string
(** Includes [est=N], flagged [!misestimate>10x] when {!estimate_off},
    whenever an estimate was recorded. *)

val render : span -> string list
(** One indented line per span, pre-order. *)

val to_string : span -> string

val to_json : span -> Nepal_util.Event_log.json
(** The measured tree as a JSON object —
    [{name, detail, wall_ms, rows_in, rows_out, est_rows?, calls,
    children}], with [est_rows] present only when the planner recorded
    an estimate. This is the shape slow-query events embed and the wire
    protocol returns for [{"trace": true}] queries; it round-trips
    through the strict RFC 8259 parser ([Nepal_util.Jsonp]). *)

(** {1 Aggregation} (the bench [--json] per-operator breakdown) *)

type agg = {
  mutable a_count : int;  (** number of spans with this operator name *)
  mutable a_wall_s : float;
  mutable a_rows_out : int;
  mutable a_calls : int;
}

val per_operator : span -> (string * agg) list
(** Totals by operator name, sorted by name. Container spans ([Query],
    [Var]) whose time is already attributed to their children are
    excluded so the aggregate does not double-count. *)
