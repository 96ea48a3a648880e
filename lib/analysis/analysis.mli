(** Static analysis of Nepal queries against a live schema catalog.

    [analyze] inspects a parsed query — labels, predicates, RPE
    satisfiability (the pattern's automaton run against the schema's
    edge rules, {!pruner}'s verdict), temporal windows, anchors/joins —
    and returns structured {!Diagnostic.t}s without contacting any
    backend. [Nepal_engine.Engine] calls {!analyze} before it runs a
    query ([~analyze]) and for EXPLAIN's [diagnostics:] section. *)

val analyze :
  schema:Nepal_schema.Schema.t ->
  ?schema_of:(string -> Nepal_schema.Schema.t) ->
  ?cost:(string -> Nepal_rpe.Rpe.atom -> float) ->
  Nepal_query.Query_ast.query ->
  Diagnostic.t list
(** Diagnostics sorted errors-first (then source position, then code).
    [schema] resolves classes and fields. [schema_of], when given, maps
    a range-variable name to the schema at that variable's timeslice.
    [cost], when given, enables the NPL019 expensive-anchor hint using
    per-variable atom cost estimates (e.g. a backend's
    [estimate_atom]); without it anchor *existence* is still checked
    with a unit cost model. An exception from [schema_of] or [cost]
    propagates. *)

val analyze_string :
  schema:Nepal_schema.Schema.t ->
  ?schema_of:(string -> Nepal_schema.Schema.t) ->
  ?cost:(string -> Nepal_rpe.Rpe.atom -> float) ->
  string ->
  Diagnostic.t list
(** Parse then {!analyze}. Parse failures come back as a single
    [NPL000] (or [NPL005] for repetition-bound syntax) error whose span
    is recovered from the parser's "line L, column C" message. *)

(** {1 Change relevance}

    Support for standing queries: which store changes can possibly
    affect a query's result set? Computed from the same schema
    reachability tables as satisfiability, and over-approximate in the
    same class-level way, so a change outside the filter is {e proved}
    irrelevant for every store conforming to the schema. *)

type relevance = {
  rel_classes : Nepal_util.Strset.t option;
      (** Concrete classes whose changes can affect the query: the
          classes of its RPE atoms (expanded to concrete subclasses,
          across EXISTS subqueries) closed over the junction rule's
          unmatched elements when the pattern shape can skip them:
          edge classes the schema allows between two relevant node
          classes when two node atoms can be adjacent, and node classes
          that can be an endpoint of a matched edge class when two edge
          atoms can be adjacent or a pattern can start/end on an edge
          atom. [None] means unknown
          (an unresolved class, or no MATCHES at all): treat every
          change as relevant. *)
  rel_until : Nepal_temporal.Time_point.t option;
      (** When every range variable reads a bounded window, the latest
          window end: since transaction time is monotone, mutations
          stamped after it can never become visible to the query.
          [None] when any variable reads the current snapshot. *)
}

val relevance :
  schema:Nepal_schema.Schema.t -> Nepal_query.Query_ast.query -> relevance
(** Pre-compute the relevance filter for a parsed query. Cost is one
    pass over the query plus [O(|edge classes| * |node classes|)]
    against the memoized reachability tables. *)

(** {1 Schema pruning}

    The satisfiability abstract interpretation (frontiers of "where
    could the pathway be" class states, run in product with the
    pattern's automaton by {!Nepal_rpe.Nfa.prune_mask}) also prunes the
    planner's evaluation automata. Analyzer and planner share one
    verdict memo, keyed per schema, walk direction and automaton shape
    ({!Nepal_rpe.Nfa.signature}), FIFO-bounded and cleared by
    {!Nepal_util.Metrics.reset_all}. *)

val pruner : Nepal_schema.Schema.t -> Nepal_query.Eval_rpe.pruner
(** Product-automaton pruning against the schema's edge rules,
    direction-aware (a backward walk reads them transposed): deletes the
    transitions no store conforming to the schema can take and narrows
    the rest to their feasible kinds. Sound for any store that enforces
    [Schema.edge_allowed] on insertion (all Nepal stores do): accepted
    element sequences of conforming data are preserved exactly. *)
