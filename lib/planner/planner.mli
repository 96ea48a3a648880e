(** Cost-based plan compiler (the optimizer behind [Nepal_engine.Engine]).

    For each query the planner compiles every pathway variable's RPE
    against the live schema and the backend's cardinality estimates
    into an {!exec_plan}:

    - {b Pruned product automata}: every decision carries
      {!Nepal_analysis.Analysis.pruner}, the analyzer's schema verdict
      replayed onto each compiled automaton, deleting transitions no
      schema-conforming store can take and statically narrowing each
      Extend round's class set.
    - {b Cost-based anchor and join ordering}: all anchor candidates
      from {!Nepal_rpe.Anchor.enumerate} are costed with a per-backend
      model calibrated against the E9 per-operator wall times, and the
      cross-variable evaluation order is chosen by enumerating
      join-order alternatives (exhaustively up to 5 variables).
    - {b Bidirectional Extend}: node·edge-repetition·node RPEs under
      [Snapshot]/[At] constraints are additionally costed as a
      meet-in-the-middle plan ({!Nepal_query.Eval_rpe.bidi_plan}) that
      walks from both endpoints and joins half-pathways on their shared
      middle edge, halving the Extend depth.
    - {b Interval-aware variants}: each decision is tagged with the
      temporal operator variant ([snapshot] / [timeslice] / [range])
      it was costed under.

    Every query is planned from scratch: the plan is a function of
    the query and the store (schema and cardinality estimates), never
    of which queries ran before. Within one plan each backend estimate
    is asked for once; across queries only the pruning fixpoint's
    verdict is memoized (in [Nepal_analysis], shared with the
    analyzer), since it depends on the automaton's class-level
    structure alone.

    The engine calls {!plan_query} for every query it compiles; the
    planner is the only place that decides the evaluation order. *)

type planner_input = {
  pi_var : string;
  pi_conn : Nepal_query.Backend_intf.conn;
  pi_tc : Nepal_temporal.Time_constraint.t;
  pi_norm : Nepal_rpe.Rpe.norm;
  pi_lit_seed : bool;  (** seeded from a literal-pinned node function *)
  pi_join_vars : string list;  (** variables this one is joined with *)
}
(** One declared pathway variable, as the engine hands it over. *)

type var_decision = {
  vd_var : string;
  vd_strategy : Nepal_query.Eval_rpe.strategy;
      (** how to evaluate this variable *)
  vd_prune : Nepal_query.Eval_rpe.pruner option;
      (** product-automaton pruning against the live schema *)
  vd_variant : string;
      (** interval-aware operator variant: ["snapshot"], ["timeslice"]
          or ["range"] *)
  vd_est_cost : float;  (** cost-model units of the chosen alternative *)
  vd_est_rows : float;  (** estimated result pathways *)
  vd_desc : string;  (** one-line description of the chosen alternative *)
  vd_alternatives : (string * float) list;
      (** rejected alternatives, best first: (description, est cost) *)
}

type exec_plan = {
  xp_order : var_decision list;
      (** evaluation order; covers exactly the input variables *)
  xp_cost : float;  (** total estimated cost of the chosen plan *)
}

val plan_query : planner_input list -> (exec_plan, string) result
(** The plan for one query. An error when no evaluation order is
    feasible: it names the first declared variable that is not
    anchored and cannot import an anchor from a join. *)

val bidi_of :
  Nepal_schema.Schema.t ->
  Nepal_rpe.Rpe.norm ->
  Nepal_query.Eval_rpe.bidi_plan option
(** The bidirectional decomposition of a node·edge-rep·node RPE whose
    repetition body consumes one edge per iteration, whose upper bound
    is at least 2 and whose two endpoint atoms are both pinned by an
    equality lookup ({!Nepal_rpe.Predicate.equality_lookups}). Sound
    under every temporal form. *)
