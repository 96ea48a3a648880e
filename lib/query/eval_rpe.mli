(** Anchored pathway-set evaluation (Section 5.1).

    The evaluator selects the cheapest anchor, runs a Select against the
    backend, and extends the anchor records forwards through the suffix
    NFA and backwards through the reversed-prefix NFA, one bulk Extend
    per round. Union operators arise implicitly from multi-split anchors
    (alternations). Pathways are cycle-free, as in the paper's generated
    SQL.

    Two accelerations layer over that core, neither of which changes
    the result set: frontier deduplication (one backend fetch per
    distinct frontier element, and merging of partials that denote the
    same element sequence), and Domain-parallel walks (the
    forward/backward walks of every anchor split, or chunks of a seeded
    walk, run on a small domain pool when the backend's reads are
    parallel-safe; sized by {!config}).

    Under a [Range] constraint a pathway's validity is the union, over
    the runs that match it, of the instants at which each run matches:
    every element holds, at once, for the way that run consumed it. An
    element holds when one of its versions does; the versions come back
    with the Select and Extend rows that hand the element out, so a
    range evaluation issues one backend read per Select and per Extend
    round, and none per element. *)

module Time_constraint = Nepal_temporal.Time_constraint
module Rpe = Nepal_rpe.Rpe

type seed =
  | Anywhere
      (** anchored evaluation — the RPE must contain an anchor *)
  | From_nodes of Path.element list * Backend_intf.versions
      (** the pathway's source node is one of these (an anchor imported
          from a join, e.g. [source(Phys) = target(D1)]), with the
          versions {!Backend_intf.element_by_uid} returned for them *)
  | To_nodes of Path.element list * Backend_intf.versions
      (** symmetric: constrains the pathway's target node *)

type bidi_plan = {
  bd_left : Rpe.atom;  (** left endpoint atom (Select seed, forward) *)
  bd_right : Rpe.atom;  (** right endpoint atom (Select seed, backward) *)
  bd_fwd : Rpe.norm;  (** left·body[{1,k1}] — forward half *)
  bd_bwd : Rpe.norm;  (** reverse(body[{1,k2}]·right) — backward half *)
  bd_min_length : int;
      (** the original RPE's {!Rpe.min_length}; enforces the lower
          repetition bound on joined pathways *)
}
(** A meet-in-the-middle plan for a node·edge-rep·node RPE, built by
    the planner ({!Nepal_planner.Planner} splits the repetition as
    [k1 + k2 = n + 1] and costs it against the anchored alternatives).
    The two half-walks accept edge-ending sequences and join on their
    shared final edge. Only sound under [Snapshot]/[At] constraints —
    the planner never emits one under [Range]. *)

type strategy =
  | Auto  (** anchored evaluation from the [anchor]-selected candidate *)
  | Forced of Nepal_rpe.Anchor.selection
      (** anchored evaluation from exactly this candidate (planner- or
          bench-chosen) *)
  | Bidi of bidi_plan  (** bidirectional meet-in-the-middle *)

type pruner = dir:Backend_intf.direction -> Nepal_rpe.Nfa.t -> Nepal_rpe.Nfa.t
(** Product-automaton pruning hook, applied to every compiled NFA
    (direction-aware: backward walks read the schema transposed).
    Typically [Nepal_analysis.Analysis.pruner] (the schema verdict of
    {!Nepal_rpe.Nfa.prune_mask}, replayed with
    {!Nepal_rpe.Nfa.apply_mask}); must preserve the accepted language
    over conforming stores. *)

type config = {
  domains : int;  (** domain-pool width; 1 disables parallelism *)
  par_threshold : int;
      (** minimum anchor/seed count before spawning domains — tiny
          queries stay sequential *)
}

val default_config : unit -> config
(** [domains] from [NEPAL_DOMAINS] when set, otherwise
    [min 4 recommended_domain_count]; [par_threshold] 4. *)

type stats = {
  mutable selects : int;   (** Select operators executed *)
  mutable extends : int;   (** bulk Extend rounds executed *)
  mutable frontier_peak : int;
  mutable merged_partials : int;
      (** partials collapsed into an equivalent survivor *)
  mutable saved_fetches : int;
      (** frontier entries served by another partial's backend fetch *)
  mutable walk_tasks : int;  (** directional walk invocations *)
  mutable domains_used : int;  (** peak domains running walks *)
}

val find :
  Backend_intf.conn ->
  tc:Time_constraint.t ->
  ?max_length:int ->
  ?seed:seed ->
  ?stats:stats ->
  ?anchor:[ `Cheapest | `Costliest ] ->
  ?strategy:strategy ->
  ?prune:pruner ->
  ?config:config ->
  ?trace:Trace.span ->
  Rpe.norm ->
  (Path.t list, string) result
(** Pathways satisfying the RPE, deduplicated, deterministically
    ordered. [max_length] caps the number of pathway elements (default:
    the RPE's own {!Rpe.max_length}, at most 64). Under a [Range]
    constraint every returned pathway carries its maximal validity
    interval set. [anchor] (default [`Cheapest]) selects which anchor
    candidate drives evaluation — [`Costliest] exists for the anchor
    ablation experiment. [strategy] (default [Auto]) lets the planner
    force a specific anchor candidate or a bidirectional plan; it only
    applies to [Anywhere] evaluation (seeded walks ignore it). [prune]
    (default none) is applied to every compiled NFA. [config] (default
    {!default_config}) sizes the domain pool; the result set is the
    same under any configuration. [trace] (default off)
    attaches per-operator child spans (Select per anchor split, Extend
    per walk phase, Union for the split join) to the given parent
    span. *)

val new_stats : unit -> stats
