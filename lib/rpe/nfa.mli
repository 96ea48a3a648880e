(** Nondeterministic finite automata over pathway elements, compiled
    from normalized RPEs (Section 5.1).

    Each consuming transition either matches an element against an atom
    or skips one unmatched element. Skip transitions exist at every
    concatenation junction (the paper's 4-case concatenation rule) and
    at the two pathway boundaries (an edge atom has implicit endpoint
    nodes).

    Because pathway elements strictly alternate node/edge, each
    transition can only ever consume one kind; the compiler infers the
    feasible kinds by fixpoint (a skip whose successors all match edge
    atoms can only consume a node, etc.). This lets the evaluator tell
    backends exactly which element classes an Extend must consider —
    the pruning that the paper's class partitioning exploits. *)

type transition = Match of Rpe.atom | Skip

type t

val compile :
  ?lead_skip:bool ->
  ?trail_skip:bool ->
  ?edge_final:bool ->
  ?kind_of:(Rpe.atom -> [ `Node | `Edge ] option) ->
  Rpe.norm ->
  t
(** Boundary skips (both default [true]) realize the implicit endpoint
    nodes of edge atoms. Anchored evaluation disables [lead_skip]
    because the walk starts exactly at the anchor element. [edge_final]
    (default [false]) lets accepted sequences end on a matched edge —
    used by the bidirectional evaluator, whose half-walks meet on a
    shared midpoint edge. [kind_of] (typically {!Rpe.atom_kind}
    partially applied to a schema) enables the kind-inference pruning;
    without it every transition is assumed able to consume both
    kinds. *)

val move_count : t -> int
(** Number of consuming transitions — EXPLAIN reports how many a
    product pruning removed. *)

type 'f oracle = {
  o_start : 'f;
  o_step_match : 'f -> Rpe.atom -> is_node:bool -> 'f option;
  o_step_skip : 'f -> is_node:bool -> 'f option;
  o_join : 'f -> 'f -> 'f;
  o_equal : 'f -> 'f -> bool;
}
(** Abstract frontier domain for {!prune_mask}. A step returns [None]
    when no element sequence conforming to the oracle's model can take
    the transition from that frontier. [o_join] must be an upper bound
    and the domain must have finite height (the pruner runs a
    fixpoint). *)

val signature : t -> string
(** Canonical description of the automaton's class-level structure —
    states, transitions (atom {e class} only, predicates excluded),
    inferred kinds, eps edges. Two automata with equal signatures prune
    identically under any class-driven oracle, which is what makes
    {!prune_mask} results memoizable across queries that differ only in
    predicate literals. *)

type 'f prune_mask
(** A pruning verdict detached from the automaton it was computed on:
    per transition, kept-with-narrowed-kinds or dead, and whether it was
    blocked; plus the abstract frontier at the accept state. Cheap to
    replay with {!apply_mask}; carries the {!signature} it was computed
    for. *)

val prune_mask : 'f oracle -> t -> 'f prune_mask
(** Product-automaton pruning: runs the oracle alongside the NFA (a
    forward fixpoint joining, per state, every abstract frontier that
    reaches it), marks dead the transitions whose abstract step is
    empty, narrows each transition's feasible kinds, and strands states
    that can no longer reach the accept state. Sound for any store
    whose data conforms to the oracle's model: accepted element
    sequences of conforming data are preserved exactly. *)

val apply_mask : t -> 'f prune_mask -> t
(** The pruned automaton: the transitions the mask kept, with their
    narrowed kinds. The automaton must have the same {!signature} as the
    one the mask was computed on (its atoms may carry different
    predicates — the verdict never depends on them); raises
    [Invalid_argument] otherwise. *)

val accept_frontier : 'f prune_mask -> 'f option
(** The join of every abstract frontier reaching the accept state;
    [None] when none does, i.e. no sequence conforming to the oracle's
    model is accepted. *)

type verdict =
  | Live  (** kept by the pruning: on some accepted conforming run *)
  | Blocked
      (** its source state is reached, but no conforming element can
          take it from there *)
  | Unused  (** neither: unreached, or unable to reach the accept state *)

val match_verdict : t -> 'f prune_mask -> Rpe.atom -> verdict
(** [match_verdict t mask a]: the best verdict ([Live] over [Blocked]
    over [Unused]) among the Match transitions compiled from the atom
    [a] itself (physical equality — one per unrolled copy of its
    enclosing repetitions); [Unused] when [a] is not an atom of [t].
    Same signature requirement as {!apply_mask}, checked once the mask
    is given. *)

type states = int list
(** Sorted, duplicate-free, eps-closed. *)

val start : t -> states

val step : t -> matches:(Rpe.atom -> bool) -> is_node:bool -> states -> states
(** Consume one element of the given kind. [matches] says whether a
    given atom matches the element; skip transitions fire only when
    their inferred kinds admit the element. Result is eps-closed; empty
    means the automaton is dead. *)

val step_via : t -> transition -> is_node:bool -> states -> states
(** The part of {!step} that goes through one consumption class: the
    Match transitions on atoms structurally equal to the given one (the
    element is assumed to match it), or the Skip transitions. A time-range
    walk uses it to follow runs that consumed an element at different
    instants separately. *)

val accepting : t -> states -> bool

val outgoing_atoms : t -> states -> Rpe.atom list
(** The atoms on Match transitions leaving the state set — what the
    next element could be matched against (used by backends to restrict
    neighbourhood expansion to relevant classes). *)

val can_skip : t -> is_node:bool -> states -> bool
(** Could a skip transition from these states productively consume an
    element of the given kind? When false, backends need not fetch
    candidates outside the {!outgoing_atoms} classes. *)

(** Per-walk memoization of state-set derived queries. A walk touches
    few distinct state sets but many partial pathways; interning the
    sets and caching {!outgoing_atoms}/{!can_skip} by the interned id
    collapses the per-partial recomputation. Not thread-safe — create
    one per walk (per domain). *)
module Memo : sig
  type nfa := t
  type t

  val create : nfa -> t

  val id : t -> states -> int
  (** Stable small id of the state set within this memo; equal ids iff
      equal sets. *)

  val outgoing_atoms : t -> sid:int -> states -> Rpe.atom list
  (** As {!Nfa.outgoing_atoms}, cached under [sid] = [id t states]. *)

  val can_skip : t -> sid:int -> is_node:bool -> states -> bool
  (** As {!Nfa.can_skip}, cached under [sid] = [id t states]. *)

  val accepting : t -> sid:int -> states -> bool
  (** As {!Nfa.accepting}, cached under [sid] = [id t states]. *)
end
