(** The native temporal graph store.

    This is the graph data management layer of Section 3.1: a
    transaction-time versioned store of strongly-typed nodes and edges,
    organised like the paper's Postgres implementation into a *current
    snapshot* plus a *history* (the closed versions), with adjacency and
    class extents maintained for both.

    All mutations are stamped with a monotonically non-decreasing
    transaction time supplied by the caller (the ingestion layer). *)

module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Time_point = Nepal_temporal.Time_point
module Interval = Nepal_temporal.Interval
module Time_constraint = Nepal_temporal.Time_constraint

type t

type uid = Entity.uid

val create : Nepal_schema.Schema.t -> t
val schema : t -> Nepal_schema.Schema.t

val clock : t -> Time_point.t
(** Transaction time of the latest mutation (epoch when empty). *)

val version : t -> int
(** Monotone mutation counter: bumped on every successful insert,
    update, and delete (including each cascaded edge deletion). Caches
    layered over the store key their entries to this counter. *)

(** {1 Change-data capture}

    Every successful mutation — including each edge retired by a
    cascading node delete — is fanned out to the registered
    subscribers as a typed {!Change.t}. This is the feed live
    monitoring (the [nepal_monitor] library) builds on. *)

module Change : sig
  type op = Insert | Update | Retire
  (** [Update] is a field update (a new version of a live entity);
      [Retire] closes the current version without opening another
      (deletion in transaction time). *)

  type t = {
    op : op;
    uid : Entity.uid;
    cls : string;          (** concrete class *)
    node : bool;           (** [false] for edges *)
    endpoints : (Entity.uid * Entity.uid) option;  (** edges only *)
    at : Time_point.t;     (** transaction time of the mutation *)
    version : int;         (** store version {e after} the mutation *)
    wall : float;
        (** wall clock ([Unix.gettimeofday]) at publish — the origin
            stamp for end-to-end alert-latency measurement *)
  }

  val op_to_string : op -> string
  val to_string : t -> string
end

type subscription

val subscribe : t -> ?capacity:int -> unit -> subscription
(** Register a change subscriber with a bounded buffer (default
    capacity 4096 pending changes). Publishing never blocks or fails a
    mutation: once the buffer is full, further changes are dropped and
    counted — consumers seeing {!dropped} advance must resynchronize
    from the store instead of trusting the (gapped) stream. *)

val unsubscribe : t -> subscription -> unit
(** Detach and empty the subscription; a second call is a no-op. *)

val subscriber_count : t -> int

val drain : subscription -> Change.t list
(** All buffered changes, oldest first; empties the buffer. *)

val pending : subscription -> int
val dropped : subscription -> int
(** Cumulative changes dropped on this subscription since {!subscribe}
    (never reset by {!drain}). *)

(** {1 Mutations}

    All return [Error] (with a message) rather than raising on schema
    violations — the "refuses to load garbage" property of Section 6.1. *)

val insert_node :
  t ->
  at:Time_point.t ->
  cls:string ->
  fields:Value.t Strmap.t ->
  (uid, string) result

val insert_edge :
  t ->
  at:Time_point.t ->
  cls:string ->
  src:uid ->
  dst:uid ->
  fields:Value.t Strmap.t ->
  (uid, string) result
(** Checks the allowed-edge rules against the current classes of [src]
    and [dst], which must both be alive at [at]. *)

val update :
  t ->
  at:Time_point.t ->
  uid ->
  fields:Value.t Strmap.t ->
  (unit, string) result
(** Closes the current version and opens a new one whose fields are the
    old fields overridden by [fields]. Endpoints cannot change. *)

val delete : t -> at:Time_point.t -> ?cascade:bool -> uid -> (unit, string) result
(** Deleting a node with live incident edges is an error unless
    [cascade] (default false), in which case the incident edges are
    deleted in the same transaction — the shared-fate semantics. *)

(** {1 Reads} *)

val get : t -> tc:Time_constraint.t -> uid -> Entity.t option
(** The version visible under the constraint (for [Range], the latest
    overlapping version; {!fold_versions_under} visits all). *)

val find_under : t -> tc:Time_constraint.t -> uid -> Entity.t
(** {!get} without the option: allocation-free.
    @raise Not_found where {!get} returns [None]. *)

val versions : t -> uid -> Entity.t list
(** All versions, oldest first; empty for unknown uids. *)

val fold_versions_under :
  t -> tc:Time_constraint.t -> uid -> ('a -> Entity.t -> 'a) -> 'a -> 'a
(** Folds over the versions the constraint admits, newest first, without
    building a list. Under [Range] these are the versions that overlap
    the window: the periods of those that satisfy a predicate are when,
    around the window, the entity existed and satisfied it — the
    building block of time-range pathway validity. *)

val scan_class : t -> tc:Time_constraint.t -> string -> Entity.t list
(** All entities whose concrete class is the given class {e or any
    subclass} (strongly-typed concept generalization), visible under
    [tc]. Under [Range], an entity appears once (latest qualifying
    version). *)

val fold_out_edges :
  t -> tc:Time_constraint.t -> uid -> ('a -> Entity.t -> 'a) -> 'a -> 'a
(** Folds over the node's outgoing edges the constraint admits, in
    ascending uid order, each as {!get} would return it. The adjacency
    is read in place (it is kept in uid order at mutation time), so the
    fold allocates nothing of its own. *)

val fold_in_edges :
  t -> tc:Time_constraint.t -> uid -> ('a -> Entity.t -> 'a) -> 'a -> 'a
(** {!fold_out_edges} over the incoming edges. *)

val out_edges : t -> tc:Time_constraint.t -> uid -> Entity.t list
(** {!fold_out_edges} as a list, in ascending uid order. *)

val in_edges : t -> tc:Time_constraint.t -> uid -> Entity.t list

(** {1 Field indexes} *)

val create_index : t -> cls:string -> field:string -> (unit, string) result
(** Secondary index on [cls.field] (covering subclasses); accelerates
    anchor lookups such as [Host(id=23245)]. *)

val lookup :
  t -> tc:Time_constraint.t -> cls:string -> field:string -> Value.t ->
  Entity.t list
(** Uses the index when present, otherwise scans. Returns entities of
    the class (or subclasses) whose field equals the value under [tc]. *)

val has_index : t -> cls:string -> field:string -> bool

(** {1 Statistics & storage accounting} *)

val count_current : t -> cls:string -> int
(** Current entities of the class including subclasses. *)

val count_versions : t -> int
(** Total stored versions (current + history) — the storage-overhead
    measure of Section 6 (temporal tables vs 60 separate snapshots). *)

val count_entities : t -> int
(** Distinct uids ever created. *)

val count_current_total : t -> int

val class_histogram : t -> (string * int) list
(** Current cardinality per concrete class, sorted by name. *)

val live_uids : t -> uid list
(** Uids alive in the current snapshot (deterministic order). *)
