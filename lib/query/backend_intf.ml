(** The retargetable-backend interface (Section 3.1 / 5.2).

    The evaluator drives Select and Extend operations through this
    signature; each target system (the native store, the relational
    engine, the property-graph engine) supplies the bulk operations and
    may log the query text it would ship to a real server.

    Under a [Range] constraint every read that hands out elements also
    hands out, beside its rows, each element's versions that overlap the
    window: the rows the paper's [sys_period && window] Select and
    Extend return anyway. The evaluator computes time-range validity
    from those versions, so a range query costs one round-trip per
    Select and per Extend round, as in the paper. *)

module Value = Nepal_schema.Value
module Metrics = Nepal_util.Metrics
module Strmap = Nepal_util.Strmap
module Time_constraint = Nepal_temporal.Time_constraint
module Time_point = Nepal_temporal.Time_point
module Interval = Nepal_temporal.Interval
module Rpe = Nepal_rpe.Rpe

type direction = Fwd | Bwd

(** One version of an element: its transaction-time period and the
    fields it had then. *)
type version = { period : Interval.t; fields : Value.t Strmap.t }

(** The versions a read saw, per element uid: under [Range], for every
    element the read returns, its versions that overlap the window, in
    no particular order. Every entry for a uid lists all of them, so a
    uid may repeat, and a version may repeat within an entry. Outside
    [Range] a read returns {!no_versions}. *)
type versions = (int * version list) list

let no_versions : versions = []

type extend_item = {
  item_id : int;      (** caller's identifier for the partial pathway *)
  frontier : Path.element;
  prefix : Path.element list;
      (** elements already on the pathway, frontier first, for cycle
          pruning: the partial's own parent chain, shared and never
          copied, so at most the walk's length bound *)
}

(** What the next element may be matched against: the classes let the
    backend prune irrelevant extents (the Section 6 re-classing
    experiment); [with_skip] forces unrestricted neighbourhood expansion
    because a junction skip could consume anything. *)
type extend_spec = { atoms : Rpe.atom list; with_skip : bool }

module type S = sig
  type t

  val name : string
  val schema : t -> Nepal_schema.Schema.t

  val parallel_safe : bool
  (** Whether the read operations below ([select_atom], [bulk_extend],
      [element_by_uid]) may be called concurrently from multiple
      domains. True only when no read path mutates backend state (no
      lazy caches, no logging, no temp tables). *)

  val select_atom :
    t -> tc:Time_constraint.t -> Rpe.atom -> Path.element list * versions
  (** All elements satisfying the atom under the constraint (Select
      operator / anchor evaluation). Under [Range] an element qualifies
      when one of its versions overlapping the window satisfies the
      atom, and its versions are those that do. *)

  val estimate_atom : t -> Rpe.atom -> float
  (** Anchor cost: estimated matching-record count, from statistics when
      available, otherwise schema hints (Section 5.1). *)

  val bulk_extend :
    t ->
    tc:Time_constraint.t ->
    dir:direction ->
    spec:extend_spec ->
    extend_item list ->
    (int * Path.element) list * versions
  (** One-element extension of every item (Extend operator). [Fwd] from
      a node follows outgoing edges; from an edge reaches its target
      node. [Bwd] mirrors. Candidates that would revisit a uid in
      [prefix] are pruned; candidates that match no atom are pruned
      unless [with_skip]. The exact per-atom match is re-checked by the
      evaluator; the backend may over-approximate (e.g. class-only
      filtering). Under [Range] the versions are all of each
      candidate's versions that overlap the window. *)

  val element_by_uid :
    t -> tc:Time_constraint.t -> int -> (Path.element * versions) option
  (** The element under the constraint, with (under [Range]) all its
      versions that overlap the window. *)

  val version_boundaries :
    t -> uid:int -> window:Time_point.t * Time_point.t -> Time_point.t list
  (** Transaction times (within the window) at which the element gained
      a new version, changed, or was deleted — drives path-evolution
      queries. Sorted ascending. *)

  val describe_select : t -> tc:Time_constraint.t -> Rpe.atom -> string
  (** EXPLAIN text: what [select_atom] would execute for this atom — the
      SQL / Gremlin the translator would ship, or the native access
      path. Must not touch the data. *)

  val describe_extend :
    t -> tc:Time_constraint.t -> dir:direction -> spec:extend_spec -> string
  (** EXPLAIN text for one [bulk_extend] round over the given spec. *)
end

type 'a backend = (module S with type t = 'a)

(** A backend packaged with its value. *)
type handle = Handle : 'a backend * 'a -> handle

(** A backend packaged with its connection state, so heterogeneous
    backends can be mixed in one query (the data-integration story). *)
type conn = {
  handle : handle;
  roundtrips : int Atomic.t;
      (** backend reads issued through this connection; atomic because
          parallel walk domains tick it concurrently. Trace spans read
          deltas of this to attribute round-trips per operator. *)
  m_roundtrips : Metrics.counter;  (** global mirror, per backend name *)
}

let make (type a) (backend : a backend) (t : a) : conn =
  let (module B) = backend in
  {
    handle = Handle (backend, t);
    roundtrips = Atomic.make 0;
    m_roundtrips = Metrics.counter (Printf.sprintf "backend.%s.roundtrips" B.name);
  }

let conn_name { handle = Handle ((module B), _); _ } = B.name
let conn_schema { handle = Handle ((module B), t); _ } = B.schema t
let parallel_safe { handle = Handle ((module B), _); _ } = B.parallel_safe

let tick conn =
  Atomic.incr conn.roundtrips;
  Metrics.incr conn.m_roundtrips

let conn_roundtrips conn = Atomic.get conn.roundtrips

let select_atom ({ handle = Handle ((module B), t); _ } as conn) ~tc atom =
  tick conn;
  B.select_atom t ~tc atom

let estimate_atom { handle = Handle ((module B), t); _ } atom =
  B.estimate_atom t atom

let bulk_extend ({ handle = Handle ((module B), t); _ } as conn) ~tc ~dir ~spec
    items =
  tick conn;
  B.bulk_extend t ~tc ~dir ~spec items

let element_by_uid ({ handle = Handle ((module B), t); _ } as conn) ~tc uid =
  tick conn;
  B.element_by_uid t ~tc uid

let version_boundaries ({ handle = Handle ((module B), t); _ } as conn) ~uid
    ~window =
  tick conn;
  B.version_boundaries t ~uid ~window

let describe_select { handle = Handle ((module B), t); _ } ~tc atom =
  B.describe_select t ~tc atom

let describe_extend { handle = Handle ((module B), t); _ } ~tc ~dir ~spec =
  B.describe_extend t ~tc ~dir ~spec
