(** The retargetable-backend interface (Section 3.1 / 5.2).

    The evaluator drives Select and Extend operations through this
    signature; each target system (the native store, the relational
    engine, the property-graph engine) supplies the bulk operations and
    may log the query text it would ship to a real server.

    Connections wrap a backend value together with a presence cache:
    under a [Range] constraint the evaluator consults [presence] for
    every (element, atom) pair on every frontier round, and the interval
    sets it returns depend only on the store contents — so they are
    memoized per connection, keyed by (uid, predicate identity, window),
    and invalidated wholesale whenever the backend's mutation counter
    moves. *)

module Value = Nepal_schema.Value
module Metrics = Nepal_util.Metrics
module Strmap = Nepal_util.Strmap
module Time_constraint = Nepal_temporal.Time_constraint
module Time_point = Nepal_temporal.Time_point
module Interval_set = Nepal_temporal.Interval_set
module Rpe = Nepal_rpe.Rpe
module Predicate = Nepal_rpe.Predicate

type direction = Fwd | Bwd

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

  val version : t -> int
  (** Monotone mutation counter; any successful mutation moves it.
      Drives presence-cache invalidation. *)

  val parallel_safe : bool
  (** Whether the read operations below ([select_atom], [bulk_extend],
      [presence], [element_by_uid]) may be called concurrently from
      multiple domains. True only when no read path mutates backend
      state (no lazy caches, no logging, no temp tables). *)

  val select_atom :
    t -> tc:Time_constraint.t -> Rpe.atom -> Path.element list
  (** All elements satisfying the atom under the constraint (Select
      operator / anchor evaluation). *)

  val estimate_atom : t -> Rpe.atom -> float
  (** Anchor cost: estimated matching-record count, from statistics when
      available, otherwise schema hints (Section 5.1). *)

  val bulk_extend :
    t ->
    tc:Time_constraint.t ->
    dir:direction ->
    spec:extend_spec ->
    extend_item list ->
    (int * Path.element) list
  (** One-element extension of every item (Extend operator). [Fwd] from
      a node follows outgoing edges; from an edge reaches its target
      node. [Bwd] mirrors. Candidates that would revisit a uid in
      [prefix] are pruned; candidates that match no atom are pruned
      unless [with_skip]. The exact per-atom match is re-checked by the
      evaluator; the backend may over-approximate (e.g. class-only
      filtering). *)

  val presence :
    t ->
    uid:int ->
    window:Time_point.t * Time_point.t ->
    pred:(Value.t Strmap.t -> bool) option ->
    Interval_set.t
  (** When (within the window) did the element exist and satisfy the
      predicate? Drives time-range pathway validity. *)

  val element_by_uid : t -> tc:Time_constraint.t -> int -> Path.element option

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

(** Predicate identity for presence memoization. The evaluator only ever
    asks for plain existence or for an atom's predicate, and atoms are
    plain data (class name + literal comparisons), so the atom itself is
    the cache key — structurally hashable and comparable. *)
type presence_pred = P_exists | P_atom of Rpe.atom

type cache_counters = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

(** A backend packaged with its connection state, so heterogeneous
    backends can be mixed in one query (the data-integration story).
    Carries the presence memo table; the lock makes the cache safe to
    share between the domains of a parallel walk. *)
type conn = {
  handle : handle;
  pcache :
    (int * presence_pred * Time_point.t * Time_point.t, Interval_set.t) Hashtbl.t;
  mutable pcache_version : int;
  pcache_lock : Mutex.t;
  counters : cache_counters;
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
    pcache = Hashtbl.create 1024;
    pcache_version = B.version t;
    pcache_lock = Mutex.create ();
    counters = { hits = 0; misses = 0; invalidations = 0 };
    roundtrips = Atomic.make 0;
    m_roundtrips = Metrics.counter (Printf.sprintf "backend.%s.roundtrips" B.name);
  }

let conn_name { handle = Handle ((module B), _); _ } = B.name
let conn_schema { handle = Handle ((module B), t); _ } = B.schema t
let conn_version { handle = Handle ((module B), t); _ } = B.version t
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

let presence ({ handle = Handle ((module B), t); _ } as conn) ~uid ~window ~pred
    =
  tick conn;
  B.presence t ~uid ~window ~pred

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

(* -- the presence cache --------------------------------------------- *)

let pred_of_presence_pred = function
  | P_exists -> None
  | P_atom a -> Some (fun fields -> Predicate.eval a.Rpe.pred fields)

let cache_counters conn = conn.counters

(* Per-connection counters feed [Eval_rpe.stats]; the global registry
   mirrors them so one [Metrics.snapshot] covers every connection. *)
let m_pcache_hits = Metrics.counter "backend.pcache.hits"
let m_pcache_misses = Metrics.counter "backend.pcache.misses"
let m_pcache_invalidations = Metrics.counter "backend.pcache.invalidations"

(* Memoized presence. On a miss the backend read runs outside the lock
   (it can be expensive); two domains may then compute the same entry,
   which is harmless — last write wins with an identical value. *)
let presence_cached conn ~uid ~window:(w0, w1) ~ppred =
  let (Handle ((module B), t)) = conn.handle in
  let v = B.version t in
  let key = (uid, ppred, w0, w1) in
  Mutex.lock conn.pcache_lock;
  if v <> conn.pcache_version then begin
    Hashtbl.reset conn.pcache;
    conn.pcache_version <- v;
    conn.counters.invalidations <- conn.counters.invalidations + 1;
    Metrics.incr m_pcache_invalidations
  end;
  let cached = Hashtbl.find_opt conn.pcache key in
  (match cached with
  | Some _ ->
      conn.counters.hits <- conn.counters.hits + 1;
      Metrics.incr m_pcache_hits
  | None ->
      conn.counters.misses <- conn.counters.misses + 1;
      Metrics.incr m_pcache_misses);
  Mutex.unlock conn.pcache_lock;
  match cached with
  | Some s -> s
  | None ->
      tick conn;
      let s = B.presence t ~uid ~window:(w0, w1) ~pred:(pred_of_presence_pred ppred) in
      Mutex.lock conn.pcache_lock;
      Hashtbl.replace conn.pcache key s;
      Mutex.unlock conn.pcache_lock;
      s
