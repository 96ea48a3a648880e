(** A TinkerPop-style property graph.

    Unlike the Nepal store this substrate is schema-free: vertices and
    edges carry a single string label and arbitrary properties ("common
    property-graph systems will let you load garbage without any
    warnings", Section 6.1 — tests demonstrate exactly that). The Nepal
    translation encodes class inheritance in the label as the full
    inheritance path ([Node:VM:VMWare]) and matches concepts by label
    prefix, as Section 5.2 describes. Transaction-time periods are kept
    in the reserved [sys_period] property so the temporal slice
    predicates can be pushed into traversals. *)

module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap

type t

type element = {
  id : int;
  label : string;
  props : Value.t Strmap.t;
  endpoints : (int * int) option;  (** [Some (out_v, in_v)] for edges *)
}

val create : unit -> t

val add_vertex : t -> ?id:int -> label:string -> Value.t Strmap.t -> int
(** Returns the vertex id (fresh unless forced; forcing an existing id
    raises [Invalid_argument]). *)

val add_edge :
  t -> ?id:int -> label:string -> src:int -> dst:int -> Value.t Strmap.t -> int
(** @raise Invalid_argument when an endpoint does not exist — the only
    integrity check a property graph gives you. *)

val set_props : t -> int -> Value.t Strmap.t -> unit
(** Merge properties into an element. @raise Not_found. *)

val remove : t -> int -> unit
(** Remove an element; removing a vertex drops its incident edges. *)

val element : t -> int -> element option
val is_vertex : element -> bool

val vertices : t -> element list
val edges : t -> element list

val vertices_by_label_prefix : t -> string -> element list
(** Prefix match on whole label segments: ["Node:VM"] matches
    ["Node:VM:VMWare"] but not ["Node:VMX"]. *)

val edges_by_label_prefix : t -> string -> element list

val label_has_prefix : prefix:string -> string -> bool
(** The whole-segment prefix test behind the two functions above,
    compared in place: it allocates nothing. *)

val label_prefix_count : t -> vertices:bool -> string -> int
(** [List.length] of {!vertices_by_label_prefix} (or of
    {!edges_by_label_prefix} when [vertices] is false), summed from the
    per-label counts the graph keeps at mutation time: time linear in
    the labels under the prefix's first segment, not in their elements,
    and no allocation. Cost probes use it. *)

val out_edges : t -> int -> element list
val in_edges : t -> int -> element list

val vertex_count : t -> int
val edge_count : t -> int
(** Both read totals kept at mutation time. *)
