(** Pathways — the first-class values of the Nepal language.

    A pathway is an alternating sequence of node and edge elements
    beginning and ending with a node. Under a time-range query each
    pathway carries the maximal interval set during which all of its
    elements (co)existed. *)

module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Interval_set = Nepal_temporal.Interval_set

type element = Nepal_store.Element.t = {
  uid : int;
  cls : string;
  fields : Value.t Strmap.t;
  is_node : bool;
}
(** The store's element type: the native backend hands out the values
    the store built at mutation time; the mirrors build their own. *)

type t = {
  elements : element list;
  valid : Interval_set.t option;
      (** [Some] only for time-range queries: the maximal set of
          intervals during which the pathway held. *)
}

val well_formed : t -> bool
(** Starts and ends with a node and alternates node/edge. *)

val source : t -> element
(** First node. @raise Invalid_argument on an empty pathway. *)

val target : t -> element
(** Last node. *)

val length : t -> int
(** Number of edges (hops). *)

val nodes : t -> element list
val edges : t -> element list

val key : t -> int list
(** Uid sequence — a pathway's identity. {!compare}, {!equal} and
    {!hash} agree with it without building it. *)

val mem_uid : int -> element list -> bool
(** Does an element with this uid occur in the list? Allocation-free. *)

val field : element -> string -> Value.t

val compare : t -> t -> int
(** By uid sequence, as [Stdlib.compare (key a) (key b)] orders it.
    Allocation-free, as are {!equal}, {!hash}, {!target} and
    {!length}. *)

val equal : t -> t -> bool
(** Same uid sequence. *)

val hash : t -> int
(** Of the uid sequence: [equal a b] implies [hash a = hash b]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** [(Cls#uid)-[Cls#uid]->(Cls#uid)], then [" valid {...}"] when the
    pathway carries an interval set. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the {!to_string} rendering. *)
