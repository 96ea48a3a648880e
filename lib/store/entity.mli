(** A version of a node or edge record.

    Every entity version carries the transaction-time interval during
    which it was (or still is) current. Edges additionally carry their
    endpoint node uids; endpoints are immutable across versions of the
    same edge. *)

type uid = int

type t = {
  uid : uid;
  cls : string;  (** concrete class name *)
  fields : Nepal_schema.Value.t Nepal_util.Strmap.t;
  period : Nepal_temporal.Interval.t;
  endpoints : (uid * uid) option;  (** [Some (src, dst)] iff an edge *)
  elem : Element.t;
      (** this version's uid, class and fields as a query element; every
          version has its own, shared by the copies that only change
          [period] *)
}

val make :
  uid:uid ->
  cls:string ->
  fields:Nepal_schema.Value.t Nepal_util.Strmap.t ->
  period:Nepal_temporal.Interval.t ->
  endpoints:(uid * uid) option ->
  t
(** A version with its element built from the same values. *)

val is_edge : t -> bool
val is_node : t -> bool

val src : t -> uid
(** @raise Invalid_argument on nodes. *)

val dst : t -> uid
(** @raise Invalid_argument on nodes. *)

val field : t -> string -> Nepal_schema.Value.t
(** [Null] when absent. *)

val pp : Format.formatter -> t -> unit
