(** Sets of disjoint, sorted transaction-time intervals.

    Used by the [When Exists] temporal aggregation (Section 4 of the
    paper): the answer to "when did a satisfying pathway exist?" is a
    union of maximal intervals. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Interval.t -> t
val of_list : Interval.t list -> t
(** Normalizes: overlapping or adjacent input intervals are merged. *)

val to_list : t -> Interval.t list
(** Disjoint, in increasing order. *)

val union : t -> t -> t
val inter : t -> t -> t
(** When one operand contains the other, [union] and [inter] return an
    operand itself and allocate nothing. *)

val overlaps : t -> t -> bool
(** [overlaps a b] iff [inter a b] is non-empty, without building it. *)

val contains : t -> Time_point.t -> bool

val first_start : t -> Time_point.t option
(** Earliest instant covered ([First Time When Exists]). *)

val last_moment : t -> [ `Never | `Still_exists | `Ended of Time_point.t ]
(** Latest coverage ([Last Time When Exists]): either the set is empty,
    extends to the open present, or ended at the returned instant. *)

val cardinality : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val add_to_buffer : Buffer.t -> t -> unit
(** What {!pp} prints: ["{[a, b); [c, )}"]. *)
