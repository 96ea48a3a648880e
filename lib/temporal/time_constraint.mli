(** The temporal scope under which a query (or one pathway variable of a
    query) is evaluated.

    - [Snapshot] reads the current state only — the default.
    - [At t] is a timeslice (time-point) query: every node and edge used
      must have existed at instant [t].
    - [Range (a, b)] is a time-range query: pathways that existed at some
      point within [a, b] qualify, and each result is tagged with the
      maximal interval during which it held. *)

type t =
  | Snapshot
  | At of Time_point.t
  | Range of Time_point.t * Time_point.t

val snapshot : t
val at : Time_point.t -> t
val range : Time_point.t -> Time_point.t -> t
(** @raise Invalid_argument when the range is empty. *)

val admits : t -> Interval.t -> bool
(** Does a record version with the given validity interval qualify
    under this constraint? *)

val restrict : t -> Interval.t -> Interval.t option
(** [Some] of the version's {e full} validity interval when it
    qualifies under the constraint, [None] otherwise. Under [Range]
    a version qualifies when it overlaps the window, but its whole
    interval is kept — time-range results report maximal ranges
    (Section 4). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
