(** Half-open transaction-time intervals [start, stop).

    A record version in the temporal store carries the interval during
    which it was the current version ([sys_period] in the paper's
    Postgres implementation). An interval whose end is [None] is still
    open — the version is current. *)

type t = { start : Time_point.t; stop : Time_point.t option }

val make : Time_point.t -> Time_point.t option -> t
(** @raise Invalid_argument if [stop <= start]. *)

val from : Time_point.t -> t
(** Open interval starting at the given instant. *)

val between : Time_point.t -> Time_point.t -> t
(** Closed-ended interval. @raise Invalid_argument if empty. *)

val is_current : t -> bool
(** True when the interval is still open. *)

val contains : t -> Time_point.t -> bool
(** Membership of an instant, [start <= t < stop]. This is Postgres'
    [sys_period @> t]. *)

val overlaps : t -> t -> bool
(** Non-empty intersection. *)

val intersect : t -> t -> t option
(** Intersection, [None] when disjoint. *)

val close : t -> Time_point.t -> t
(** [close t at] ends an open interval. @raise Invalid_argument when
    already closed or [at <= start]. *)

val duration_seconds : now:Time_point.t -> t -> float
(** Length in seconds; open intervals are measured up to [now]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** ["[start, stop)"], or ["[start, )"] when open. *)

val add_to_buffer : Buffer.t -> t -> unit
