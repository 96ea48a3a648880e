(** Transaction-time instants.

    A time point is a count of microseconds since the Unix epoch. The
    textual form accepted and produced is the one the paper uses in
    queries: ["2017-02-15 10:00:00"] (seconds optional, a fractional
    part after the seconds is accepted). *)

type t = int64

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val epoch : t
(** 1970-01-01 00:00:00. *)

val of_unix_seconds : float -> t
val to_unix_seconds : t -> float

val add_seconds : t -> float -> t
val add_days : t -> int -> t
val diff_seconds : t -> t -> float
(** [diff_seconds a b] is [a - b] in seconds. *)

val of_string : string -> (t, string) result
(** Parse ["YYYY-MM-DD HH:MM[:SS[.ffffff]]"] or ["YYYY-MM-DD"],
    interpreted as UTC. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Render as ["YYYY-MM-DD HH:MM:SS"] (microseconds appended only when
    non-zero). *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the {!to_string} rendering. *)

val pp : Format.formatter -> t -> unit
