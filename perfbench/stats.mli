(** Order statistics and answer checking for the Nepal benchmark.

    Everything here is pure (no clock, no I/O) so the benchmark's own
    tests can pin it down exactly. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle two for even
    lengths). Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by the same rule as Python's
    [statistics.quantiles(values, n=4)] (the default "exclusive"
    method). Needs at least two values. *)

type rank = {
  value : float;  (** the sample at the nearest rank *)
  rank : int;  (** 1-based rank into the sorted samples *)
  beyond : int;  (** samples strictly after that rank *)
}

val nearest_rank : int -> float array -> rank
(** [nearest_rank p sorted] is the nearest-rank [p]th percentile
    ([0 < p <= 100]) of an ascending, non-empty array: rank
    [ceil (p * n / 100)]. *)

(** {1 Answer checking} *)

type answer = { count : int; digest : string }
(** What a correct reply must carry: the path count and the MD5 of the
    exact rendered result text. *)

val answer_of : count:int -> text:string -> answer

type checker
(** Expected answers keyed by query text, plus tallies of the replies
    checked against them. Safe to share between threads. *)

val checker : unit -> checker
val expect : checker -> string -> answer -> unit
val expected : checker -> string -> answer option

val verify : checker -> string -> (answer, string) result -> bool
(** Check one reply to the named query; [Error] replies, unknown
    queries and mismatches all count as failed. The first few failures
    are kept for the report. *)

val record_failure : checker -> string -> unit
(** Count a failure that is not a reply (a failed write, a violated
    mix check). *)

val checked : checker -> int
val failed : checker -> int
val failures : checker -> string list
(** The first failures, oldest first. *)
