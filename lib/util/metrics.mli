(** Process-wide observability registry (counters + log-linear duration
    histograms) with quantile estimation and an OpenMetrics renderer.

    Instruments are created (or found) by name; creating is the only
    operation that takes the registry lock, so instrument handles should
    be hoisted to module level. Counters are lock-free atomics;
    histograms take a per-instrument mutex per observation.

    Histograms are log-linear: each power-of-two octave of seconds is
    divided into 4 linear sub-buckets, giving always-on p50/p95/p99
    estimates with bounded relative error and constant memory. *)

type counter
type histogram

val counter : string -> counter
(** Find or create the named registered counter. *)

val histogram : string -> histogram
(** Find or create the named registered histogram. *)

val unregistered_histogram : string -> histogram
(** A histogram sharing the bucket layout and quantile math but not
    part of the registry ([snapshot] and [render_openmetrics] do not see
    it). Used for per-statement latency tables and bench-local
    measurements. *)

val register_gauge : string -> (unit -> float) -> unit
(** Register (or replace) a named gauge callback. Gauges are sampled at
    {!snapshot} time under the registry lock, so the callback must be
    cheap and must not call back into this registry. The runtime gauges
    [gc.heap_words], [gc.major_collections] and [gc.minor_collections]
    are pre-registered; {!Domain_pool} registers [domain_pool.size] and
    [domain_pool.busy]. A callback that raises is skipped in snapshots. *)

val gauge_value : string -> float option
(** Sample one registered gauge by name ([None] when unregistered or
    its callback raises). *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

val observe : histogram -> float -> unit
(** Record one value (seconds, for duration histograms). *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and record its elapsed wall seconds whatever the
    outcome. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile (0..1) by linear
    interpolation within the target bucket, clamped to the exact
    recorded min/max. [nan] when empty. *)

val histogram_count : histogram -> int

type histogram_stats = {
  name : string;
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : (float * int) list;
      (** non-empty buckets only: (inclusive upper bound in seconds,
          count in this bucket); ascending; [infinity] bound = overflow *)
}

val stats_of : histogram -> histogram_stats

val quantiles_of_delta :
  ?prev:histogram_stats -> histogram_stats -> (float * float * float) option
(** [(p50, p95, p99)] of only the observations recorded between the
    [prev] snapshot and the current one of the same histogram — a
    windowed view, since cumulative quantiles are sticky. [None] when
    nothing new was observed. A registry reset between the snapshots
    (shrinking count) treats [prev] as empty.
    Estimates clamp to the cumulative min/max envelope. *)

type snapshot = {
  counter_values : (string * int) list;    (** sorted by name *)
  gauge_values : (string * float) list;
      (** sorted by name; sampled at snapshot time (a raising callback
          is omitted) *)
  histogram_values : histogram_stats list; (** sorted by name *)
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered instrument (handles stay valid). *)

val on_reset : (unit -> unit) -> unit
(** Register a hook run by {!reset_all} — observability state living
    outside this registry (statement statistics, sampling counters)
    hooks in here so one call restores a pristine process. *)

val reset_all : unit -> unit
(** {!reset} plus every {!on_reset} hook; the test-isolation entry
    point. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable one-line-per-instrument summary of a fresh
    snapshot (non-zero instruments only), including quantiles. *)

val render_openmetrics : unit -> string
(** The whole registry in the OpenMetrics text exposition format:
    counters as [_total] samples, histograms as cumulative [_bucket]
    series plus [_sum]/[_count], terminated by [# EOF]. *)
