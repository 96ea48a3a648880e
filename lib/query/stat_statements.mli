(** Cumulative per-statement execution statistics
    (pg_stat_statements-style), keyed by (backend name, query
    fingerprint) in a bounded LRU table.

    The engine records every [run]/[run_string] here; `nepal stats`
    renders the table. Set
    [NEPAL_STATS_DUMP=path] to write the table at process exit (only
    when non-empty), and [NEPAL_STAT_STATEMENTS_MAX] to size the LRU
    (default 512). The table registers with [Metrics.on_reset], so
    [Metrics.reset_all] clears it. *)

val fingerprint : string -> string
(** Normalize query text into its fingerprint: literals (numbers and
    quoted strings, which covers [AT] timestamps) become [?],
    identifiers are case-folded, whitespace collapses to single-space
    token joins. Repetition bounds inside [{ }] are preserved — they
    are query shape, not data. Text that does not tokenize is trimmed
    and used as-is. *)

val record :
  backend:string ->
  fingerprint:string ->
  ?rows:int ->
  ?roundtrips:int ->
  ?error:bool ->
  ?analysis_rejected:bool ->
  wall_s:float ->
  unit ->
  unit
(** Accumulate one execution into the (backend, fingerprint) entry,
    creating it (and evicting the least-recently-used entry when at
    capacity) as needed. [analysis_rejected] marks statements turned
    away by the [`Strict] static-analysis gate, a class distinct from
    backend/runtime [error]s (the backend was never reached). *)

(** One entry's cumulative statistics at snapshot time. *)
type stat = {
  st_backend : string;
  st_fingerprint : string;
  st_calls : int;
  st_rows : int;          (** result rows/paths returned, summed *)
  st_roundtrips : int;    (** backend round-trips, summed *)
  st_errors : int;        (** calls that returned [Error] *)
  st_analysis_rejected : int;
      (** calls rejected by [`Strict] static analysis (never executed) *)
  st_total_s : float;     (** total wall seconds *)
  st_mean_s : float;
  st_p50_s : float;       (** latency quantile estimates (log-linear) *)
  st_p95_s : float;
  st_p99_s : float;
  st_max_s : float;
}

val stats : unit -> stat list
(** All entries, heaviest total wall time first. *)

val count : unit -> int
(** Number of live entries (<= capacity). *)

val reset : unit -> unit
val set_capacity : int -> unit
val get_capacity : unit -> int
val evictions : unit -> int
(** Entries evicted by LRU pressure since the last reset. *)

val render : ?top:int -> unit -> string
(** Human-readable table sorted by total time. *)

val render_stats : ?top:int -> stat list -> string
(** {!render}, but over an explicit list (e.g. a {!load}ed dump). *)

val render_stats_json : ?top:int -> stat list -> string
(** JSON array of the entries, in the given order. *)

val save : string -> (unit, string) result
(** Write the table as a tab-separated dump (fingerprint last;
    fingerprints never contain tabs or newlines). *)

val load : string -> (stat list, string) result
(** Parse a {!save} dump, heaviest first. *)
