(** Structured JSONL event log.

    Every event is one JSON object per line with at least [ts] (unix
    seconds), [level] and [kind] keys, plus caller-supplied fields. The
    sink, severity floor, per-kind sampling and the slow-query
    threshold are configured from the environment on first use:

    - [NEPAL_EVENT_LOG]: file path, or ["stderr"]/["-"]; unset =
      disabled (every [emit] is then a flag check).
    - [NEPAL_EVENT_LEVEL]: [debug|info|warn|error] severity floor
      (default [info]; store mutation audits are debug-level).
    - [NEPAL_EVENT_SAMPLE]: ["kind=N,kind=N"] — keep one in N events of
      that kind, deterministically (the 1st, (N+1)th, ...).
    - [NEPAL_SLOW_QUERY_MS]: queries slower than this emit a
      ["query.slow"] event carrying the measured span tree.
    - [NEPAL_EVENT_LOG_MAX_MB]: rotate the file sink when it reaches
      this size, keeping [NEPAL_EVENT_LOG_KEEP] rotated files
      ([path.1] newest .. [path.N] oldest; default 3, unset max =
      unbounded). Each rotation ticks the [event_log.rotations]
      counter.

    All of these can also be set programmatically (tests use
    {!set_path} and {!set_rotation}). *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

(** A minimal JSON value for event fields. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string

val add_json : Buffer.t -> json -> unit
(** Append the rendering {!json_to_string} returns, without the
    intermediate string. *)

val enabled : unit -> bool
(** Whether a sink is configured; emitters may skip expensive field
    construction when false. *)

val emit : ?level:level -> kind:string -> (string * json) list -> unit
(** Write one event (default level [Info]). Dropped without
    serialization when disabled, below the severity floor, or sampled
    out. Each surviving event is flushed to the sink immediately. *)

val suppressed : unit -> int
(** Events an {e armed} sink declined to write (severity floor or
    per-kind sampling) since process start — the drop count the server's
    [introspect] frame reports. Events while the sink is disabled are
    not counted. *)

val set_path : string option -> unit
(** Point the sink at a file ([Some path]), standard error
    ([Some "stderr"]) or disable it ([None]); closes any previous file
    sink. Overrides [NEPAL_EVENT_LOG]. *)

val set_rotation : max_bytes:int option -> ?keep:int -> unit -> unit
(** Override the size-based rotation policy ([max_bytes = None]
    disables; [keep] rotated files retained, default 3, floored at
    1). Overrides [NEPAL_EVENT_LOG_MAX_MB] / [NEPAL_EVENT_LOG_KEEP]. *)

val set_level : level -> unit
val set_sample : kind:string -> int -> unit
(** [set_sample ~kind n] keeps one in [n] events of [kind] ([n <= 1]
    removes sampling for the kind). *)

val slow_query_threshold : unit -> float option
(** Threshold in seconds, or [None] when unset {e or when the log is
    disabled} — gating tracing on this means a silent process pays
    nothing. *)

val set_slow_query_threshold : float option -> unit
(** Threshold in seconds (overrides [NEPAL_SLOW_QUERY_MS]). *)
