(** The JSONL wire protocol: one JSON object per line.

    Client → server: [{"op": VERB, "id": ID, ...}] with verbs [ping],
    [query] / [watch] (string field ["q"]; [query] also accepts
    [{"trace": true}] for EXPLAIN ANALYZE over the wire), [unwatch]
    (integer field ["watch"]), [stats] and [introspect]. The [id] —
    integer, string, or absent — is echoed verbatim in the response.

    Server → client: responses ([{"id", "ok", ...}], exactly one per
    request) and unsolicited events ([{"event": "hello"}] on connect,
    [{"event": "alert", ...}] for streamed watch alerts, carrying the
    session's cumulative [dropped] counter and the end-to-end
    [latency_ms] from the CDC publish stamp of the oldest change behind
    the alert). A traced query response additionally carries a
    ["trace"] object: [{"spans": <span tree>, "plan": [lines],
    "diagnostics": [lines]}] with spans shaped by
    {!Nepal_query.Trace.to_json}. *)

module J := Nepal_util.Event_log

val proto_version : int

val default_max_line : int
(** Default per-frame size bound (1 MiB). *)

type request =
  | Ping
  | Query of { q : string; trace : bool }
  | Watch of string
  | Unwatch of int
  | Stats
  | Introspect

val parse_request : string -> (J.json * request, J.json * string) result
(** Parse one frame. Both sides carry the request id (or [Null]) so an
    error response can still be correlated. *)

(** {1 Rendered frames} (newline-terminated, ready to write) *)

val line : ?size_hint:int -> J.json -> string
(** Any value as one frame. [size_hint] (bytes) presizes the render
    buffer for a large payload. *)

val hello : unit -> string
val error_frame : id:J.json -> string -> string
val pong : id:J.json -> string

val query_result :
  ?trace:J.json -> id:J.json -> count:int -> text:string -> unit -> string
(** [trace], present for [{"trace": true}] requests, is the response's
    ["trace"] member. *)

val watch_ack : id:J.json -> watch:int -> total:int -> string
val unwatch_ack : id:J.json -> existed:bool -> string
val stats_frame : id:J.json -> (string * J.json) list -> string

val introspect_frame : id:J.json -> (string * J.json) list -> string
(** Live server state: uptime, executor queue, rwlock occupancy,
    per-session table — whatever fields the server gathers. *)

val alert :
  ?latency_ms:float ->
  watch:int ->
  kind:string ->
  added:string list ->
  removed:string list ->
  total:int ->
  at:string ->
  wall_ms:float ->
  dropped:int ->
  unit ->
  string

val render_trace : J.json -> string list
(** Render a response's ["trace"] object for a terminal: the span tree
    indented exactly as in-process EXPLAIN ANALYZE prints it, then
    [plan:] and [diagnostics:] sections. Unknown or missing members are
    skipped, not errors. *)
