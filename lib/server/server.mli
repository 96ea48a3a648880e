(** The Nepal server: concurrent JSONL sessions over TCP, with
    [query] / [watch] / [unwatch] / [stats] / [ping] / [introspect]
    verbs (see {!Wire}). The server keeps no telemetry history of its
    own: its registry is exported live over OpenMetrics (see
    {!Http_metrics}, which [nepal serve --metrics-port] starts beside
    it), and whatever scrapes that endpoint keeps the history.

    One listener thread accepts sessions; each session runs a reader
    and a writer systhread, with query evaluation dispatched to a
    {!Nepal_util.Domain_pool.Executor} of worker domains so concurrent
    sessions use multiple cores. The store is synchronized at the
    server boundary: queries and monitor work run under a read lock,
    in-process mutation goes through {!with_write}. Watch alerts are
    streamed through a bounded per-session outbox with drop-and-count
    backpressure — a slow client loses alerts (and is told how many via
    the [dropped] field), never stalls the store.

    Registry instruments: [server.sessions_total],
    [server.sessions_rejected], [server.requests], [server.errors],
    [server.alerts_sent], [server.alerts_dropped] counters; the
    [server.query_seconds] histogram; and the [server.sessions]
    gauge. *)

type query_reply = {
  qr_count : int;
  qr_text : string;
  qr_trace : Nepal_util.Event_log.json option;
      (** present when the request asked [{"trace": true}]: the
          [{"spans", "plan", "diagnostics"}] object the response's
          ["trace"] member carries *)
}
(** What a query verb answers with: the result count and the exact
    {!Nepal_engine.Engine.pp_result} rendering (which is what makes wire
    results byte-identical to the in-process API). *)

type config = {
  addr : Unix.inet_addr;
  port : int;  (** 0 picks a free port; see {!port} *)
  max_sessions : int;
  recv_timeout_s : float;  (** read tick on session sockets *)
  max_line_bytes : int;  (** per-frame size bound *)
  outbox_capacity : int;  (** frames buffered per session *)
  workers : int option;  (** executor domains; [None] = pool default *)
  pump_interval_s : float;  (** monitor poll cadence *)
  debounce_ms : float option;  (** watch debounce override *)
}

val default_config : config
(** Loopback:9642, 64 sessions, 250ms read tick, 1 MiB frames,
    256-frame outboxes, default executor width, 20ms pump. *)

type t

val start :
  ?config:config -> Nepal_store.Graph_store.t -> (t, string) result
(** Bind and serve on background threads. Each session evaluates
    through its own native connection (own round-trip counter) with
    {!Nepal_engine.Explain.run_string} — the entry [Nepal.query_on]
    aliases — so wire answers and errors are byte-identical to the
    in-process API; a [{"trace": true}] request runs
    {!Nepal_engine.Explain.run_string_wire_traced}, whose result text is
    the same. [Error] on bind failure. *)

val stop : t -> unit
(** Stop accepting, wake and join every session, join the pump, close
    the monitor, shut the executor down. Idempotent. *)

val wait : t -> unit
(** Block until the server stops (joins the listener thread). *)

val port : t -> int
(** The actually-bound port. *)

val session_count : t -> int
val watch_count : t -> int

val with_write : t -> (Nepal_store.Graph_store.t -> 'a) -> 'a
(** Run an in-process store mutation under the server's write lock —
    the only safe way to mutate a served store (tests, churn drivers). *)
