(** Blocking JSONL client for the {!Server} wire protocol: one
    request/response exchange at a time, with unsolicited frames (the
    hello greeting, streamed watch alerts) stashed and drained through
    {!next_event}. Shared by the CLI's [client] command, the bench
    driver, and the integration tests. *)

module J := Nepal_util.Event_log
module Jsonp := Nepal_util.Jsonp

type t

val connect :
  ?addr:Unix.inet_addr ->
  ?port:int ->
  ?recv_timeout_s:float ->
  unit ->
  (t, string) result

val close : t -> unit

val fd : t -> Unix.file_descr
(** The raw socket, for tests that sabotage the connection. *)

val request : t -> (string * J.json) list -> (Jsonp.t, string) result
(** Send one frame (an ["id"] is added) and block for the matching
    response. *)

val ping : t -> (unit, string) result

val query : t -> string -> (Server.query_reply, string) result
(** Evaluate on the server; the reply text is the exact
    {!Nepal_query.Engine.pp_result} rendering. [qr_trace] is filled if
    the server volunteered a trace (it won't unless asked — see
    {!query_traced}). *)

val query_traced : t -> string -> (Server.query_reply, string) result
(** Like {!query} but sends [{"trace": true}]: [qr_trace] carries the
    response's ["trace"] object (span tree + plan + diagnostics),
    renderable with {!Wire.render_trace}. *)

val watch : t -> string -> (int, string) result
(** Register a standing query; returns the watch id carried by its
    alert frames. *)

val unwatch : t -> int -> (bool, string) result
(** [Ok true] when the watch existed on this session. *)

val stats : t -> (Jsonp.t, string) result

val introspect : t -> (Jsonp.t, string) result
(** The live server-state dump backing [nepal top]: totals, latency
    quantiles, executor/rwlock occupancy, per-session table. *)

val next_event : ?timeout_s:float -> t -> Jsonp.t option
(** Next unsolicited frame: stashed ones first, then whatever arrives
    on the socket within [timeout_s] (default 1s). *)
