(** OpenMetrics HTTP exporter: [GET /metrics] over a minimal HTTP/1.0
    listener, run on its own thread.

    Hardened against the idle-connection wedge the CLI's inline loop
    had: accepted sockets carry a receive timeout, so a peer that
    connects and never sends a request is dropped after a few seconds
    instead of parking the exporter forever. *)

type t

val with_scrape_hygiene : (unit -> string) -> unit -> string
(** Wrap a render callback with the standard scrape-hygiene metrics:
    [process_start_time_seconds] (exporter start, unix epoch seconds)
    and the info-style [nepal_build_info{version,ocaml} 1], spliced in
    before the terminating [# EOF] so the exposition stays valid
    OpenMetrics. {!start} applies this automatically. *)

val start :
  addr:Unix.inet_addr ->
  port:int ->
  ?request_timeout_s:float ->
  render:(unit -> string) ->
  unit ->
  (t, string) result
(** Bind [addr]:[port] ([0] picks a free port — see {!port}) and serve
    on a background thread. There is no default address: the caller
    binds the exporter where its server listens, so a loopback server
    does not expose its registry on every interface.
    [request_timeout_s] (default 5s) bounds how long an idle accepted
    connection is waited on before being dropped. [render] produces
    the [/metrics] body per scrape. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Stop accepting, join the thread, close the listener. *)
