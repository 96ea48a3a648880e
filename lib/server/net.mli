(** Socket plumbing shared by the JSONL server, the OpenMetrics
    exporter, and the client: SIGPIPE hygiene, receive timeouts, a
    select-ticked accept, full-buffer writes, and a bounded buffered
    line reader.

    Two hardening rules every network entry point inherits by calling
    into this module: SIGPIPE is ignored process-wide (a write to a
    disconnected peer raises [Unix.EPIPE] instead of killing the
    process), and accepted sockets get a receive timeout (an idle peer
    yields periodic {!Timeout} ticks instead of wedging its reader). *)

val init : unit -> unit
(** Ignore SIGPIPE, once per process (idempotent, no-op on Windows).
    Called by {!listen_tcp}; explicit for client-only processes. *)

val set_recv_timeout : Unix.file_descr -> float -> unit
(** Arm [SO_RCVTIMEO]: blocked reads return after at most this many
    seconds. Errors are swallowed — a socket without the option just
    keeps blocking semantics. *)

val listen_tcp :
  ?backlog:int ->
  addr:Unix.inet_addr ->
  port:int ->
  unit ->
  (Unix.file_descr * int, string) result
(** Bound, listening TCP socket (with [SO_REUSEADDR]); returns the
    socket and the actually-bound port (useful with port 0). *)

val accept_tick : Unix.file_descr -> tick_s:float -> (Unix.file_descr * Unix.sockaddr) option
(** Select on the listener for at most [tick_s] seconds and accept one
    connection when ready; [None] on the tick elapsing (so the caller
    can check its shutdown flag) or on a transient accept error. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string (restarting on [EINTR]); raises
    [Unix.Unix_error] — [EPIPE] with {!init} in effect — on failure. *)

val close_noerr : Unix.file_descr -> unit
val shutdown_noerr : Unix.file_descr -> unit

(** {1 Bounded line reading} *)

type read_outcome =
  | Line of string  (** one complete line, newline stripped (CRLF tolerated) *)
  | Too_long of int
      (** a line exceeded the reader's bound and was discarded whole;
          carries the number of bytes dropped. The reader has
          resynchronized on the newline — subsequent reads return the
          following lines. *)
  | Timeout  (** the receive timeout elapsed with no complete line *)
  | Eof  (** peer closed (or a hard read error) *)

type line_reader

val line_reader : ?max_line:int -> Unix.file_descr -> line_reader
(** Buffered reader of newline-terminated frames (default bound 1 MiB).
    The bound caps memory per connection: an over-long line is dropped
    in O(chunk) space, reported once as {!Too_long}, and the stream
    continues at the next line. Each byte is scanned once and each line
    copied out once, so an N-byte line costs O(N) time and allocation
    however the peer splits it across writes. *)

val read_line : line_reader -> read_outcome
