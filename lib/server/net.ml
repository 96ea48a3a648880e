(* Socket plumbing shared by the JSONL server, the OpenMetrics
   exporter, and the client: the two process-level hardening fixes
   (SIGPIPE ignored, receive timeouts on accepted sockets) plus a
   bounded buffered line reader over a raw file descriptor.

   SIGPIPE: writing a response to a peer that already disconnected
   must surface as [Unix.EPIPE] on the write — the default signal
   disposition would kill the whole process instead. [init] installs
   [Signal_ignore] exactly once; every listener and client calls it.

   Receive timeouts: a peer that connects and sends nothing must not
   wedge a reader forever. [set_recv_timeout] arms [SO_RCVTIMEO] so
   blocked reads return [EAGAIN]/[EWOULDBLOCK] periodically, which the
   line reader surfaces as [Timeout] ticks — the caller decides whether
   a tick means "check the shutdown flag and keep waiting" (the JSONL
   server) or "give up on this connection" (the one-request HTTP
   exporter). *)

let sigpipe_ignored =
  lazy
    (if not Sys.win32 then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let init () = Lazy.force sigpipe_ignored

let set_recv_timeout fd seconds =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max 0. seconds)
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let listen_tcp ?(backlog = 64) ~addr ~port () =
  init ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (addr, port));
    Unix.listen sock backlog;
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  with
  | bound_port -> Ok (sock, bound_port)
  | exception Unix.Unix_error (err, fn, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

(* Wait for the listener to become readable (<= [tick_s]) and accept.
   The select tick keeps a blocking accept loop responsive to a
   shutdown flag flipped by another thread. *)
let accept_tick sock ~tick_s =
  match Unix.select [ sock ] [] [] tick_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | [], _, _ -> None
  | _ -> (
      match Unix.accept sock with
      | client -> Some client
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          None)

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then begin
      let written =
        try Unix.write fd b off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + written)
    end
  in
  go 0

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let shutdown_noerr fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* -- bounded line reader ---------------------------------------------- *)

type read_outcome =
  | Line of string
  | Too_long of int  (* bytes discarded, newline included *)
  | Timeout
  | Eof

(* Pending bytes live in [lr_buf.[lr_start .. lr_stop)]; the prefix up
   to [lr_scanned] is known to hold no newline, so each byte is scanned
   once and each line is cut out with a single copy. Reads land directly
   in the buffer's tail, which grows by doubling (or is compacted when
   a line has been taken from its front), keeping a frame of N bytes at
   O(N) work and allocation however it is split across reads. *)
type line_reader = {
  lr_fd : Unix.file_descr;
  lr_max : int;
  mutable lr_buf : Bytes.t;
  mutable lr_start : int;
  mutable lr_stop : int;
  mutable lr_scanned : int;
  mutable lr_discarding : int;  (* > 0: inside an oversized line *)
  mutable lr_eof : bool;
}

let chunk = 4096

let line_reader ?(max_line = 1 lsl 20) fd =
  {
    lr_fd = fd;
    lr_max = max 1 max_line;
    lr_buf = Bytes.create chunk;
    lr_start = 0;
    lr_stop = 0;
    lr_scanned = 0;
    lr_discarding = 0;
    lr_eof = false;
  }

let pending lr = lr.lr_stop - lr.lr_start

let drop_pending lr =
  lr.lr_start <- 0;
  lr.lr_stop <- 0;
  lr.lr_scanned <- 0

(* Index of the first newline among the pending bytes, or -1. *)
let find_newline lr =
  let buf = lr.lr_buf and stop = lr.lr_stop in
  let rec go i =
    if i >= stop then begin
      lr.lr_scanned <- stop;
      -1
    end
    else if Bytes.unsafe_get buf i = '\n' then i
    else go (i + 1)
  in
  go lr.lr_scanned

(* Make room for one [chunk] read after the pending bytes: slide them
   to the front when that frees enough space, else double the buffer. *)
let make_room lr =
  let cap = Bytes.length lr.lr_buf in
  if cap - lr.lr_stop < chunk then begin
    let n = pending lr in
    let dst =
      if n + chunk <= cap then lr.lr_buf else Bytes.create (max (2 * cap) (n + chunk))
    in
    Bytes.blit lr.lr_buf lr.lr_start dst 0 n;
    lr.lr_buf <- dst;
    lr.lr_scanned <- lr.lr_scanned - lr.lr_start;
    lr.lr_start <- 0;
    lr.lr_stop <- n
  end

let read_line lr =
  let rec go () =
    match find_newline lr with
    | i when i >= 0 ->
        (* a trailing \r (CRLF peers) is stripped *)
        let stop =
          if i > lr.lr_start && Bytes.unsafe_get lr.lr_buf (i - 1) = '\r' then i - 1
          else i
        in
        let len = stop - lr.lr_start in
        let outcome =
          if lr.lr_discarding > 0 then begin
            (* the newline terminating the oversized line finally arrived *)
            let total = lr.lr_discarding + len + 1 in
            lr.lr_discarding <- 0;
            Too_long total
          end
          else Line (Bytes.sub_string lr.lr_buf lr.lr_start len)
        in
        if i + 1 = lr.lr_stop then drop_pending lr
        else begin
          lr.lr_start <- i + 1;
          lr.lr_scanned <- i + 1
        end;
        outcome
    | _ when lr.lr_eof -> Eof
    | _ ->
        if lr.lr_discarding > 0 then begin
          (* drop pending bytes; only the (absent) newline matters *)
          lr.lr_discarding <- lr.lr_discarding + pending lr;
          drop_pending lr
        end;
        if pending lr > lr.lr_max then begin
          lr.lr_discarding <- pending lr;
          drop_pending lr;
          go ()
        end
        else begin
          make_room lr;
          match Unix.read lr.lr_fd lr.lr_buf lr.lr_stop chunk with
          | 0 ->
              lr.lr_eof <- true;
              (* a final unterminated line still counts as a line; an
                 oversized one was already dropped, so nothing is left *)
              if pending lr > 0 then begin
                let line = Bytes.sub_string lr.lr_buf lr.lr_start (pending lr) in
                drop_pending lr;
                Line line
              end
              else Eof
          | n ->
              lr.lr_stop <- lr.lr_stop + n;
              go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Timeout
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (_, _, _) ->
              lr.lr_eof <- true;
              Eof
        end
  in
  go ()
