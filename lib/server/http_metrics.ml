(* The OpenMetrics HTTP exporter, factored out of the CLI so the fix
   for its idle-connection wedge lives next to the JSONL server's
   hardening and both inherit the same socket discipline from [Net].

   The historic bug: the CLI's inline loop read the request line with
   [input_line] on a channel over the accepted socket — a scraper (or a
   port prober) that connected and sent nothing parked the whole
   exporter forever, since nothing armed a receive timeout. Here every
   accepted socket gets [SO_RCVTIMEO]; an idle peer surfaces as a
   [Timeout] outcome and the connection is dropped, after which the
   accept loop serves the next scrape.

   Still deliberately tiny: HTTP/1.0, one request per connection,
   handled serially on the exporter thread — scrapes are rare and the
   render is fast. *)

let default_request_timeout_s = 5.0
let max_header_lines = 100

(* -- scrape hygiene ---------------------------------------------------

   Two standard metrics every scraper expects, appended to whatever the
   render callback produces: [process_start_time_seconds] (lets a
   scraper detect restarts and compute counter rates across them) and a
   [nepal_build_info] info-style metric carrying the version and OCaml
   toolchain as labels with a constant 1 value. The exporter owns these
   rather than the registry because they describe the *process*, not
   the workload, and must appear exactly once per scrape regardless of
   which registry renders. *)

let process_start = Unix.gettimeofday ()
let build_version = "1.0.0"

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let hygiene_block () =
  Printf.sprintf
    "# TYPE process_start_time_seconds gauge\n\
     # HELP process_start_time_seconds Start time of the process since unix epoch in seconds.\n\
     process_start_time_seconds %.6f\n\
     # TYPE nepal_build info\n\
     # HELP nepal_build Build information for this nepal server.\n\
     nepal_build_info{version=\"%s\",ocaml=\"%s\"} 1\n"
    process_start (escape_label build_version)
    (escape_label Sys.ocaml_version)

(* Splice the hygiene block in before the terminating [# EOF] (OpenMetrics
   requires EOF last); a render without one just gets the block
   appended. *)
let with_scrape_hygiene render () =
  let body = render () in
  let eof = "# EOF\n" in
  let n = String.length body and e = String.length eof in
  if n >= e && String.sub body (n - e) e = eof then
    String.sub body 0 (n - e) ^ hygiene_block () ^ eof
  else body ^ hygiene_block ()

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  running : bool Atomic.t;  (* stop() races the serve loop *)
  mutable thread : Thread.t option [@guarded_by "owner: start/stop caller"];
}

(* [head:true] sends the status line and headers — including the
   Content-Length the body *would* have — with no body, per RFC 9110's
   HEAD semantics; scrapers probe with `curl --head` and must see the
   same metadata a GET would produce. *)
let http_response ?(head = false) status content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body)
    (if head then "" else body)

let handle ~render ~timeout client =
  Net.set_recv_timeout client timeout;
  let lr = Net.line_reader ~max_line:8192 client in
  (match Net.read_line lr with
  | Net.Timeout | Net.Eof | Net.Too_long _ ->
      (* idle, closed, or abusive peer: drop it and serve the next one *)
      ()
  | Net.Line request ->
      (* Drain headers until the blank line (bounded; a peer streaming
         endless headers is cut off, not waited on). *)
      let rec drain n =
        if n > 0 then
          match Net.read_line lr with
          | Net.Line "" | Net.Timeout | Net.Eof -> ()
          | Net.Line _ | Net.Too_long _ -> drain (n - 1)
      in
      drain max_header_lines;
      let meth, path =
        match String.split_on_char ' ' (String.trim request) with
        | meth :: path :: _ -> (String.uppercase_ascii meth, path)
        | _ -> ("GET", "/")
      in
      let head = meth = "HEAD" in
      let response =
        match path with
        | "/metrics" | "/metrics/" ->
            http_response ~head "200 OK"
              "application/openmetrics-text; version=1.0.0; charset=utf-8"
              (render ())
        | _ ->
            http_response ~head "404 Not Found" "text/plain; charset=utf-8"
              "not found: try /metrics\n"
      in
      (try Net.write_all client response with Unix.Unix_error _ -> ()));
  Net.shutdown_noerr client;
  Net.close_noerr client

let serve_loop t ~render ~timeout =
  while Atomic.get t.running do
    match Net.accept_tick t.sock ~tick_s:0.2 with
    | None -> ()
    | Some (client, _peer) -> handle ~render ~timeout client
  done

let start ~addr ~port ?(request_timeout_s = default_request_timeout_s) ~render
    () =
  let render = with_scrape_hygiene render in
  match Net.listen_tcp ~addr ~port () with
  | Error e -> Error e
  | Ok (sock, bound_port) ->
      let t =
        { sock; bound_port; running = Atomic.make true; thread = None }
      in
      t.thread <-
        Some
          (Thread.create
             (fun () -> serve_loop t ~render ~timeout:request_timeout_s)
             ());
      Ok t

let port t = t.bound_port

let stop t =
  Atomic.set t.running false;
  (match t.thread with Some th -> Thread.join th | None -> ());
  Net.close_noerr t.sock
