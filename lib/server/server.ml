(* The Nepal server: a long-running TCP endpoint speaking the JSONL
   wire protocol (Wire) over concurrent sessions.

   Thread/domain layout. One listener thread accepts connections with a
   select tick (so shutdown is prompt). Each session owns two
   systhreads: a reader that parses frames and handles verbs, and a
   writer that drains the session's bounded Outbox to the socket — the
   only thread that ever writes to the fd, so responses and streamed
   alerts interleave at frame granularity, never mid-frame. One pump
   thread polls the shared Monitor and routes alerts to sessions.
   Systhreads all share domain 0, so CPU-bound query evaluation is
   dispatched to a Domain_pool.Executor — persistent worker domains —
   letting concurrent sessions' queries spread across cores while their
   reader threads block cheaply on the result.

   Store discipline. Graph_store has no internal locking, so the server
   is the synchronization point: query evaluation and monitor work run
   under Rwlock.read (many concurrent readers), and in-process mutation
   goes through [with_write] under Rwlock.write. Each session evaluates
   through its own backend connection, which holds no query state a
   write could make stale (its round-trip counter only); the shared
   Monitor is single-threaded by contract and serialized behind its own
   mutex.

   Backpressure. Responses are must-deliver; alerts are droppable at
   the session's Outbox capacity, counted, and the count rides every
   later alert frame ("dropped"). A slow or stalled client therefore
   loses alerts — knowingly — and never blocks the pump, the store
   lock, or other sessions. *)

module Metrics = Nepal_util.Metrics
module Rwlock = Nepal_util.Rwlock
module Executor = Nepal_util.Domain_pool.Executor
module Monitor = Nepal_monitor.Monitor
module Graph_store = Nepal_store.Graph_store
module J = Nepal_util.Event_log

let m_sessions_total = Metrics.counter "server.sessions_total"
let m_rejected = Metrics.counter "server.sessions_rejected"
let m_requests = Metrics.counter "server.requests"
let m_errors = Metrics.counter "server.errors"
let m_alerts_sent = Metrics.counter "server.alerts_sent"
let m_alerts_dropped = Metrics.counter "server.alerts_dropped"

(* Cleanup and pump paths must survive a secondary failure, but
   nothing may vanish silently (LNT005): count it and, when the event
   log is armed, record which exception was suppressed. *)
let m_suppressed_errors = Metrics.counter "server.suppressed_errors"

let note_error ~kind exn =
  Metrics.incr m_suppressed_errors;
  if Nepal_util.Event_log.enabled () then
    Nepal_util.Event_log.emit ~level:Nepal_util.Event_log.Warn ~kind
      [ ("error", Nepal_util.Event_log.Str (Printexc.to_string exn)) ]
let h_query = Metrics.histogram "server.query_seconds"

type query_reply = {
  qr_count : int;
  qr_text : string;
  qr_trace : J.json option;  (* {"spans", "plan", "diagnostics"} *)
}

type runner = trace:bool -> string -> (query_reply, string) result

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

let default_config =
  {
    addr = Unix.inet_addr_loopback;
    port = 9642;
    max_sessions = 64;
    recv_timeout_s = 0.25;
    max_line_bytes = Wire.default_max_line;
    outbox_capacity = 256;
    workers = None;
    pump_interval_s = 0.02;
    debounce_ms = None;
  }

type session = {
  s_id : int;
  s_fd : Unix.file_descr;
  s_outbox : Outbox.t;
  s_lr : Net.line_reader;
  s_runner : runner;
  s_started : float;
  s_requests : int Atomic.t;  (* reader thread writes, introspect reads *)
  s_alerts_sent : int Atomic.t;  (* pump writes, stats/introspect read *)
  mutable s_watches : (int * Monitor.watch) list
      [@guarded_by "owner: this session's reader thread"];
}

type t = {
  cfg : config;
  store : Graph_store.t;
  rw : Rwlock.t;
  exec : Executor.t;
  mon : Monitor.t;
  mon_lock : Mutex.t;  (* Monitor is single-threaded by contract *)
  listen_fd : Unix.file_descr;
  bound_port : int;
  started_at : float;
  lock : Mutex.t;  (* sessions, watch_routes, next_session *)
  sessions : (int, session * Thread.t) Hashtbl.t;
  watch_routes : (int, session) Hashtbl.t;  (* watch id -> owner *)
  mutable next_session : int [@guarded_by "lock"];
  running : bool Atomic.t;  (* flipped once by [stop]; loops poll it *)
  mutable listener : Thread.t option [@guarded_by "start/stop caller"];
  mutable pump : Thread.t option [@guarded_by "start/stop caller"];
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let port t = t.bound_port
let session_count t = with_lock t.lock (fun () -> Hashtbl.length t.sessions)
let watch_count t = with_lock t.lock (fun () -> Hashtbl.length t.watch_routes)
let with_write t f = Rwlock.write t.rw (fun () -> f t.store)

(* A session's runner: a fresh native connection (own round-trip
   counter) evaluating through [Explain.run_string], the entry
   [Nepal.query_on] aliases, rendered with the same printer — which is
   what makes wire results and errors byte-identical to the in-process
   API. *)
let new_runner store : runner =
  let module Explain = Nepal_engine.Explain in
  let conn = Nepal_query.Connect.native store in
  let reply ?trace result =
    {
      qr_count = Nepal_engine.Engine.result_count result;
      qr_text = Nepal_engine.Engine.result_to_string result;
      qr_trace = trace;
    }
  in
  fun ~trace text ->
    if trace then
      Result.map
        (fun tr -> reply ~trace:(Explain.traced_json tr) tr.Explain.tr_result)
        (Explain.run_string_wire_traced ~conn text)
    else Result.map (fun r -> reply r) (Explain.run_string ~conn text)

(* -- verb handlers (reader thread) ------------------------------------ *)

let push s frame = ignore (Outbox.push s.s_outbox frame : bool)

let stats_fields t s =
  [
    ("proto", J.Int Wire.proto_version);
    ("sessions", J.Int (session_count t));
    ("watches", J.Int (watch_count t));
    ("requests", J.Int (Metrics.counter_value m_requests));
    (* alerts_sent is *this session's* count; the process-wide total
       stays on the OpenMetrics counter server.alerts_sent. *)
    ("alerts_sent", J.Int (Atomic.get s.s_alerts_sent));
    ("alerts_dropped", J.Int (Outbox.dropped s.s_outbox));
    ("outbox_len", J.Int (Outbox.length s.s_outbox));
    ("outbox_high_water", J.Int (Outbox.high_water s.s_outbox));
    ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
  ]

(* A histogram condensed for a wire frame: count + quantiles in ms. *)
let hist_json h =
  let st = Metrics.stats_of h in
  J.Obj
    [
      ("count", J.Int st.Metrics.count);
      ("p50_ms", J.Float (st.Metrics.p50 *. 1e3));
      ("p95_ms", J.Float (st.Metrics.p95 *. 1e3));
      ("p99_ms", J.Float (st.Metrics.p99 *. 1e3));
      ("max_ms", J.Float (st.Metrics.max *. 1e3));
    ]

(* Live server state for the [introspect] verb: the operational view
   `nepal top` refreshes from. Counters come from the registry (same
   numbers OpenMetrics exports); live occupancy (queue depths, lock
   holders, outboxes) is read straight from the structures. *)
let introspect_fields t =
  let now = Unix.gettimeofday () in
  let sessions =
    with_lock t.lock (fun () ->
        Hashtbl.fold (fun _ (s, _) acc -> s :: acc) t.sessions [])
    |> List.sort (fun a b -> compare a.s_id b.s_id)
  in
  let session_json s =
    let watch_ids =
      List.map (fun (wid, _) -> J.Int wid) (List.rev s.s_watches)
    in
    J.Obj
      [
        ("id", J.Int s.s_id);
        ("uptime_s", J.Float (now -. s.s_started));
        ("requests", J.Int (Atomic.get s.s_requests));
        ("alerts_sent", J.Int (Atomic.get s.s_alerts_sent));
        ("alerts_dropped", J.Int (Outbox.dropped s.s_outbox));
        ("outbox_len", J.Int (Outbox.length s.s_outbox));
        ("outbox_high_water", J.Int (Outbox.high_water s.s_outbox));
        ("watches", J.List watch_ids);
      ]
  in
  [
    ("proto", J.Int Wire.proto_version);
    ("uptime_s", J.Float (now -. t.started_at));
    ("requests", J.Int (Metrics.counter_value m_requests));
    ("errors", J.Int (Metrics.counter_value m_errors));
    ("alerts_sent", J.Int (Metrics.counter_value m_alerts_sent));
    ("alerts_dropped", J.Int (Metrics.counter_value m_alerts_dropped));
    ("watches", J.Int (watch_count t));
    ("query_seconds", hist_json h_query);
    ("alert_e2e", hist_json (Metrics.histogram "monitor.alert_e2e"));
    ( "executor",
      J.Obj
        [
          ("workers", J.Int (Executor.size t.exec));
          ("queue_depth", J.Int (Executor.queue_depth t.exec));
          ("queue_wait", hist_json (Metrics.histogram "executor.queue_seconds"));
        ] );
    ( "rwlock",
      J.Obj
        [
          ("readers", J.Int (Rwlock.readers t.rw));
          ("writer_active", J.Bool (Rwlock.writer_active t.rw));
          ("waiters", J.Int (Rwlock.waiters t.rw));
          ("read_wait", hist_json (Metrics.histogram "rwlock.read_wait_seconds"));
          ( "write_wait",
            hist_json (Metrics.histogram "rwlock.write_wait_seconds") );
        ] );
    ( "event_log",
      J.Obj
        [
          ("enabled", J.Bool (J.enabled ()));
          ("suppressed", J.Int (J.suppressed ()));
        ] );
    ( "cdc",
      J.Obj
        [
          ( "published",
            J.Int (Metrics.counter_value (Metrics.counter "store.cdc_published"))
          );
          ( "dropped",
            J.Int (Metrics.counter_value (Metrics.counter "store.cdc_dropped"))
          );
          ( "monitor_dropped",
            J.Int (Metrics.counter_value (Metrics.counter "monitor.cdc_dropped"))
          );
        ] );
    ("sessions", J.List (List.map session_json sessions));
  ]

let handle_query t s ~id ~trace q =
  let t0 = Unix.gettimeofday () in
  let outcome =
    Executor.run t.exec (fun () ->
        Rwlock.read t.rw (fun () -> s.s_runner ~trace q))
  in
  Metrics.observe h_query (Unix.gettimeofday () -. t0);
  match outcome with
  | Ok (Ok r) ->
      push s
        (Wire.query_result ?trace:r.qr_trace ~id ~count:r.qr_count
           ~text:r.qr_text ())
  | Ok (Error e) ->
      Metrics.incr m_errors;
      push s (Wire.error_frame ~id e)
  | Error exn ->
      Metrics.incr m_errors;
      push s (Wire.error_frame ~id ("internal error: " ^ Printexc.to_string exn))

let handle_watch t s ~id q =
  let res =
    with_lock t.mon_lock (fun () ->
        Rwlock.read t.rw (fun () -> Monitor.watch t.mon q))
  in
  match res with
  | Ok w ->
      let wid = Monitor.watch_id w in
      s.s_watches <- (wid, w) :: s.s_watches;
      with_lock t.lock (fun () -> Hashtbl.replace t.watch_routes wid s);
      let total = List.length (Monitor.watch_fingerprints w) in
      push s (Wire.watch_ack ~id ~watch:wid ~total)
  | Error e ->
      Metrics.incr m_errors;
      push s (Wire.error_frame ~id e)

let handle_unwatch t s ~id wid =
  match List.assoc_opt wid s.s_watches with
  | Some w ->
      with_lock t.mon_lock (fun () -> Monitor.unwatch t.mon w);
      s.s_watches <- List.remove_assoc wid s.s_watches;
      with_lock t.lock (fun () -> Hashtbl.remove t.watch_routes wid);
      push s (Wire.unwatch_ack ~id ~existed:true)
  | None -> push s (Wire.unwatch_ack ~id ~existed:false)

let handle_line t s line =
  match Wire.parse_request line with
  | Error (id, msg) ->
      Metrics.incr m_errors;
      push s (Wire.error_frame ~id msg)
  | Ok (id, req) -> (
      Metrics.incr m_requests;
      ignore (Atomic.fetch_and_add s.s_requests 1);
      match req with
      | Wire.Ping -> push s (Wire.pong ~id)
      | Wire.Stats -> push s (Wire.stats_frame ~id (stats_fields t s))
      | Wire.Introspect ->
          push s (Wire.introspect_frame ~id (introspect_fields t))
      | Wire.Query { q; trace } -> handle_query t s ~id ~trace q
      | Wire.Watch q -> handle_watch t s ~id q
      | Wire.Unwatch wid -> handle_unwatch t s ~id wid)

(* -- session threads --------------------------------------------------- *)

(* Sole writer to the fd: drains the outbox until closed-and-empty. A
   write failure (EPIPE: peer went away mid-stream) closes the outbox
   so producers stop queueing, and shuts the socket down so the reader
   sees EOF promptly. *)
let writer_loop s =
  let rec go () =
    match Outbox.pop s.s_outbox with
    | None -> ()
    | Some frame -> (
        match Net.write_all s.s_fd frame with
        | () -> go ()
        | exception Unix.Unix_error (_, _, _) ->
            Outbox.close s.s_outbox;
            Net.shutdown_noerr s.s_fd)
  in
  go ()

let session_cleanup t s writer =
  with_lock t.mon_lock (fun () ->
      List.iter
        (fun (_, w) ->
          try Monitor.unwatch t.mon w
          with exn -> note_error ~kind:"session.unwatch_error" exn)
        s.s_watches);
  with_lock t.lock (fun () ->
      List.iter (fun (wid, _) -> Hashtbl.remove t.watch_routes wid) s.s_watches;
      Hashtbl.remove t.sessions s.s_id);
  s.s_watches <- [];
  Outbox.close s.s_outbox;
  Thread.join writer;
  Net.shutdown_noerr s.s_fd;
  Net.close_noerr s.s_fd

let session_loop t s =
  let writer = Thread.create writer_loop s in
  push s (Wire.hello ());
  let continue = ref true in
  while !continue do
    match Net.read_line s.s_lr with
    | Net.Eof -> continue := false
    | Net.Timeout ->
        (* idle tick: just check for shutdown (server stop, writer death) *)
        if (not (Atomic.get t.running)) || Outbox.is_closed s.s_outbox
        then continue := false
    | Net.Too_long bytes ->
        Metrics.incr m_errors;
        push s
          (Wire.error_frame ~id:J.Null
             (Printf.sprintf "frame too long: %d bytes (max %d)" bytes
                t.cfg.max_line_bytes))
    | Net.Line "" -> ()  (* blank keep-alive line *)
    | Net.Line line -> (
        try handle_line t s line
        with exn ->
          Metrics.incr m_errors;
          push s
            (Wire.error_frame ~id:J.Null
               ("internal error: " ^ Printexc.to_string exn)))
  done;
  session_cleanup t s writer

(* -- listener ----------------------------------------------------------- *)

let listener_loop t =
  while Atomic.get t.running do
    match Net.accept_tick t.listen_fd ~tick_s:0.2 with
    | None -> ()
    | Some (fd, _peer) -> (
        Net.set_recv_timeout fd t.cfg.recv_timeout_s;
        let admitted =
          with_lock t.lock (fun () ->
              if
                (not (Atomic.get t.running))
                || Hashtbl.length t.sessions >= t.cfg.max_sessions
              then None
              else begin
                let id = t.next_session in
                t.next_session <- id + 1;
                Some id
              end)
        in
        match admitted with
        | None ->
            Metrics.incr m_rejected;
            (try
               Net.write_all fd
                 (Wire.error_frame ~id:J.Null "server at max sessions")
             with Unix.Unix_error _ -> ());
            Net.close_noerr fd
        | Some id ->
            let s =
              {
                s_id = id;
                s_fd = fd;
                s_outbox = Outbox.create ~capacity:t.cfg.outbox_capacity;
                s_lr = Net.line_reader ~max_line:t.cfg.max_line_bytes fd;
                s_runner = new_runner t.store;
                s_started = Unix.gettimeofday ();
                s_requests = Atomic.make 0;
                s_alerts_sent = Atomic.make 0;
                s_watches = [];
              }
            in
            Metrics.incr m_sessions_total;
            let th = Thread.create (fun () -> session_loop t s) () in
            with_lock t.lock (fun () -> Hashtbl.replace t.sessions id (s, th)))
  done

(* -- monitor pump ------------------------------------------------------- *)

let route_alert t alert =
  let open Monitor in
  match
    with_lock t.lock (fun () -> Hashtbl.find_opt t.watch_routes alert.al_watch)
  with
  | None -> ()  (* watch unregistered between poll and routing *)
  | Some s ->
      (* latency_ms is publish -> frame build (routing); the outbox
         observes the remaining enqueue -> flush leg into
         monitor.alert_e2e via the origin stamp. *)
      let latency_ms =
        Option.map
          (fun wall -> (Unix.gettimeofday () -. wall) *. 1000.)
          alert.al_origin_wall
      in
      let frame =
        Wire.alert ?latency_ms ~watch:alert.al_watch
          ~kind:(alert_kind_string alert.al_kind)
          ~added:alert.al_added ~removed:alert.al_removed
          ~total:alert.al_total
          ~at:(Nepal_temporal.Time_point.to_string alert.al_at)
          ~wall_ms:(alert.al_wall_s *. 1000.)
          ~dropped:(Outbox.dropped s.s_outbox) ()
      in
      if Outbox.push_droppable ?origin:alert.al_origin_wall s.s_outbox frame
      then begin
        Metrics.incr m_alerts_sent;
        ignore (Atomic.fetch_and_add s.s_alerts_sent 1)
      end
      else Metrics.incr m_alerts_dropped

let pump_loop t =
  while Atomic.get t.running do
    Thread.delay t.cfg.pump_interval_s;
    if Atomic.get t.running then begin
      let alerts =
        with_lock t.mon_lock (fun () ->
            Rwlock.read t.rw (fun () ->
                try Monitor.poll t.mon
                with exn ->
                  note_error ~kind:"monitor.poll_error" exn;
                  []))
      in
      List.iter (route_alert t) alerts
    end
  done

(* -- lifecycle ---------------------------------------------------------- *)

let start ?(config = default_config) store =
  match
    Net.listen_tcp ~backlog:128 ~addr:config.addr ~port:config.port ()
  with
  | Error e -> Error e
  | Ok (listen_fd, bound_port) ->
      let t =
        {
          cfg = config;
          store;
          rw = Rwlock.create ();
          exec = Executor.create ?domains:config.workers ();
          mon = Monitor.create ?debounce_ms:config.debounce_ms store;
          mon_lock = Mutex.create ();
          listen_fd;
          bound_port;
          started_at = Unix.gettimeofday ();
          lock = Mutex.create ();
          sessions = Hashtbl.create 16;
          watch_routes = Hashtbl.create 16;
          next_session = 1;
          running = Atomic.make true;
          listener = None;
          pump = None;
        }
      in
      Metrics.register_gauge "server.sessions" (fun () ->
          float_of_int (Hashtbl.length t.sessions));
      Metrics.register_gauge "executor.queue_depth" (fun () ->
          float_of_int (Executor.queue_depth t.exec));
      t.listener <- Some (Thread.create (fun () -> listener_loop t) ());
      t.pump <- Some (Thread.create (fun () -> pump_loop t) ());
      Ok t

let wait t = match t.listener with Some th -> Thread.join th | None -> ()

let stop t =
  let was_running = Atomic.exchange t.running false in
  if was_running then begin
    (* listener notices the flag within one accept tick *)
    (match t.listener with Some th -> Thread.join th | None -> ());
    Net.close_noerr t.listen_fd;
    (* wake every session: close outboxes (writers drain and exit) and
       shut sockets down (readers see EOF instead of a timeout tick) *)
    let live = with_lock t.lock (fun () ->
        Hashtbl.fold (fun _ st acc -> st :: acc) t.sessions [])
    in
    List.iter
      (fun (s, _) ->
        Outbox.close s.s_outbox;
        Net.shutdown_noerr s.s_fd)
      live;
    List.iter (fun (_, th) -> Thread.join th) live;
    (match t.pump with Some th -> Thread.join th | None -> ());
    with_lock t.mon_lock (fun () -> Monitor.close t.mon);
    Executor.shutdown t.exec
  end
