(* Blocking JSONL client: one socket, one outstanding request at a
   time (serialized by an internal lock). Unsolicited frames — the
   hello greeting, streamed watch alerts — can arrive interleaved with
   a response, so the read path stashes anything with an ["event"]
   field and keeps reading until the response shows up; [next_event]
   drains the stash first and then reads from the socket under a
   deadline. This is the client the CLI, the bench driver, and the
   integration tests all share. *)

module J = Nepal_util.Event_log
module Jsonp = Nepal_util.Jsonp

type t = {
  fd : Unix.file_descr;
  lr : Net.line_reader;
  lock : Mutex.t;  (* serializes request/response exchanges *)
  events : Jsonp.t Queue.t;  (* unsolicited frames, oldest first *)
  mutable next_id : int [@guarded_by "lock"];
  closed : bool Atomic.t;  (* close() may race an in-flight exchange *)
}

let connect ?(addr = Unix.inet_addr_loopback) ?(port = 9642)
    ?(recv_timeout_s = 0.25) () =
  Net.init ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
  | () ->
      Net.set_recv_timeout fd recv_timeout_s;
      Ok
        {
          fd;
          lr = Net.line_reader fd;
          lock = Mutex.create ();
          events = Queue.create ();
          next_id = 1;
          closed = Atomic.make false;
        }
  | exception Unix.Unix_error (err, fn, _) ->
      Net.close_noerr fd;
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

let close t =
  if not (Atomic.exchange t.closed true) then begin
    Net.shutdown_noerr t.fd;
    Net.close_noerr t.fd
  end

let fd t = t.fd

(* Read one frame, classifying events vs responses. [deadline] bounds
   the wait ([None] = wait until the peer answers or disconnects; the
   receive-timeout ticks just loop). *)
let rec read_frame t ~deadline =
  if Atomic.get t.closed then Error "client closed"
  else
    match Net.read_line t.lr with
    | Net.Eof -> Error "connection closed by server"
    | Net.Too_long n -> Error (Printf.sprintf "oversized frame from server (%d bytes)" n)
    | Net.Timeout -> (
        match deadline with
        | Some d when Unix.gettimeofday () >= d -> Ok None
        | _ -> read_frame t ~deadline)
    | Net.Line "" -> read_frame t ~deadline
    | Net.Line line -> (
        match Jsonp.parse line with
        | Error e -> Error ("bad frame from server: " ^ e)
        | Ok json -> Ok (Some json))

(* Run one request/response exchange. Events arriving before the
   response are stashed for [next_event]. *)
let request t fields =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let frame = Wire.line (J.Obj (("id", J.Int id) :: fields)) in
      match Net.write_all t.fd frame with
      | exception Unix.Unix_error (err, _, _) ->
          Error ("send failed: " ^ Unix.error_message err)
      | () ->
          let rec await () =
            match read_frame t ~deadline:None with
            | Error _ as e -> e
            | Ok None -> await ()
            | Ok (Some json) -> (
                match Jsonp.member "event" json with
                | Some _ ->
                    Queue.push json t.events;
                    await ()
                | None -> (
                    match Jsonp.int_field "id" json with
                    | Some got when got = id -> Ok json
                    | _ -> Error "response id mismatch"))
          in
          await ())

let expect_ok json =
  match Jsonp.bool_field "ok" json with
  | Some true -> Ok json
  | _ -> (
      match Jsonp.string_field "error" json with
      | Some e -> Error e
      | None -> Error "malformed response (no ok/error)")

let ( let* ) = Result.bind

let ping t =
  let* reply = request t [ ("op", J.Str "ping") ] in
  let* _ = expect_ok reply in
  Ok ()

let run_query t ~trace text =
  let fields =
    [ ("op", J.Str "query"); ("q", J.Str text) ]
    @ if trace then [ ("trace", J.Bool true) ] else []
  in
  let* reply = request t fields in
  let* reply = expect_ok reply in
  match (Jsonp.int_field "count" reply, Jsonp.string_field "text" reply) with
  | Some count, Some text ->
      Ok
        {
          Server.qr_count = count;
          qr_text = text;
          qr_trace = Jsonp.member "trace" reply;
        }
  | _ -> Error "malformed result frame"

let query t text = run_query t ~trace:false text
let query_traced t text = run_query t ~trace:true text

let watch t text =
  let* reply = request t [ ("op", J.Str "watch"); ("q", J.Str text) ] in
  let* reply = expect_ok reply in
  match Jsonp.int_field "watch" reply with
  | Some w -> Ok w
  | None -> Error "malformed watch ack"

let unwatch t w =
  let* reply = request t [ ("op", J.Str "unwatch"); ("watch", J.Int w) ] in
  let* reply = expect_ok reply in
  match Jsonp.bool_field "existed" reply with
  | Some existed -> Ok existed
  | None -> Error "malformed unwatch ack"

let stats t =
  let* reply = request t [ ("op", J.Str "stats") ] in
  expect_ok reply

let introspect t =
  let* reply = request t [ ("op", J.Str "introspect") ] in
  expect_ok reply

let next_event ?(timeout_s = 1.0) t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Queue.take_opt t.events with
      | Some e -> Some e
      | None -> (
          let deadline = Some (Unix.gettimeofday () +. timeout_s) in
          let rec go () =
            match read_frame t ~deadline with
            | Error _ | Ok None -> None
            | Ok (Some json) -> (
                match Jsonp.member "event" json with
                | Some _ -> Some json
                | None ->
                    (* a stray response with no request outstanding:
                       drop it and keep waiting for an event *)
                    go ())
          in
          go ()))
