(* The JSONL wire server: protocol parsing, the bounded outbox's drop
   discipline, byte-identical wire vs in-process results under
   concurrent clients, hardening against malformed frames / oversized
   lines / idle peers / mid-stream disconnects (SIGPIPE), session
   limits, and streamed watch alerts driven through the server's write
   lock. Plus the metrics exporter's idle-connection regression. *)

module Nepal = Core.Nepal
module Store = Nepal.Graph_store
module Server = Nepal.Server
module Client = Nepal.Server_client
module Wire = Nepal.Wire
module Json = Nepal_util.Jsonp
module Outbox = Nepal_server.Outbox
module Net = Nepal_server.Net
module J = Nepal.Event_log

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let tp = Nepal.Time_point.of_string_exn
let t0 = tp "2017-03-01 00:00:00"

let model =
  {|
node_types:
  App:
    properties:
      id: int
      tier: string
  Box:
    properties:
      id: int
      region: string
edge_types:
  RunsOn: {}
  Link: {}
|}

let fields l = Nepal.Strmap.of_list l
let i n = Nepal.Value.Int n
let s x = Nepal.Value.Str x

let new_store () = Store.create (Nepal.Tosca.parse_exn model)

(* app(id=1) -> box(id=10) -Link-> box(id=20) *)
let build_small store =
  let node cls fs = ok (Store.insert_node store ~at:t0 ~cls ~fields:(fields fs)) in
  let edge cls src dst =
    ok (Store.insert_edge store ~at:t0 ~cls ~src ~dst ~fields:Nepal.Strmap.empty)
  in
  let app = node "App" [ ("id", i 1); ("tier", s "web") ] in
  let box1 = node "Box" [ ("id", i 10); ("region", s "east") ] in
  let box2 = node "Box" [ ("id", i 20); ("region", s "west") ] in
  let runs = edge "RunsOn" app box1 in
  let link = edge "Link" box1 box2 in
  (app, box1, box2, runs, link)

(* In-process evaluation on a fresh native connection, rendered the way
   the server renders a reply: wire text must match it byte for byte. *)
let in_process store text =
  Result.map
    (fun r -> (Nepal.Engine.result_count r, Nepal.Engine.result_to_string r))
    (Nepal.query_on (Nepal.native_conn store) text)

let test_config =
  {
    Server.default_config with
    port = 0;
    pump_interval_s = 0.005;
    debounce_ms = Some 0.;
    recv_timeout_s = 0.05;
  }

let with_server ?(config = test_config) ?build f =
  let store = new_store () in
  let built =
    match build with
    | Some b -> b store
    | None ->
        ignore (build_small store);
        ()
  in
  ignore built;
  let server =
    ok (Server.start ~config store)
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f store server)

let with_client server f =
  let c = ok (Client.connect ~port:(Server.port server) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let q_app_box = "Retrieve P From PATHS P Where P MATCHES App()->Box()"
let q_box_box = "Retrieve P From PATHS P Where P MATCHES Box()->[Link()]->Box()"
let q_two_hop =
  "Retrieve P From PATHS P Where P MATCHES \
   App()->[RunsOn()|Link()]{1,3}->Box(id=20)"

(* Wait (bounded) for a predicate that another thread flips. *)
let eventually ?(timeout_s = 5.) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ---- wire protocol units -------------------------------------------- *)

let test_wire_parse () =
  (match Wire.parse_request {|{"op":"ping","id":7}|} with
  | Ok (J.Int 7, Wire.Ping) -> ()
  | _ -> Alcotest.fail "ping parse");
  (match Wire.parse_request {|{"op":"query","id":"q-1","q":"Retrieve"}|} with
  | Ok (J.Str "q-1", Wire.Query { q = "Retrieve"; trace = false }) -> ()
  | _ -> Alcotest.fail "query parse with string id");
  (match
     Wire.parse_request {|{"op":"query","id":2,"q":"Retrieve","trace":true}|}
   with
  | Ok (J.Int 2, Wire.Query { q = "Retrieve"; trace = true }) -> ()
  | _ -> Alcotest.fail "query parse with trace flag");
  (match Wire.parse_request {|{"op":"introspect","id":5}|} with
  | Ok (J.Int 5, Wire.Introspect) -> ()
  | _ -> Alcotest.fail "introspect parse");
  (match Wire.parse_request {|{"op":"unwatch","watch":3}|} with
  | Ok (J.Null, Wire.Unwatch 3) -> ()
  | _ -> Alcotest.fail "unwatch parse, absent id");
  (match Wire.parse_request "not json" with
  | Error (J.Null, _) -> ()
  | _ -> Alcotest.fail "garbage must fail");
  (match Wire.parse_request {|{"op":"query","id":9}|} with
  | Error (J.Int 9, _) -> ()
  | _ -> Alcotest.fail "query without q must fail, keeping the id");
  (match Wire.parse_request {|{"op":"flush","id":1}|} with
  | Error (J.Int 1, _) -> ()
  | _ -> Alcotest.fail "unknown op must fail, keeping the id")

let test_json_roundtrip () =
  let cases =
    [
      {|{"a":1,"b":[true,false,null],"c":"x\ny"}|};
      {|{"nested":{"deep":{"n":-12,"f":1.5}}}|};
      {|"plain Aé 😀 string"|};
      {|[]|};
    ]
  in
  List.iter
    (fun text ->
      let v = ok (Json.parse text) in
      let v2 = ok (Json.parse (Json.to_string v)) in
      check_string "reparse stable" (Json.to_string v) (Json.to_string v2))
    cases;
  (match Json.parse "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must fail");
  match Json.parse "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated must fail"

(* What a string survives the wire as: every byte of an ill-formed
   UTF-8 subsequence becomes U+FFFD, everything else is unchanged.
   Decoded with the standard library's UTF-8 decoder, independently of
   the renderer's own validator. *)
let sanitized s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      let n = Uchar.utf_decode_length d in
      if Uchar.utf_decode_is_valid d then Buffer.add_substring b s i n
      else for _ = 1 to n do Buffer.add_utf_8_uchar b Uchar.rep done;
      go (i + n)
    end
  in
  go 0;
  Buffer.contents b

(* Long runs of plain ASCII between bytes that need escaping,
   multi-byte characters and ill-formed UTF-8. *)
let gen_plain_run =
  QCheck.Gen.(
    string_size
      ~gen:(map Char.chr (int_range 0x20 0x7e) |> map (function '"' | '\\' -> 'q' | c -> c))
      (int_range 0 3000))

let gen_wire_string =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, gen_plain_run);
        (2, oneofl [ "\""; "\\"; "\n"; "\r\n"; "\t"; "\000"; "\x1f"; "\x7f"; "/" ]);
        (2, oneofl [ "é"; "€"; "😀"; "中文" ]);
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0x80 0xff));
        (1, oneofl [ "\xed\xa0\x80"; "\xf0\x90\x80"; "\xe0\x80\x80"; "\xc0\xaf"; "\xe2\x82" ]);
      ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"parse (render (Str s)) = Str (sanitized s)" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen_wire_string)
    (fun s ->
      match Json.parse (J.json_to_string (J.Str s)) with
      | Ok (J.Str got) when String.equal got (sanitized s) -> true
      | Ok _ -> QCheck.Test.fail_reportf "decoded to something else"
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* A raw control character stops a long string body at its own offset,
   on the escape-free fast path and after escapes alike. *)
let prop_control_char_rejected =
  let open QCheck.Gen in
  let gen =
    quad (oneofl [ ""; {|{"text":|} ]) gen_plain_run
      (oneofl [ ""; {|\n|}; {|é|}; {|\"|} ])
      (pair (int_range 0 0x1f) gen_plain_run)
  in
  QCheck.Test.make ~name:"raw control character rejected at its offset" ~count:200
    (QCheck.make gen) (fun (prefix, run, escape, (ctrl, rest)) ->
      let head = prefix ^ "\"" ^ run ^ escape ^ run in
      let text = head ^ String.make 1 (Char.chr ctrl) ^ rest ^ "\"" in
      let expected =
        Printf.sprintf "json: at offset %d: unescaped control character in string"
          (String.length head)
      in
      match Json.parse text with
      | Error e when String.equal e expected -> true
      | Error e -> QCheck.Test.fail_reportf "got %S, want %S" e expected
      | Ok _ -> QCheck.Test.fail_reportf "accepted a raw control character")

(* ---- bounded line reader -------------------------------------------- *)

(* A line reader over one end of a socket pair; a second thread writes
   [pieces] to the other end, one write each, then closes it. *)
let with_peer ?max_line pieces f =
  Net.init ();
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        (try List.iter (Net.write_all w) pieces with Unix.Unix_error _ -> ());
        Net.close_noerr w)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Net.close_noerr r;
      Thread.join writer)
    (fun () -> f (Net.line_reader ?max_line r))

let show_outcome = function
  | Net.Line l when String.length l > 40 -> Printf.sprintf "Line <%d bytes>" (String.length l)
  | Net.Line l -> Printf.sprintf "Line %S" l
  | Net.Too_long n -> Printf.sprintf "Too_long %d" n
  | Net.Timeout -> "Timeout"
  | Net.Eof -> "Eof"

let expect_reads lr expected =
  List.iter (fun e -> check_string "read_line" e (show_outcome (Net.read_line lr))) expected

let pieces_of ~size s =
  let n = String.length s in
  List.init ((n + size - 1) / size) (fun k -> String.sub s (k * size) (min size (n - (k * size))))

let big_line n = String.init n (fun k -> Char.chr (Char.code 'a' + (k mod 26)))

let test_reader_big_line_in_pieces () =
  let payload = big_line 600_000 in
  with_peer (pieces_of ~size:777 (payload ^ "\ntail\n")) (fun lr ->
      (match Net.read_line lr with
      | Net.Line l -> check_bool "600 KB line intact" true (String.equal l payload)
      | o -> Alcotest.failf "expected the long line, got %s" (show_outcome o));
      expect_reads lr [ {|Line "tail"|}; "Eof" ])

let test_reader_lines_in_one_read () =
  with_peer [ "a\nbb\n\nccc\n" ] (fun lr ->
      expect_reads lr [ {|Line "a"|}; {|Line "bb"|}; {|Line ""|}; {|Line "ccc"|}; "Eof" ])

let test_reader_crlf () =
  with_peer [ "one\r"; "\ntwo\r\n\r"; "\nthree\n" ] (fun lr ->
      expect_reads lr [ {|Line "one"|}; {|Line "two"|}; {|Line ""|}; {|Line "three"|}; "Eof" ])

let test_reader_oversize_resync () =
  let long = String.make 5000 'x' ^ "\n" in
  with_peer ~max_line:100
    (pieces_of ~size:333 long @ [ String.make 100 'y' ^ "\n"; "ok\n" ])
    (fun lr ->
      expect_reads lr
        [ "Too_long 5001"; "Line <100 bytes>"; {|Line "ok"|}; "Eof" ])

let test_reader_unterminated_last_line () =
  with_peer [ "first\nla"; "st" ] (fun lr ->
      expect_reads lr [ {|Line "first"|}; {|Line "last"|}; "Eof"; "Eof" ])

(* Reading an N-byte line costs O(N) allocation: the buffer's doublings
   plus the one copy handed back, well under one word per byte (a
   reader that recopies its pending bytes after every 4 KB read
   allocates tens of words per byte here). *)
let test_reader_allocation_linear () =
  let n = 600_000 in
  let payload = big_line n in
  let path = Filename.temp_file "nepal_line" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (payload ^ "\n"));
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove path)
    (fun () ->
      let lr = Net.line_reader fd in
      (* Gc.quick_stat is only refreshed by collections; these two
         count every word, minor and direct-to-major alike *)
      let words () =
        let _, promoted, major = Gc.counters () in
        Gc.minor_words () +. major -. promoted
      in
      let w0 = words () in
      let got = Net.read_line lr in
      let used = words () -. w0 in
      (match got with
      | Net.Line l -> check_bool "line intact" true (String.equal l payload)
      | o -> Alcotest.failf "expected the line, got %s" (show_outcome o));
      if used > float_of_int n then
        Alcotest.failf "reading %d bytes allocated %.0f words (bound %d)" n used n)

(* ---- outbox drop discipline ----------------------------------------- *)

let test_outbox_drops () =
  let ob = Outbox.create ~capacity:2 in
  check_bool "droppable 1" true (Outbox.push_droppable ob "a1");
  check_bool "droppable 2" true (Outbox.push_droppable ob "a2");
  check_bool "droppable over capacity refused" false
    (Outbox.push_droppable ob "a3");
  check_int "dropped counted" 1 (Outbox.dropped ob);
  (* must-deliver ignores the capacity *)
  check_bool "must-deliver over capacity" true (Outbox.push ob "r1");
  check_int "length" 3 (Outbox.length ob);
  check_int "high water tracks peak occupancy" 3 (Outbox.high_water ob);
  check_string "fifo 1" "a1" (Option.get (Outbox.pop ob));
  check_string "fifo 2" "a2" (Option.get (Outbox.pop ob));
  check_string "fifo 3" "r1" (Option.get (Outbox.pop ob));
  (* close drains then yields None; pushes after close are refused *)
  check_bool "push before close" true (Outbox.push ob "last");
  Outbox.close ob;
  check_string "drained after close" "last" (Option.get (Outbox.pop ob));
  check_bool "pop after drain" true (Outbox.pop ob = None);
  check_bool "push after close" false (Outbox.push ob "x");
  check_bool "droppable after close" false (Outbox.push_droppable ob "x");
  check_int "close-refusal not counted as drop" 1 (Outbox.dropped ob);
  check_int "high water survives the drain" 3 (Outbox.high_water ob)

let test_outbox_blocking_pop () =
  let ob = Outbox.create ~capacity:4 in
  let got = ref None in
  let th = Thread.create (fun () -> got := Outbox.pop ob) () in
  Thread.delay 0.05;
  check_bool "push wakes popper" true (Outbox.push ob "wake");
  Thread.join th;
  check_string "popped" "wake" (Option.get !got)

(* ---- round-trips and byte-identical results ------------------------- *)

let test_roundtrip_identical () =
  with_server (fun store server ->
      with_client server (fun c ->
          ok (Client.ping c);
          (* the greeting is an event frame *)
          (match Client.next_event ~timeout_s:1. c with
          | Some ev ->
              check_string "hello" "hello"
                (Option.value ~default:"?" (Json.string_field "event" ev))
          | None -> Alcotest.fail "no hello greeting");
          List.iter
            (fun q ->
              let wire = ok (Client.query c q) in
              let count, text = ok (in_process store q) in
              check_string "wire text = in-process text" text
                wire.Server.qr_text;
              check_int "wire count = in-process count" count
                wire.Server.qr_count)
            [ q_app_box; q_box_box; q_two_hop ];
          (* a bad query comes back as an error, session keeps serving *)
          (match Client.query c "Retrieve nonsense" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "bad query must error");
          let stats = ok (Client.stats c) in
          check_bool "stats has sessions" true
            (Json.int_field "sessions" stats = Some 1)))

(* An engine error crosses the wire exactly as [Nepal.query_on]
   returns it: the message plus the analyzer's findings with their
   caret snippets. *)
let test_error_identical () =
  with_server (fun store server ->
      with_client server (fun c ->
          let q = "Retrieve P From PATHS P Where P MATCHES NoSuchClass()" in
          let local =
            match in_process store q with
            | Ok _ -> Alcotest.fail "unknown class must error"
            | Error e -> e
          in
          check_bool "in-process error carries a diagnostic" true
            (List.length (String.split_on_char '\n' local) > 1);
          match Client.query c q with
          | Ok _ -> Alcotest.fail "unknown class must error over the wire"
          | Error e -> check_string "wire error = in-process error" local e))

let test_concurrent_clients () =
  with_server (fun store server ->
      let expected =
        List.map (fun q -> (q, ok (in_process store q))) [ q_app_box; q_box_box; q_two_hop ]
      in
      let n = 4 and per_client = 6 in
      let failures = Array.make n "" in
      let worker i =
        match Client.connect ~port:(Server.port server) () with
        | Error e -> failures.(i) <- "connect: " ^ e
        | Ok c ->
            (try
               for round = 0 to per_client - 1 do
                 let q, (want_count, want_text) =
                   List.nth expected ((i + round) mod List.length expected)
                 in
                 match Client.query c q with
                 | Error e -> failures.(i) <- q ^ ": " ^ e
                 | Ok got ->
                     if got.Server.qr_text <> want_text then
                       failures.(i) <- q ^ ": text mismatch"
                     else if got.Server.qr_count <> want_count then
                       failures.(i) <- q ^ ": count mismatch"
               done
             with exn -> failures.(i) <- Printexc.to_string exn);
            Client.close c
      in
      let threads = List.init n (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i f -> if f <> "" then Alcotest.failf "client %d: %s" i f)
        failures;
      check_bool "sessions drain after close" true
        (eventually (fun () -> Server.session_count server = 0)))

(* ---- hardening ------------------------------------------------------- *)

(* A raw peer speaking bytes, for scenarios the well-behaved client
   cannot produce. *)
let raw_connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  Net.set_recv_timeout fd 2.0;
  fd

let raw_read_frame lr =
  let rec go tries =
    if tries = 0 then Alcotest.fail "no frame from server"
    else
      match Net.read_line lr with
      | Net.Line l -> ok (Json.parse l)
      | Net.Timeout -> go (tries - 1)
      | Net.Eof -> Alcotest.fail "unexpected EOF from server"
      | Net.Too_long _ -> Alcotest.fail "oversized frame from server"
  in
  go 5

let test_malformed_and_oversized () =
  let config = { test_config with max_line_bytes = 4096 } in
  with_server ~config (fun _store server ->
      let fd = raw_connect server in
      Fun.protect ~finally:(fun () -> Net.close_noerr fd)
        (fun () ->
          let lr = Net.line_reader fd in
          let hello = raw_read_frame lr in
          check_bool "hello first" true
            (Json.string_field "event" hello = Some "hello");
          (* malformed frame -> error response, session stays up *)
          Net.write_all fd "this is not json\n";
          let err = raw_read_frame lr in
          check_bool "malformed rejected" true
            (Json.bool_field "ok" err = Some false);
          (* oversized line -> discarded whole, error names the bound *)
          Net.write_all fd (String.make 5000 'x');
          Net.write_all fd "\n";
          let err2 = raw_read_frame lr in
          check_bool "oversized rejected" true
            (Json.bool_field "ok" err2 = Some false);
          let msg = Option.value ~default:"" (Json.string_field "error" err2) in
          check_bool "mentions frame too long" true
            (String.length msg >= 14 && String.sub msg 0 14 = "frame too long");
          (* the same session still answers after both abuses *)
          Net.write_all fd "{\"op\":\"ping\",\"id\":1}\n";
          let pong = raw_read_frame lr in
          check_bool "pong after abuse" true
            (Json.bool_field "ok" pong = Some true));
      (* and the server still accepts fresh sessions *)
      with_client server (fun c -> ok (Client.ping c)))

let test_idle_client_does_not_wedge () =
  with_server (fun _store server ->
      (* a peer that connects and never sends a byte... *)
      let idle = raw_connect server in
      Fun.protect ~finally:(fun () -> Net.close_noerr idle)
        (fun () ->
          Thread.delay 0.05;
          (* ...must not stop other sessions from being served *)
          with_client server (fun c ->
              ok (Client.ping c);
              ignore (ok (Client.query c q_app_box)))))

let test_mid_stream_disconnect_sigpipe () =
  with_server (fun _store server ->
      (* pipeline queries, then vanish with an RST before reading any
         response: the server's writer hits a dead socket mid-stream and
         must survive (SIGPIPE ignored, EPIPE handled). *)
      let fd = raw_connect server in
      Net.write_all fd
        (String.concat ""
           (List.init 20 (fun i ->
                Printf.sprintf
                  "{\"op\":\"query\",\"id\":%d,\"q\":\"Retrieve P From PATHS \
                   P Where P MATCHES App()->Box()\"}\n"
                  i)));
      (* SO_LINGER 0: close sends RST, so pending server writes fail hard *)
      (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
       with Unix.Unix_error _ -> ());
      Unix.close fd;
      Thread.delay 0.2;
      (* the process is alive and the server still serves *)
      with_client server (fun c ->
          ok (Client.ping c);
          ignore (ok (Client.query c q_app_box)));
      check_bool "sessions drained" true
        (eventually (fun () -> Server.session_count server = 0)))

let test_max_sessions () =
  let config = { test_config with max_sessions = 1 } in
  with_server ~config (fun _store server ->
      with_client server (fun c ->
          ok (Client.ping c);
          (* the second connection is refused with an error frame *)
          let fd = raw_connect server in
          Fun.protect ~finally:(fun () -> Net.close_noerr fd)
            (fun () ->
              let lr = Net.line_reader fd in
              let frame = raw_read_frame lr in
              check_bool "refused" true
                (Json.bool_field "ok" frame = Some false)));
      (* after the first session closes, a new one is admitted *)
      check_bool "slot freed" true
        (eventually (fun () -> Server.session_count server = 0));
      with_client server (fun c -> ok (Client.ping c)))

(* ---- watches over the wire ------------------------------------------ *)

let test_watch_alert_flow () =
  let nodes = ref None in
  let build store =
    let node cls fs =
      ok (Store.insert_node store ~at:t0 ~cls ~fields:(fields fs))
    in
    let app = node "App" [ ("id", i 1); ("tier", s "web") ] in
    let box = node "Box" [ ("id", i 10); ("region", s "east") ] in
    nodes := Some (app, box)
  in
  with_server ~build (fun _store server ->
      let app, box = Option.get !nodes in
      (* skip non-alert events (the hello greeting precedes any alert) *)
      let next_alert c =
        let rec go tries =
          if tries = 0 then None
          else
            match Client.next_event ~timeout_s:5. c with
            | None -> None
            | Some ev when Json.string_field "event" ev = Some "alert" ->
                Some ev
            | Some _ -> go (tries - 1)
        in
        go 5
      in
      with_client server (fun c ->
          let w = ok (Client.watch c q_app_box) in
          (* baseline is empty: no edge yet, and no alert for the baseline *)
          check_int "one watch" 1 (Server.watch_count server);
          (* mutate through the server's write lock: the only safe way *)
          let edge_uid =
            Server.with_write server (fun store ->
                ok
                  (Store.insert_edge store ~at:(tp "2017-03-02 00:00:00")
                     ~cls:"RunsOn" ~src:app ~dst:box
                     ~fields:Nepal.Strmap.empty))
          in
          (match next_alert c with
          | None -> Alcotest.fail "no path.up alert"
          | Some ev ->
              check_string "kind" "path.up"
                (Option.value ~default:"?" (Json.string_field "kind" ev));
              check_bool "alert for our watch" true
                (Json.int_field "watch" ev = Some w);
              check_bool "dropped starts at 0" true
                (Json.int_field "dropped" ev = Some 0);
              check_bool "total positive" true
                (match Json.int_field "total" ev with
                | Some n -> n > 0
                | None -> false));
          (* tear the path down again *)
          Server.with_write server (fun store ->
              ok (Store.delete store ~at:(tp "2017-03-03 00:00:00") edge_uid));
          (match next_alert c with
          | None -> Alcotest.fail "no path.down alert"
          | Some ev ->
              check_string "kind" "path.down"
                (Option.value ~default:"?" (Json.string_field "kind" ev)));
          (* unwatch: acked, and alerts stop flowing *)
          check_bool "existed" true (ok (Client.unwatch c w));
          check_bool "second unwatch reports missing" true
            (ok (Client.unwatch c w) = false);
          check_int "no watches left" 0 (Server.watch_count server)))

let test_watch_cleanup_on_disconnect () =
  with_server (fun _store server ->
      with_client server (fun c -> ignore (ok (Client.watch c q_app_box)));
      (* closing the session unregisters its watches *)
      check_bool "watch removed with session" true
        (eventually (fun () -> Server.watch_count server = 0)))

(* ---- tracing over the wire ------------------------------------------ *)

module Trace = Nepal.Trace

(* Pure span-tree specs, then realized with Trace.make/child; details
   exercise quotes, backslashes, control bytes, and multi-byte UTF-8. *)
type span_spec = {
  sp_name : string;
  sp_detail : string;
  sp_wall_us : int;
  sp_ri : int;
  sp_ro : int;
  sp_est : bool;
  sp_calls : int;
  sp_kids : span_spec list;
}

let gen_span_spec =
  let open QCheck.Gen in
  let name = oneofl [ "Query"; "Var"; "Select"; "Extend"; "Join"; "Filter" ] in
  let detail =
    oneofl [ ""; "App()"; {|p."x" = 1|}; "a\"b\\c"; "tab\tnl\n"; "é→x" ]
  in
  sized
  @@ fix (fun self n ->
         let kids =
           if n = 0 then return [] else list_size (int_bound 3) (self (n / 2))
         in
         map
           (fun ((nm, dt), (w, ri, ro), (est, calls, ks)) ->
             {
               sp_name = nm;
               sp_detail = dt;
               sp_wall_us = w;
               sp_ri = ri;
               sp_ro = ro;
               sp_est = est;
               sp_calls = calls;
               sp_kids = ks;
             })
           (triple (pair name detail)
              (triple (int_bound 100_000) small_nat small_nat)
              (triple bool small_nat kids)))

let rec realize_spec ?parent spec =
  let s =
    match parent with
    | None -> Trace.make ~detail:spec.sp_detail spec.sp_name
    | Some p -> Trace.child ~detail:spec.sp_detail p spec.sp_name
  in
  s.Trace.wall_s <- float_of_int spec.sp_wall_us /. 1e6;
  s.Trace.rows_in <- spec.sp_ri;
  s.Trace.rows_out <- spec.sp_ro;
  if spec.sp_est then s.Trace.est_rows <- float_of_int spec.sp_ro *. 1.5;
  s.Trace.calls <- spec.sp_calls;
  List.iter (fun k -> ignore (realize_spec ~parent:s k)) spec.sp_kids;
  s

(* Trace.to_json must survive the strict RFC 8259 parser: serialization
   parses back, re-serializes identically, and keeps the tree's names
   and arity intact. *)
let prop_trace_json_roundtrip =
  QCheck.Test.make ~name:"Trace.to_json round-trips through Json.parse"
    ~count:200
    (QCheck.make gen_span_spec)
    (fun spec ->
      let span = realize_spec spec in
      let text = J.json_to_string (Trace.to_json span) in
      match Json.parse text with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s on %s" e text
      | Ok v ->
          if Json.to_string v <> text then
            QCheck.Test.fail_reportf "reparse not stable: %s" text
          else if Json.string_field "name" v <> Some spec.sp_name then
            QCheck.Test.fail_reportf "root name lost: %s" text
          else begin
            (match Json.member "children" v with
            | Some (J.List l) when List.length l = List.length spec.sp_kids ->
                ()
            | _ -> QCheck.Test.fail_reportf "children arity lost: %s" text);
            true
          end)

(* Shape of a span tree as rendered to JSON: operator names, nesting,
   and row counts — everything except the timings. *)
let rec span_shape j =
  let name = Option.value ~default:"?" (Json.string_field "name" j) in
  let rows = Option.value ~default:(-1) (Json.int_field "rows_out" j) in
  let kids =
    match Json.member "children" j with
    | Some (J.List l) -> List.map span_shape l
    | _ -> []
  in
  Printf.sprintf "%s/%d(%s)" name rows (String.concat "," kids)

let test_traced_wire_matches_inprocess () =
  with_server (fun store server ->
      with_client server (fun c ->
          let conn = Nepal.native_conn store in
          List.iter
            (fun q ->
              let wire = ok (Client.query_traced c q) in
              let tr = ok (Nepal.Explain.run_string_wire_traced ~conn q) in
              let wt =
                match wire.Server.qr_trace with
                | Some t -> t
                | None -> Alcotest.fail "traced reply has no trace"
              in
              let wire_spans =
                match Json.member "spans" wt with
                | Some s -> s
                | None -> Alcotest.fail "trace has no spans"
              in
              check_string "wire span shape = in-process span shape"
                (span_shape (Trace.to_json tr.Nepal.Explain.tr_root))
                (span_shape wire_spans);
              (match Json.member "plan" wt with
              | Some (J.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "trace has no plan lines");
              (* tracing must not change the answer *)
              let plain = ok (Client.query c q) in
              check_string "traced text = untraced text" plain.Server.qr_text
                wire.Server.qr_text;
              check_bool "untraced reply carries no trace" true
                (plain.Server.qr_trace = None))
            [ q_app_box; q_box_box; q_two_hop ];
          (* EXPLAIN under trace:true is rejected: the flag implies it *)
          match Client.query_traced c ("Explain " ^ q_app_box) with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "EXPLAIN under trace must error"))

(* ---- alert end-to-end latency --------------------------------------- *)

let json_num = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let test_alert_latency () =
  let nodes = ref None in
  let build store =
    let node cls fs =
      ok (Store.insert_node store ~at:t0 ~cls ~fields:(fields fs))
    in
    let app = node "App" [ ("id", i 1); ("tier", s "web") ] in
    let box = node "Box" [ ("id", i 10); ("region", s "east") ] in
    nodes := Some (app, box)
  in
  with_server ~build (fun _store server ->
      let app, box = Option.get !nodes in
      let e2e = Nepal.Metrics.histogram "monitor.alert_e2e" in
      let count () = (Nepal.Metrics.stats_of e2e).Nepal.Metrics.count in
      let before = count () in
      with_client server (fun c ->
          let _w = ok (Client.watch c q_app_box) in
          let next_alert () =
            let rec go tries =
              if tries = 0 then None
              else
                match Client.next_event ~timeout_s:5. c with
                | None -> None
                | Some ev when Json.string_field "event" ev = Some "alert" ->
                    Some ev
                | Some _ -> go (tries - 1)
            in
            go 5
          in
          (* churn: flap the path a few times through the write lock;
             every resulting alert must carry a non-negative e2e stamp *)
          let day = ref 2 in
          for _round = 1 to 3 do
            let at () =
              incr day;
              tp (Printf.sprintf "2017-03-%02d 00:00:00" !day)
            in
            let uid =
              Server.with_write server (fun store ->
                  ok
                    (Store.insert_edge store ~at:(at ()) ~cls:"RunsOn" ~src:app
                       ~dst:box ~fields:Nepal.Strmap.empty))
            in
            (match next_alert () with
            | None -> Alcotest.fail "no path.up alert"
            | Some ev -> (
                match json_num (Json.member "latency_ms" ev) with
                | Some ms ->
                    if ms < 0. then
                      Alcotest.failf "negative alert latency: %f" ms
                | None -> Alcotest.fail "alert frame lacks latency_ms"));
            Server.with_write server (fun store ->
                ok (Store.delete store ~at:(at ()) uid));
            match next_alert () with
            | None -> Alcotest.fail "no path.down alert"
            | Some ev ->
                check_bool "down alert has latency_ms" true
                  (json_num (Json.member "latency_ms" ev) <> None)
          done;
          check_bool "monitor.alert_e2e histogram advanced" true
            (count () > before)))

let test_per_session_alerts_sent () =
  let nodes = ref None in
  let build store =
    let node cls fs =
      ok (Store.insert_node store ~at:t0 ~cls ~fields:(fields fs))
    in
    let app = node "App" [ ("id", i 1); ("tier", s "web") ] in
    let box = node "Box" [ ("id", i 10); ("region", s "east") ] in
    nodes := Some (app, box)
  in
  with_server ~build (fun _store server ->
      let app, box = Option.get !nodes in
      with_client server (fun watcher ->
          with_client server (fun idle ->
              let _w = ok (Client.watch watcher q_app_box) in
              ignore
                (Server.with_write server (fun store ->
                     ok
                       (Store.insert_edge store ~at:(tp "2017-03-02 00:00:00")
                          ~cls:"RunsOn" ~src:app ~dst:box
                          ~fields:Nepal.Strmap.empty)));
              let got_alert =
                let rec go tries =
                  if tries = 0 then false
                  else
                    match Client.next_event ~timeout_s:5. watcher with
                    | Some ev
                      when Json.string_field "event" ev = Some "alert" ->
                        true
                    | Some _ -> go (tries - 1)
                    | None -> false
                in
                go 5
              in
              check_bool "watcher saw the alert" true got_alert;
              (* stats is per-session: the watcher counts its delivery,
                 the idle session stays at zero (the old bug reported the
                 server-wide total on every session) *)
              let w_stats = ok (Client.stats watcher) in
              check_bool "watcher alerts_sent positive" true
                (match Json.int_field "alerts_sent" w_stats with
                | Some n -> n >= 1
                | None -> false);
              check_bool "watcher outbox high water present" true
                (Json.int_field "outbox_high_water" w_stats <> None);
              let i_stats = ok (Client.stats idle) in
              check_bool "idle session alerts_sent zero" true
                (Json.int_field "alerts_sent" i_stats = Some 0))))

(* ---- introspect ------------------------------------------------------ *)

let test_introspect () =
  with_server (fun _store server ->
      with_client server (fun c ->
          ignore (ok (Client.query c q_app_box));
          let _w = ok (Client.watch c q_box_box) in
          let ins = ok (Client.introspect c) in
          check_bool "proto" true (Json.int_field "proto" ins <> None);
          check_bool "uptime_s" true
            (json_num (Json.member "uptime_s" ins) <> None);
          check_bool "requests counted" true
            (match Json.int_field "requests" ins with
            | Some n -> n >= 2
            | None -> false);
          (* latency histogram summaries are objects with a count *)
          (match Json.member "query_seconds" ins with
          | Some h -> (
              match Json.int_field "count" h with
              | Some n when n >= 1 -> ()
              | _ -> Alcotest.fail "query_seconds has no samples")
          | None -> Alcotest.fail "no query_seconds");
          (match Json.member "executor" ins with
          | Some ex ->
              check_bool "executor workers" true
                (match Json.int_field "workers" ex with
                | Some n -> n >= 1
                | None -> false)
          | None -> Alcotest.fail "no executor block");
          (match Json.member "rwlock" ins with
          | Some rw ->
              check_bool "rwlock waiters" true
                (Json.int_field "waiters" rw <> None)
          | None -> Alcotest.fail "no rwlock block");
          (* the per-session table names this session and its watch *)
          match Json.member "sessions" ins with
          | Some (J.List [ sess ]) -> (
              check_bool "session requests" true
                (match Json.int_field "requests" sess with
                | Some n -> n >= 2
                | None -> false);
              check_bool "session outbox high water" true
                (Json.int_field "outbox_high_water" sess <> None);
              match Json.member "watches" sess with
              | Some (J.List [ J.Int _ ]) -> ()
              | _ -> Alcotest.fail "session watch ids missing")
          | _ -> Alcotest.fail "sessions table must list one session"))

(* ---- metrics exporter regression ------------------------------------ *)

let test_exporter_survives_idle_peer () =
  let exporter =
    ok
      (Nepal.Http_metrics.start ~addr:Unix.inet_addr_loopback ~port:0
         ~request_timeout_s:0.2
         ~render:(fun () -> "# metrics\n")
         ())
  in
  Fun.protect ~finally:(fun () -> Nepal.Http_metrics.stop exporter)
    (fun () ->
      let port = Nepal.Http_metrics.port exporter in
      (* the historic wedge: connect and send nothing *)
      let idle = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Fun.protect ~finally:(fun () -> Net.close_noerr idle)
        (fun () ->
          (* a real scrape behind the idle peer still gets served *)
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Net.set_recv_timeout fd 5.0;
          Net.write_all fd "GET /metrics HTTP/1.0\r\n\r\n";
          let lr = Net.line_reader fd in
          let rec status tries =
            if tries = 0 then Alcotest.fail "no HTTP response"
            else
              match Net.read_line lr with
              | Net.Line l -> l
              | Net.Timeout -> status (tries - 1)
              | Net.Eof | Net.Too_long _ -> Alcotest.fail "broken response"
          in
          let line = status 5 in
          check_bool "200 from exporter behind idle peer" true
            (String.length line >= 12 && String.sub line 9 3 = "200");
          Net.close_noerr fd))

(* HEAD must return the status line and headers a GET would — including
   the Content-Length of the body it is NOT sending — and then stop:
   RFC 9110 semantics, and what `curl --head` probes rely on. *)
let test_exporter_head_request () =
  let exporter =
    ok
      (Nepal.Http_metrics.start ~addr:Unix.inet_addr_loopback ~port:0
         ~request_timeout_s:1.0
         ~render:(fun () -> "# metrics\nnepal_test_total 1\n")
         ())
  in
  Fun.protect
    ~finally:(fun () -> Nepal.Http_metrics.stop exporter)
    (fun () ->
      let port = Nepal.Http_metrics.port exporter in
      let fetch req =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Net.set_recv_timeout fd 5.0;
        Net.write_all fd req;
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 1024 in
        (try
           let rec go () =
             let n = Unix.recv fd chunk 0 1024 [] in
             if n > 0 then begin
               Buffer.add_subbytes buf chunk 0 n;
               go ()
             end
           in
           go ()
         with Unix.Unix_error _ -> ());
        Net.close_noerr fd;
        Buffer.contents buf
      in
      let split_response resp =
        let rec find i =
          if i + 4 > String.length resp then
            Alcotest.failf "no header/body separator in %S" resp
          else if String.sub resp i 4 = "\r\n\r\n" then
            ( String.sub resp 0 i,
              String.sub resp (i + 4) (String.length resp - i - 4) )
          else find (i + 1)
        in
        find 0
      in
      let content_length headers =
        List.find_map
          (fun line ->
            match String.index_opt line ':' with
            | Some c when String.lowercase_ascii (String.sub line 0 c)
                          = "content-length" ->
                int_of_string_opt
                  (String.trim
                     (String.sub line (c + 1) (String.length line - c - 1)))
            | _ -> None)
          (String.split_on_char '\n'
             (String.concat "\n" (String.split_on_char '\r' headers)))
      in
      let get_hdr, get_body =
        split_response (fetch "GET /metrics HTTP/1.0\r\n\r\n")
      in
      check_bool "GET 200" true (String.sub get_hdr 9 3 = "200");
      check_bool "GET declares its body length" true
        (content_length get_hdr = Some (String.length get_body));
      check_bool "GET body non-empty" true (String.length get_body > 0);
      let head_hdr, head_body =
        split_response (fetch "HEAD /metrics HTTP/1.0\r\n\r\n")
      in
      check_bool "HEAD 200" true (String.sub head_hdr 9 3 = "200");
      check_bool "HEAD sends no body" true (head_body = "");
      check_bool "HEAD Content-Length matches the GET body" true
        (content_length head_hdr = Some (String.length get_body));
      (* 404s keep the same discipline *)
      let nf_hdr, nf_body = split_response (fetch "HEAD /nope HTTP/1.0\r\n\r\n") in
      check_bool "HEAD 404" true (String.sub nf_hdr 9 3 = "404");
      check_bool "HEAD 404 sends no body" true (nf_body = "");
      check_bool "HEAD 404 still declares a length" true
        (match content_length nf_hdr with Some n -> n > 0 | None -> false))

(* NEPAL_LOCK_DEBUG=1 arms the store lock's re-entrancy witness: the
   deadlock the static LNT002 rule flags at compile time raises
   [Rwlock.Reentrant] at run time instead of hanging the session
   thread. Distinct threads sharing the read side stay legal — the
   witness keys on (domain, thread). *)
let test_lock_debug_witness () =
  let module Rwlock = Nepal_util.Rwlock in
  Unix.putenv "NEPAL_LOCK_DEBUG" "1";
  let rw = Rwlock.create () in
  Unix.putenv "NEPAL_LOCK_DEBUG" "0";
  let peer =
    Thread.create (fun () -> Rwlock.read rw (fun () -> Thread.delay 0.02)) ()
  in
  Rwlock.read rw (fun () -> Thread.delay 0.02);
  Thread.join peer;
  match Rwlock.write rw (fun () -> Rwlock.read rw (fun () -> ())) with
  | () -> Alcotest.fail "re-entrant read under write did not raise"
  | exception Rwlock.Reentrant _ -> ()

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "parse_request" `Quick test_wire_parse;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_control_char_rejected;
        ] );
      ( "line reader",
        [
          Alcotest.test_case "600 KB line in small pieces" `Quick
            test_reader_big_line_in_pieces;
          Alcotest.test_case "several lines in one read" `Quick
            test_reader_lines_in_one_read;
          Alcotest.test_case "CRLF endings" `Quick test_reader_crlf;
          Alcotest.test_case "oversize line then resync" `Quick
            test_reader_oversize_resync;
          Alcotest.test_case "unterminated last line" `Quick
            test_reader_unterminated_last_line;
          Alcotest.test_case "allocation linear in the line" `Quick
            test_reader_allocation_linear;
        ] );
      ( "outbox",
        [
          Alcotest.test_case "drop discipline" `Quick test_outbox_drops;
          Alcotest.test_case "blocking pop" `Quick test_outbox_blocking_pop;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "round-trip byte-identical" `Quick
            test_roundtrip_identical;
          Alcotest.test_case "error byte-identical" `Quick
            test_error_identical;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "max sessions" `Quick test_max_sessions;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "malformed and oversized frames" `Quick
            test_malformed_and_oversized;
          Alcotest.test_case "idle client does not wedge" `Quick
            test_idle_client_does_not_wedge;
          Alcotest.test_case "mid-stream disconnect (SIGPIPE)" `Quick
            test_mid_stream_disconnect_sigpipe;
        ] );
      ( "watches",
        [
          Alcotest.test_case "alert flow with drop counter" `Quick
            test_watch_alert_flow;
          Alcotest.test_case "cleanup on disconnect" `Quick
            test_watch_cleanup_on_disconnect;
        ] );
      ( "tracing",
        [
          QCheck_alcotest.to_alcotest prop_trace_json_roundtrip;
          Alcotest.test_case "traced wire = in-process EXPLAIN ANALYZE" `Quick
            test_traced_wire_matches_inprocess;
        ] );
      ( "latency",
        [
          Alcotest.test_case "alert frames carry e2e latency" `Quick
            test_alert_latency;
          Alcotest.test_case "alerts_sent is per-session" `Quick
            test_per_session_alerts_sent;
        ] );
      ( "introspect",
        [ Alcotest.test_case "live state dump" `Quick test_introspect ] );
      ( "exporter",
        [
          Alcotest.test_case "survives idle peer" `Quick
            test_exporter_survives_idle_peer;
          Alcotest.test_case "HEAD sends headers only" `Quick
            test_exporter_head_request;
        ] );
      ( "lock witness",
        [
          Alcotest.test_case "NEPAL_LOCK_DEBUG catches re-entrancy" `Quick
            test_lock_debug_witness;
        ] );
    ]
