(* The structured event log: JSONL sink, severity floor, per-kind
   sampling, store mutation audits, and slow-query events carrying the
   measured span tree from the engine. *)

module Nepal = Core.Nepal
module Event_log = Nepal.Event_log

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run [f] with the log sinking to a fresh temp file, restore the
   defaults afterwards, and return the lines written. *)
let with_log ?(level = Event_log.Info) f =
  let path = Filename.temp_file "nepal_events" ".jsonl" in
  Event_log.set_path (Some path);
  Event_log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Event_log.set_path None;
      Event_log.set_level Event_log.Info;
      Event_log.set_slow_query_threshold None;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      f ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !lines)

let test_jsonl_shape () =
  let lines =
    with_log (fun () ->
        Event_log.emit ~kind:"test.one"
          [ ("n", Event_log.Int 7); ("s", Event_log.Str "a\"b") ];
        Event_log.emit ~level:Event_log.Warn ~kind:"test.two" [])
  in
  check_int "two lines" 2 (List.length lines);
  let l1 = List.nth lines 0 and l2 = List.nth lines 1 in
  check_bool "object per line" true
    (List.for_all
       (fun l -> l.[0] = '{' && l.[String.length l - 1] = '}')
       lines);
  check_bool "has ts" true (contains l1 "\"ts\":");
  check_bool "has level" true (contains l1 "\"level\":\"info\"");
  check_bool "has kind" true (contains l1 "\"kind\":\"test.one\"");
  check_bool "carries fields" true (contains l1 "\"n\":7");
  check_bool "escapes strings" true (contains l1 "\"s\":\"a\\\"b\"");
  check_bool "warn level recorded" true (contains l2 "\"level\":\"warn\"")

let test_level_floor () =
  let lines =
    with_log ~level:Event_log.Warn (fun () ->
        Event_log.emit ~level:Event_log.Debug ~kind:"test.lvl" [];
        Event_log.emit ~level:Event_log.Info ~kind:"test.lvl" [];
        Event_log.emit ~level:Event_log.Warn ~kind:"test.lvl" [];
        Event_log.emit ~level:Event_log.Error ~kind:"test.lvl" [])
  in
  check_int "only warn and error pass" 2 (List.length lines)

let test_sampling () =
  let lines =
    with_log (fun () ->
        Event_log.set_sample ~kind:"test.noisy" 3;
        Fun.protect
          ~finally:(fun () -> Event_log.set_sample ~kind:"test.noisy" 1)
          (fun () ->
            for _ = 1 to 9 do
              Event_log.emit ~kind:"test.noisy" []
            done;
            (* Other kinds are unaffected. *)
            Event_log.emit ~kind:"test.calm" []))
  in
  let of_kind k = List.filter (fun l -> contains l k) lines in
  check_int "one in three kept" 3 (List.length (of_kind "test.noisy"));
  check_int "unsampled kind untouched" 1 (List.length (of_kind "test.calm"))

(* -- store mutation audits ------------------------------------------ *)

let model =
  {|
node_types:
  App:
    properties:
      id: int
edge_types:
  Link: {}
|}

let at = Nepal.Time_point.of_string_exn "2017-03-01 00:00:00"

let test_store_audit () =
  let db = Nepal.create (Nepal.Tosca.parse_exn model) in
  let fields = Nepal.Strmap.of_list [ ("id", Nepal.Value.Int 1) ] in
  let lines =
    with_log ~level:Event_log.Debug (fun () ->
        let uid = ok (Nepal.insert_node db ~at ~cls:"App" ~fields) in
        let later = Nepal.Time_point.of_string_exn "2017-03-02 00:00:00" in
        ignore (ok (Nepal.update db ~at:later uid ~fields));
        (* A rejected mutation audits at warn with the error text. *)
        match Nepal.insert_node db ~at ~cls:"NoSuchClass" ~fields with
        | Ok _ -> Alcotest.fail "expected a rejection"
        | Error _ -> ())
  in
  let mutations = List.filter (fun l -> contains l "\"kind\":\"store.mutation\"") lines in
  check_int "two successful mutations audited" 2 (List.length mutations);
  check_bool "audit carries op and uid" true
    (List.exists
       (fun l -> contains l "\"op\":\"insert_node\"" && contains l "\"uid\":")
       mutations);
  check_bool "rejection audited as store.error at warn" true
    (List.exists
       (fun l ->
         contains l "\"kind\":\"store.error\""
         && contains l "\"level\":\"warn\""
         && contains l "\"error\":")
       lines)

let test_store_audit_quiet_at_info () =
  let db = Nepal.create (Nepal.Tosca.parse_exn model) in
  let fields = Nepal.Strmap.of_list [ ("id", Nepal.Value.Int 1) ] in
  let lines =
    with_log (fun () -> ignore (ok (Nepal.insert_node db ~at ~cls:"App" ~fields)))
  in
  check_int "debug audits filtered at the default level" 0 (List.length lines)

(* -- slow-query events ---------------------------------------------- *)

let test_slow_query_event () =
  let db = Nepal.create (Nepal.Tosca.parse_exn model) in
  let fields n = Nepal.Strmap.of_list [ ("id", Nepal.Value.Int n) ] in
  let a = ok (Nepal.insert_node db ~at ~cls:"App" ~fields:(fields 1)) in
  let b = ok (Nepal.insert_node db ~at ~cls:"App" ~fields:(fields 2)) in
  ignore
    (ok (Nepal.insert_edge db ~at ~cls:"Link" ~src:a ~dst:b
           ~fields:Nepal.Strmap.empty));
  let q = "Retrieve P From PATHS P Where P MATCHES App(id=1)->Link()->App()" in
  let lines =
    with_log (fun () ->
        (* Threshold zero: every query is "slow". *)
        Event_log.set_slow_query_threshold (Some 0.);
        ignore (ok (Nepal.query db q)))
  in
  let slow = List.filter (fun l -> contains l "\"kind\":\"query.slow\"") lines in
  check_int "one slow-query event" 1 (List.length slow);
  let l = List.hd slow in
  check_bool "warn level" true (contains l "\"level\":\"warn\"");
  check_bool "carries fingerprint" true (contains l "\"fingerprint\":");
  check_bool "fingerprint abstracts the literal" true
    (contains l "app ( id = ? )");
  check_bool "carries wall and threshold" true
    (contains l "\"wall_ms\":" && contains l "\"threshold_ms\":");
  check_bool "carries the plan" true (contains l "\"plan\":");
  check_bool "carries the span tree" true
    (contains l "\"spans\":" && contains l "\"name\":\"Query\""
    && contains l "\"children\":");
  check_bool "span tree has measured operators" true
    (contains l "\"name\":\"Select\"" || contains l "\"name\":\"Extend\"")

let test_query_error_event () =
  let db = Nepal.create (Nepal.Tosca.parse_exn model) in
  let lines =
    with_log (fun () ->
        match
          Nepal.query db "Retrieve P From PATHS P Where P MATCHES NoSuchClass()"
        with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ())
  in
  check_bool "query.error event emitted" true
    (List.exists
       (fun l ->
         contains l "\"kind\":\"query.error\""
         && contains l "\"level\":\"error\""
         && contains l "\"error\":")
       lines)

let test_disabled_threshold () =
  (* With no sink, the engine must see no slow-query threshold at all
     (so it never builds trace trees for a silent process). *)
  Event_log.set_path None;
  Event_log.set_slow_query_threshold (Some 0.);
  check_bool "threshold hidden while disabled" true
    (Event_log.slow_query_threshold () = None);
  Event_log.set_slow_query_threshold None

(* -- every line is valid JSON --------------------------------------- *)

(* A strict RFC 8259 parser: any escaping bug in the emitter (raw
   control chars, broken \u sequences, invalid UTF-8 leaking through)
   fails the parse. No external dep; this is the test's oracle. *)
module Json_check = struct
  exception Bad of string

  let parse (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let skip_ws () =
      while
        match peek () with
        | Some (' ' | '\t' | '\n' | '\r') -> true
        | _ -> false
      do
        advance ()
      done
    in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    let hex4 () =
      for _ = 1 to 4 do
        match peek () with
        | Some c when is_hex c -> advance ()
        | _ -> raise (Bad "bad \\u escape")
      done
    in
    let string_lit () =
      expect '"';
      let rec go () =
        match peek () with
        | None -> raise (Bad "unterminated string")
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ()
            | Some 'u' ->
                advance ();
                hex4 ()
            | _ -> raise (Bad "bad escape"));
            go ()
        | Some c when Char.code c < 0x20 ->
            raise (Bad (Printf.sprintf "raw control char 0x%02x" (Char.code c)))
        | Some c when Char.code c < 0x80 ->
            advance ();
            go ()
        | Some c ->
            (* multi-byte UTF-8 sequence: validate strictly (no
               overlongs, no surrogates, max U+10FFFF) *)
            let b0 = Char.code c in
            let cont k =
              (* read k continuation bytes, returning the code point *)
              let cp = ref (b0 land (0xff lsr (k + 2))) in
              advance ();
              for _ = 1 to k do
                match peek () with
                | Some c' when Char.code c' land 0xc0 = 0x80 ->
                    cp := (!cp lsl 6) lor (Char.code c' land 0x3f);
                    advance ()
                | _ -> raise (Bad "truncated UTF-8 sequence")
              done;
              !cp
            in
            let cp =
              if b0 land 0xe0 = 0xc0 then cont 1
              else if b0 land 0xf0 = 0xe0 then cont 2
              else if b0 land 0xf8 = 0xf0 then cont 3
              else raise (Bad (Printf.sprintf "invalid UTF-8 lead 0x%02x" b0))
            in
            let min_cp =
              if b0 land 0xe0 = 0xc0 then 0x80
              else if b0 land 0xf0 = 0xe0 then 0x800
              else 0x10000
            in
            if cp < min_cp then raise (Bad "overlong UTF-8 encoding");
            if cp >= 0xd800 && cp <= 0xdfff then
              raise (Bad "surrogate code point in UTF-8");
            if cp > 0x10ffff then raise (Bad "code point above U+10FFFF");
            go ()
      in
      go ()
    in
    let number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      let digits () =
        let seen = ref false in
        while
          match peek () with
          | Some '0' .. '9' -> true
          | _ -> false
        do
          seen := true;
          advance ()
        done;
        if not !seen then raise (Bad "expected digits")
      in
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with
          | Some ('+' | '-') -> advance ()
          | _ -> ());
          digits ()
      | _ -> ()
    in
    let keyword k =
      String.iter expect k
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> string_lit ()
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then advance ()
          else
            let rec members () =
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> raise (Bad "expected , or } in object")
            in
            members ()
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then advance ()
          else
            let rec elems () =
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems ()
              | Some ']' -> advance ()
              | _ -> raise (Bad "expected , or ] in array")
            in
            elems ()
      | Some 't' -> keyword "true"
      | Some 'f' -> keyword "false"
      | Some 'n' -> keyword "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise (Bad "expected a JSON value")
    in
    value ();
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage")

  let valid s =
    match parse s with () -> true | exception Bad _ -> false
end

(* -- size rotation -------------------------------------------------- *)

let test_rotation () =
  let path = Filename.temp_file "nepal_rot" ".jsonl" in
  let numbered i = Printf.sprintf "%s.%d" path i in
  let rot = Nepal.Metrics.counter "event_log.rotations" in
  let before = Nepal.Metrics.counter_value rot in
  Event_log.set_path (Some path);
  Event_log.set_rotation ~max_bytes:(Some 2048) ~keep:2 ();
  Fun.protect
    ~finally:(fun () ->
      Event_log.set_rotation ~max_bytes:None ();
      Event_log.set_path None;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; numbered 1; numbered 2; numbered 3 ])
    (fun () ->
      (* ~100 bytes per line: 200 emits cross the 2 KiB bound many times *)
      for i = 1 to 200 do
        Event_log.emit ~kind:"test.rot"
          [ ("i", Event_log.Int i); ("pad", Event_log.Str (String.make 40 'x')) ]
      done;
      check_bool "rotated file exists" true (Sys.file_exists (numbered 1));
      check_bool "keep bound honored: no .3 file" true
        (not (Sys.file_exists (numbered 3)));
      check_bool "rotations counted" true
        (Nepal.Metrics.counter_value rot > before);
      (* the live file stays near the bound (one line of slack) *)
      let sz = (Unix.stat path).Unix.st_size in
      check_bool "live file bounded" true (sz <= 2048 + 256);
      (* rotation never splits a line: every surviving file is intact
         JSONL, and the newest rotated file ends where the live one
         begins *)
      let lines_of p =
        let ic = open_in p in
        let acc = ref [] in
        (try
           while true do
             acc := input_line ic :: !acc
           done
         with End_of_file -> ());
        close_in ic;
        List.rev !acc
      in
      let all = lines_of path @ lines_of (numbered 1) in
      check_bool "no line split by rotation" true
        (List.for_all (fun l -> l <> "") all);
      let seq p =
        List.filter_map
          (fun l ->
            match Nepal_util.Jsonp.parse l with
            | Error _ -> Alcotest.failf "unparsable rotated line: %s" l
            | Ok j -> Nepal_util.Jsonp.int_field "i" j)
          (lines_of p)
      in
      let rotated = seq (numbered 1) and live = seq path in
      check_bool "rotated and live files both hold events" true
        (rotated <> [] && live <> []);
      check_bool "live continues where the rotation left off" true
        (List.hd live = List.nth rotated (List.length rotated - 1) + 1))

let test_parser_sanity () =
  check_bool "accepts an object" true
    (Json_check.valid {|{"a":1,"b":[true,null,"xé"],"c":-1.5e3}|});
  check_bool "rejects raw control char" false
    (Json_check.valid "{\"a\":\"\x01\"}");
  check_bool "rejects invalid UTF-8" false (Json_check.valid "{\"a\":\"\xff\"}");
  check_bool "rejects overlong encoding" false
    (Json_check.valid "{\"a\":\"\xc0\xaf\"}");
  check_bool "rejects trailing garbage" false (Json_check.valid "{} {}")

(* Arbitrary byte strings — including invalid UTF-8, control chars,
   quotes, backslashes — must still come out as a parseable line. *)
let prop_every_line_parses =
  QCheck.Test.make ~name:"every emitted line parses as strict JSON" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (small_list string))
    (fun (kind_raw, strs) ->
      let kind = if kind_raw = "" then "t" else kind_raw in
      let fields =
        List.mapi (fun i v -> (Printf.sprintf "f%d" i, Event_log.Str v)) strs
        @ [
            ("nested",
             Event_log.Obj
               [
                 ("l", Event_log.List (List.map (fun v -> Event_log.Str v) strs));
                 ("nan", Event_log.Float Float.nan);
                 ("inf", Event_log.Float Float.infinity);
               ]);
          ]
      in
      let lines = with_log (fun () -> Event_log.emit ~kind fields) in
      List.length lines = 1 && List.for_all Json_check.valid lines)

let () =
  Alcotest.run "nepal_event_log"
    [
      ( "event_log",
        [
          Alcotest.test_case "JSONL shape" `Quick test_jsonl_shape;
          Alcotest.test_case "severity floor" `Quick test_level_floor;
          Alcotest.test_case "per-kind sampling" `Quick test_sampling;
          Alcotest.test_case "store mutation audit" `Quick test_store_audit;
          Alcotest.test_case "audits silent at default level" `Quick
            test_store_audit_quiet_at_info;
          Alcotest.test_case "slow query carries span tree" `Quick
            test_slow_query_event;
          Alcotest.test_case "query errors audited" `Quick
            test_query_error_event;
          Alcotest.test_case "no threshold while disabled" `Quick
            test_disabled_threshold;
          Alcotest.test_case "size rotation" `Quick test_rotation;
        ] );
      ( "json",
        Alcotest.test_case "oracle parser sanity" `Quick test_parser_sanity
        :: List.map QCheck_alcotest.to_alcotest [ prop_every_line_parses ] );
    ]
