(* Retained telemetry: ring wraparound, the downsample oracle,
   dump/load persistence, the health engine's debounce hysteresis, and
   the history wire frames validated through the strict JSON parser. *)

module Ts = Nepal_util.Timeseries
module Metrics = Nepal_util.Metrics
module Health = Nepal_server.Health
module Wire = Nepal_server.Wire
module Json = Nepal_util.Jsonp
module J = Nepal_util.Event_log

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let last = function
  | [] -> Alcotest.fail "empty list"
  | l -> List.nth l (List.length l - 1)

let near ?(eps = 1e-9) what expected got =
  check_bool
    (Printf.sprintf "%s: %.12g ~ %.12g" what got expected)
    true
    (Float.abs (got -. expected) <= eps)

(* ---- sampling and rings ---------------------------------------------- *)

let test_sample_and_query () =
  Metrics.reset_all ();
  let v = ref 0. in
  Metrics.register_gauge "test.ts.basic" (fun () -> !v);
  v := 2.5;
  Ts.sample_now ~now:10. ();
  v := 7.5;
  Ts.sample_now ~now:11. ();
  (match Ts.query "test.ts.basic" with
  | [ p1; p2 ] ->
      near "first ts" 10. p1.Ts.ts;
      near "first value" 2.5 p1.Ts.v_last;
      check_int "raw points fold one sample" 1 p1.Ts.v_n;
      near "second value" 7.5 p2.Ts.v_last
  | pts -> Alcotest.failf "expected 2 points, got %d" (List.length pts));
  check_bool "series listed" true
    (List.mem "test.ts.basic" (Ts.series_names ()));
  check_bool "unknown series is empty" true (Ts.query "no.such.series" = [])

let test_ring_wraparound () =
  Metrics.reset_all ();
  let v = ref 0. in
  Metrics.register_gauge "test.ts.wrap" (fun () -> !v);
  let total = 400 in
  for i = 0 to total - 1 do
    v := float_of_int i;
    Ts.sample_now ~now:(float_of_int i) ()
  done;
  let pts = Ts.query "test.ts.wrap" in
  check_int "raw ring capped at capacity" 360 (List.length pts);
  let first = List.hd pts and newest = last pts in
  near "oldest surviving tick" (float_of_int (total - 360)) first.Ts.ts;
  near "oldest surviving value" (float_of_int (total - 360)) first.Ts.v_last;
  near "newest tick" (float_of_int (total - 1)) newest.Ts.v_last;
  let rec mono = function
    | a :: (b :: _ as tl) -> a.Ts.ts < b.Ts.ts && mono tl
    | _ -> true
  in
  check_bool "oldest first, strictly increasing ts" true (mono pts);
  (* 400 ticks flush 26 mid points (every 15) and 6 coarse (every 60) *)
  check_int "mid points" 26 (List.length (Ts.query ~resolution:Ts.Mid "test.ts.wrap"));
  check_int "coarse points" 6
    (List.length (Ts.query ~resolution:Ts.Coarse "test.ts.wrap"))

let test_downsample_oracle () =
  Metrics.reset_all ();
  let v = ref 0. in
  Metrics.register_gauge "test.ts.ds" (fun () -> !v);
  let vals = List.init 15 (fun i -> float_of_int ((i * 7) mod 13)) in
  List.iteri
    (fun i x ->
      v := x;
      Ts.sample_now ~now:(float_of_int i) ())
    vals;
  match Ts.query ~resolution:Ts.Mid "test.ts.ds" with
  | [ p ] ->
      near "mid min" (List.fold_left Float.min infinity vals) p.Ts.v_min;
      near "mid max" (List.fold_left Float.max neg_infinity vals) p.Ts.v_max;
      near "mid mean" (List.fold_left ( +. ) 0. vals /. 15.) p.Ts.v_mean;
      near "mid last" (last vals) p.Ts.v_last;
      check_int "mid folds all 15 ticks" 15 p.Ts.v_n;
      near "mid ts is the newest folded tick" 14. p.Ts.ts
  | pts -> Alcotest.failf "expected 1 mid point, got %d" (List.length pts)

let test_window_filter () =
  Metrics.reset_all ();
  let v = ref 0. in
  Metrics.register_gauge "test.ts.win" (fun () -> !v);
  for i = 0 to 14 do
    v := float_of_int i;
    Ts.sample_now ~now:(float_of_int i) ()
  done;
  let pts = Ts.query ~now:14. ~window_s:4.5 "test.ts.win" in
  check_int "window keeps only recent points" 5 (List.length pts);
  near "window cut" 10. (List.hd pts).Ts.ts

let test_histogram_delta_series () =
  Metrics.reset_all ();
  let h = Metrics.histogram "test.ts.lat" in
  (* tick 1: a slow burst; tick 2: fast traffic; tick 3: idle *)
  List.iter (Metrics.observe h) [ 0.5; 0.6; 0.55 ];
  Ts.sample_now ~now:1. ();
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.001; 0.002 ];
  Ts.sample_now ~now:2. ();
  Ts.sample_now ~now:3. ();
  let counts = Ts.query "test.ts.lat.count" in
  check_int "cumulative count sampled every tick" 3 (List.length counts);
  near "final count" 7. (last counts).Ts.v_last;
  let p99 = Ts.query "test.ts.lat.p99" in
  check_int "quantiles only on ticks with new observations" 2
    (List.length p99);
  let slow_tick = List.hd p99 and fast_tick = last p99 in
  check_bool "windowed p99 falls when the burst ends" true
    (fast_tick.Ts.v_last < 0.01 && slow_tick.Ts.v_last > 0.4)

let test_dump_load_roundtrip () =
  Metrics.reset_all ();
  let v = ref 0. in
  Metrics.register_gauge "test.ts.dump" (fun () -> !v);
  for i = 0 to 29 do
    v := float_of_int ((i * 3) mod 11);
    Ts.sample_now ~now:(float_of_int i) ()
  done;
  let before_raw = Ts.query "test.ts.dump" in
  let before_mid = Ts.query ~resolution:Ts.Mid "test.ts.dump" in
  check_int "two mid points before the dump" 2 (List.length before_mid);
  let path = Filename.temp_file "nepal_telem" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ok (Ts.dump path);
      Metrics.reset_all ();
      check_int "reset drops retained points" 0
        (List.length (Ts.query "test.ts.dump"));
      ok (Ts.load path);
      let approx (a : Ts.point) (b : Ts.point) =
        Float.abs (a.Ts.ts -. b.Ts.ts) <= 1e-9
        && Float.abs (a.Ts.v_min -. b.Ts.v_min) <= 1e-9
        && Float.abs (a.Ts.v_max -. b.Ts.v_max) <= 1e-9
        && Float.abs (a.Ts.v_mean -. b.Ts.v_mean) <= 1e-9
        && Float.abs (a.Ts.v_last -. b.Ts.v_last) <= 1e-9
        && a.Ts.v_n = b.Ts.v_n
      in
      let same a b = List.length a = List.length b && List.for_all2 approx a b in
      check_bool "raw points survive the round-trip" true
        (same before_raw (Ts.query "test.ts.dump"));
      check_bool "mid points survive the round-trip" true
        (same before_mid (Ts.query ~resolution:Ts.Mid "test.ts.dump")));
  (* a non-dump file is rejected *)
  let bogus = Filename.temp_file "nepal_telem" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists bogus then Sys.remove bogus)
    (fun () ->
      let oc = open_out bogus in
      output_string oc "{\"kind\":\"something.else\"}\n";
      close_out oc;
      match Ts.load bogus with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "loading a non-dump file must fail")

(* ---- health hysteresis ----------------------------------------------- *)

let mk_rule ?(window = 5.) ?(agg = Health.Last) ?(cmp = Health.Above)
    ?(threshold = 5.) ?(sustain = 2) ?(recover = 2) series =
  {
    Health.hr_name = "r_" ^ series;
    hr_series = series;
    hr_window_s = window;
    hr_agg = agg;
    hr_cmp = cmp;
    hr_threshold = threshold;
    hr_sustain = sustain;
    hr_recover = recover;
  }

let test_health_hysteresis () =
  Metrics.reset_all ();
  let v = ref 0. in
  Metrics.register_gauge "test.health.level" (fun () -> !v);
  let h = Health.create ~rules:[ mk_rule "test.health.level" ] () in
  let t = ref 0. in
  let step value =
    v := value;
    Ts.sample_now ~now:!t ();
    let trs = Health.evaluate ~now:!t h in
    t := !t +. 1.;
    trs
  in
  check_int "calm series" 0 (List.length (step 1.));
  check_int "first breach debounced" 0 (List.length (step 10.));
  (match step 10. with
  | [ tr ] -> check_bool "degrades after sustain" true tr.Health.tr_degraded
  | trs -> Alcotest.failf "expected the degrade, got %d" (List.length trs));
  check_int "one active alert" 1 (Health.active_count h);
  (match Health.alerts_json h with
  | J.List [ J.Obj fields ] ->
      check_bool "alert names the rule" true
        (List.assoc_opt "rule" fields = Some (J.Str "r_test.health.level"))
  | _ -> Alcotest.fail "alerts_json must list the degraded rule");
  check_int "a single clear is not a recovery" 0 (List.length (step 1.));
  check_int "re-breach resets the clear streak" 0 (List.length (step 10.));
  check_int "still degraded" 1 (Health.active_count h);
  check_int "clear one" 0 (List.length (step 1.));
  (match step 1. with
  | [ tr ] ->
      check_bool "recovers after the clear streak" true
        (not tr.Health.tr_degraded)
  | trs -> Alcotest.failf "expected the recovery, got %d" (List.length trs));
  check_int "no active alerts" 0 (Health.active_count h);
  check_bool "alerts_json empty again" true (Health.alerts_json h = J.List [])

let test_health_rate_rule () =
  Metrics.reset_all ();
  let c = Metrics.counter "test.health.ctr" in
  let rule =
    mk_rule ~window:10. ~agg:Health.Rate ~threshold:50. ~sustain:1 ~recover:1
      "test.health.ctr"
  in
  let h = Health.create ~rules:[ rule ] () in
  Ts.sample_now ~now:0. ();
  check_int "rate needs two points" 0 (List.length (Health.evaluate ~now:0. h));
  Metrics.add c 200;
  Ts.sample_now ~now:1. ();
  (match Health.evaluate ~now:1. h with
  | [ tr ] ->
      check_bool "rate breach degrades" true tr.Health.tr_degraded;
      near ~eps:1e-6 "rate value" 200. tr.Health.tr_value
  | trs -> Alcotest.failf "expected the degrade, got %d" (List.length trs));
  (* the counter stops moving: the window-wide rate decays below the
     threshold and the rule recovers *)
  Ts.sample_now ~now:9. ();
  match Health.evaluate ~now:9. h with
  | [ tr ] -> check_bool "rate decay recovers" true (not tr.Health.tr_degraded)
  | trs -> Alcotest.failf "expected the recovery, got %d" (List.length trs)

let test_health_no_data_holds_state () =
  Metrics.reset_all ();
  let v = ref 10. in
  Metrics.register_gauge "test.health.hold" (fun () -> !v);
  let h =
    Health.create ~rules:[ mk_rule ~sustain:1 ~recover:1 "test.health.hold" ] ()
  in
  Ts.sample_now ~now:0. ();
  check_int "immediate degrade at sustain 1" 1
    (List.length (Health.evaluate ~now:0. h));
  (* the series goes quiet: points age out of the window, but an idle
     series must hold the degraded state, not fake a recovery *)
  check_int "no data, no transition" 0
    (List.length (Health.evaluate ~now:100. h));
  check_int "still degraded" 1 (Health.active_count h)

(* ---- history over the wire ------------------------------------------- *)

let test_history_request_parse () =
  (match Wire.parse_request {|{"op":"history","id":1}|} with
  | Ok (J.Int 1, Wire.History { series = None; window_s = None; res = Ts.Raw })
    ->
      ()
  | _ -> Alcotest.fail "bare history parse");
  (match
     Wire.parse_request
       {|{"op":"history","id":2,"series":"a.b","window_s":60,"res":"mid"}|}
   with
  | Ok
      ( J.Int 2,
        Wire.History { series = Some "a.b"; window_s = Some 60.; res = Ts.Mid }
      ) ->
      ()
  | _ -> Alcotest.fail "full history parse");
  (match Wire.parse_request {|{"op":"history","id":3,"res":"hourly"}|} with
  | Error (J.Int 3, _) -> ()
  | _ -> Alcotest.fail "unknown resolution must fail, keeping the id");
  (match Wire.parse_request {|{"op":"history","id":4,"window_s":-5}|} with
  | Error (J.Int 4, _) -> ()
  | _ -> Alcotest.fail "non-positive window must fail");
  match Wire.parse_request {|{"op":"history","id":5,"series":7}|} with
  | Error (J.Int 5, _) -> ()
  | _ -> Alcotest.fail "non-string series must fail"

let test_history_frame_shape () =
  let points =
    [
      { Ts.ts = 1.; v_min = 0.5; v_max = 2.; v_mean = 1.25; v_last = 2.; v_n = 4 };
      { Ts.ts = 2.; v_min = 1.; v_max = 1.; v_mean = 1.; v_last = 1.; v_n = 1 };
    ]
  in
  let frame =
    Wire.history_frame ~id:(J.Int 7) ~series:"s.x" ~res:Ts.Mid ~interval_s:1.
      ~points
  in
  check_bool "newline-terminated" true
    (frame.[String.length frame - 1] = '\n');
  let v = ok (Json.parse (String.trim frame)) in
  check_bool "ok" true (Json.bool_field "ok" v = Some true);
  check_bool "echoes the id" true (Json.int_field "id" v = Some 7);
  check_bool "type history" true (Json.string_field "type" v = Some "history");
  check_bool "names the series" true
    (Json.string_field "series" v = Some "s.x");
  check_bool "names the resolution" true
    (Json.string_field "res" v = Some "mid");
  (match Json.member "points" v with
  | Some (J.List [ p1; _ ]) ->
      check_bool "point carries n" true (Json.int_field "n" p1 = Some 4);
      check_bool "point carries the stats" true
        (Json.member "t" p1 <> None
        && Json.member "min" p1 <> None
        && Json.member "max" p1 <> None
        && Json.member "mean" p1 <> None
        && Json.member "last" p1 <> None)
  | _ -> Alcotest.fail "points must be a 2-element list");
  let sframe = Wire.series_frame ~id:J.Null [ "a"; "b" ] in
  let sv = ok (Json.parse (String.trim sframe)) in
  check_bool "series frame type" true
    (Json.string_field "type" sv = Some "series");
  match Json.member "series" sv with
  | Some (J.List [ J.Str "a"; J.Str "b" ]) -> ()
  | _ -> Alcotest.fail "series list lost"

let () =
  Alcotest.run "nepal_timeseries"
    [
      ( "rings",
        [
          Alcotest.test_case "sample and query" `Quick test_sample_and_query;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "downsample oracle" `Quick test_downsample_oracle;
          Alcotest.test_case "window filter" `Quick test_window_filter;
          Alcotest.test_case "histogram delta quantile series" `Quick
            test_histogram_delta_series;
          Alcotest.test_case "dump/load round-trip" `Quick
            test_dump_load_roundtrip;
        ] );
      ( "health",
        [
          Alcotest.test_case "debounce hysteresis" `Quick
            test_health_hysteresis;
          Alcotest.test_case "rate rule" `Quick test_health_rate_rule;
          Alcotest.test_case "no data holds state" `Quick
            test_health_no_data_holds_state;
        ] );
      ( "wire",
        [
          Alcotest.test_case "history request parse" `Quick
            test_history_request_parse;
          Alcotest.test_case "history frame shape" `Quick
            test_history_frame_shape;
        ] );
    ]
