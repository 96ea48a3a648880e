(* Statement statistics: fingerprint normalization (property-tested),
   LRU accounting, accumulation, dump round-trips, and the engine
   recording every run_string into the table. *)

module Nepal = Core.Nepal
module Stats = Nepal.Stat_statements

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

(* -- fingerprint properties ---------------------------------------- *)

(* A Table-1-shaped query parameterized by its literals. *)
let mk_query ?(at = "") id name =
  Printf.sprintf
    "%sRetrieve P From PATHS P Where P MATCHES \
     VNF(id=%d)->[Vertical()]{1,6}->Server(name='%s')"
    (if at = "" then "" else Printf.sprintf "AT '%s' " at)
    id name

let gen_ident =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9' ]) (1 -- 12))

let prop_literals_collapse =
  QCheck.Test.make ~count:200 ~name:"literal variations share one fingerprint"
    QCheck.(
      make
        Gen.(quad small_nat gen_ident small_nat gen_ident))
    (fun (id1, name1, id2, name2) ->
      Stats.fingerprint (mk_query id1 name1)
      = Stats.fingerprint (mk_query id2 name2))

let prop_at_collapse =
  QCheck.Test.make ~count:100 ~name:"AT timestamps share one fingerprint"
    QCheck.(pair small_nat small_nat)
    (fun (d1, d2) ->
      let at d = Printf.sprintf "2017-03-%02d 10:00:00" (1 + (d mod 28)) in
      Stats.fingerprint (mk_query ~at:(at d1) 1 "x")
      = Stats.fingerprint (mk_query ~at:(at d2) 1 "x")
      (* ...but the AT-form is a different shape than the bare query. *)
      && Stats.fingerprint (mk_query ~at:(at d1) 1 "x")
         <> Stats.fingerprint (mk_query 1 "x"))

(* Random whitespace padding and case changes are invisible. *)
let prop_whitespace_case_collapse =
  QCheck.Test.make ~count:200 ~name:"whitespace/case variations collapse"
    QCheck.(pair (int_bound 5) bool)
    (fun (pad, upper) ->
      let q = mk_query 42 "web" in
      let padded =
        let sp = String.make (1 + pad) ' ' in
        String.concat sp (String.split_on_char ' ' q)
      in
      let cased = if upper then String.uppercase_ascii padded else padded in
      Stats.fingerprint cased = Stats.fingerprint q)

(* Distinct query shapes must never collide — in particular repetition
   bounds are preserved (Host-Host(4) vs Host-Host(6)). *)
let test_distinct_shapes () =
  let corpus =
    [
      "Retrieve P From PATHS P Where P MATCHES VNF(id=1)->[Vertical()]{1,4}->Server()";
      "Retrieve P From PATHS P Where P MATCHES VNF(id=1)->[Vertical()]{1,6}->Server()";
      "Retrieve P From PATHS P Where P MATCHES VNF(id=1)->[Virtual()]{1,6}->Server()";
      "Retrieve P From PATHS P Where P MATCHES VM(id=1)->[Virtual()]{1,6}->VM()";
      "Retrieve P From PATHS P Where P MATCHES VNF(name='a')->[Vertical()]{1,6}->Server()";
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC()";
      "Retrieve P From PATHS P Where P MATCHES VNF()->VFC() And length(P) = 1";
    ]
  in
  let fps = List.map Stats.fingerprint corpus in
  List.iteri
    (fun i fi ->
      List.iteri
        (fun j fj ->
          if i < j then
            check_bool
              (Printf.sprintf "fingerprints %d and %d differ" i j)
              true (fi <> fj))
        fps)
    fps

let test_fingerprint_text () =
  (* The normalized text itself: literals out, bounds kept, case folded. *)
  check_str "normalized form"
    "retrieve p from paths p where p matches vnf ( id = ? ) -> [ vertical \
     ( ) ] { 1 , 6 } -> server ( name = ? )"
    (Stats.fingerprint (mk_query 7 "edge"))

(* -- table accounting ---------------------------------------------- *)

let test_accumulation () =
  Stats.reset ();
  let fp = "shape-a" in
  Stats.record ~backend:"native" ~fingerprint:fp ~rows:2 ~roundtrips:3
    ~wall_s:0.5 ();
  Stats.record ~backend:"native" ~fingerprint:fp ~rows:4 ~error:true
    ~wall_s:0.25 ();
  (* Same fingerprint on another backend is a separate entry. *)
  Stats.record ~backend:"relational" ~fingerprint:fp ~rows:1 ~wall_s:0.1 ();
  check_int "entries" 2 (Stats.count ());
  match Stats.stats () with
  | [ a; b ] ->
      check_str "heaviest first" "native" a.Stats.st_backend;
      check_int "calls" 2 a.Stats.st_calls;
      check_int "rows summed" 6 a.Stats.st_rows;
      check_int "roundtrips summed" 3 a.Stats.st_roundtrips;
      check_int "errors counted" 1 a.Stats.st_errors;
      check_bool "total time summed" true
        (Float.abs (a.Stats.st_total_s -. 0.75) < 1e-9);
      check_bool "max tracked" true (Float.abs (a.Stats.st_max_s -. 0.5) < 0.1);
      check_str "other backend separate" "relational" b.Stats.st_backend
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let test_lru_eviction () =
  Stats.reset ();
  let saved = Stats.get_capacity () in
  Stats.set_capacity 3;
  let rec_fp fp = Stats.record ~backend:"native" ~fingerprint:fp ~wall_s:0.01 () in
  rec_fp "a";
  rec_fp "b";
  rec_fp "c";
  rec_fp "a" (* refresh a: b is now least-recently used *);
  rec_fp "d";
  check_int "capacity respected" 3 (Stats.count ());
  check_int "one eviction" 1 (Stats.evictions ());
  let fps = List.map (fun s -> s.Stats.st_fingerprint) (Stats.stats ()) in
  check_bool "LRU victim evicted" true (not (List.mem "b" fps));
  check_bool "refreshed entry survives" true (List.mem "a" fps);
  Stats.set_capacity saved;
  Stats.reset ()

let test_save_load_roundtrip () =
  Stats.reset ();
  Stats.record ~backend:"native" ~fingerprint:"roundtrip-a" ~rows:3
    ~roundtrips:7 ~wall_s:0.125 ();
  Stats.record ~backend:"gremlin" ~fingerprint:"roundtrip-b" ~error:true
    ~wall_s:0.5 ();
  let path = Filename.temp_file "nepal_stats" ".tsv" in
  (match Stats.save path with Ok () -> () | Error e -> Alcotest.fail e);
  let loaded = ok (Stats.load path) in
  Sys.remove path;
  let original = Stats.stats () in
  check_int "same entry count" (List.length original) (List.length loaded);
  List.iter2
    (fun a b ->
      check_str "backend" a.Stats.st_backend b.Stats.st_backend;
      check_str "fingerprint" a.Stats.st_fingerprint b.Stats.st_fingerprint;
      check_int "calls" a.Stats.st_calls b.Stats.st_calls;
      check_int "rows" a.Stats.st_rows b.Stats.st_rows;
      check_int "roundtrips" a.Stats.st_roundtrips b.Stats.st_roundtrips;
      check_int "errors" a.Stats.st_errors b.Stats.st_errors;
      check_bool "total close" true
        (Float.abs (a.Stats.st_total_s -. b.Stats.st_total_s) < 1e-6);
      check_bool "p95 close" true
        (Float.abs (a.Stats.st_p95_s -. b.Stats.st_p95_s) < 1e-6))
    original loaded;
  Stats.reset ()

let test_load_rejects_garbage () =
  let path = Filename.temp_file "nepal_stats" ".tsv" in
  let oc = open_out path in
  output_string oc "not a dump\n";
  close_out oc;
  (match Stats.load path with
  | Ok _ -> Alcotest.fail "accepted a non-dump file"
  | Error _ -> ());
  Sys.remove path

(* -- the engine records every run ----------------------------------- *)

let model =
  {|
node_types:
  App:
    properties:
      id: int
edge_types:
  Link: {}
|}

let test_engine_records () =
  let db = Nepal.create (Nepal.Tosca.parse_exn model) in
  let at = Nepal.Time_point.of_string_exn "2017-03-01 00:00:00" in
  let a =
    ok
      (Nepal.insert_node db ~at ~cls:"App"
         ~fields:(Nepal.Strmap.of_list [ ("id", Nepal.Value.Int 1) ]))
  in
  let b =
    ok
      (Nepal.insert_node db ~at ~cls:"App"
         ~fields:(Nepal.Strmap.of_list [ ("id", Nepal.Value.Int 2) ]))
  in
  ignore
    (ok (Nepal.insert_edge db ~at ~cls:"Link" ~src:a ~dst:b
           ~fields:Nepal.Strmap.empty));
  Stats.reset ();
  let q id =
    Printf.sprintf
      "Retrieve P From PATHS P Where P MATCHES App(id=%d)->Link()->App()" id
  in
  ignore (ok (Nepal.query db (q 1)));
  ignore (ok (Nepal.query db (q 2)));
  (* Literal-only variation: both runs land on one fingerprint. *)
  check_int "one fingerprint" 1 (Stats.count ());
  (match Stats.stats () with
  | [ s ] ->
      check_int "two calls" 2 s.Stats.st_calls;
      check_int "one path total" 1 s.Stats.st_rows;
      check_bool "wall time recorded" true (s.Stats.st_total_s > 0.);
      check_bool "roundtrips recorded" true (s.Stats.st_roundtrips > 0)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  (* A failing query is still recorded, flagged as an error. *)
  (match
     Nepal.query db "Retrieve P From PATHS P Where P MATCHES NoSuchClass()"
   with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ());
  check_bool "error entry recorded" true
    (List.exists (fun s -> s.Stats.st_errors = 1) (Stats.stats ()));
  Stats.reset ()

let () =
  Alcotest.run "nepal_stat_statements"
    [
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest prop_literals_collapse;
          QCheck_alcotest.to_alcotest prop_at_collapse;
          QCheck_alcotest.to_alcotest prop_whitespace_case_collapse;
          Alcotest.test_case "distinct shapes never collide" `Quick
            test_distinct_shapes;
          Alcotest.test_case "normalized text" `Quick test_fingerprint_text;
        ] );
      ( "table",
        [
          Alcotest.test_case "accumulation" `Quick test_accumulation;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "save/load round-trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "load rejects garbage" `Quick
            test_load_rejects_garbage;
          Alcotest.test_case "engine records runs" `Quick test_engine_records;
        ] );
    ]
