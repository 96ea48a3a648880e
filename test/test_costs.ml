(* Exact per-query costs: for a fixed query set, evaluated in one fixed
   order from a fresh process, the path count and backend round-trips
   of every (backend, query) pair must equal test/golden/costs.txt, and
   its allocated words must stay within +2% / -10% of the committed
   figure. A larger drop means the code got cheaper: regenerate the file
   so the next change is measured against the new figure.

   The queries are the Table-1 set of test_golden (four families in
   snapshot, AT and range form, on the seeded 6-VNF topology) on the
   native, relational and Gremlin backends, then Table-2's four
   families on a 2,000-node flat legacy graph with 10 days of history,
   on native. Each query runs once to warm caches, then once measured.

   Two word counts are kept per pair: every word [Nepal.query_on]
   allocates, and the words allocated inside the backend's
   [bulk_extend] (the Extend operator), counted by wrapping the backend
   in {!Counting}. Both are exact only with one domain (a parallel walk
   allocates on pool domains) and only as one fixed sequence (the
   relational mirror's figures drift from one repeat to the next, the
   way its caches fill), so the test pins [NEPAL_DOMAINS] and measures
   everything once, in order.

   After the Table-1 pass one fixed churn write lands on the Table-1
   store, later than every query's window. The native range queries
   then run once more, cold: with no warm-up after the write, each must
   issue exactly the round-trips and return exactly the pathways it did
   before it. A write costs a range query nothing: validity comes back
   with the Select and Extend rows, and no connection keeps anything
   between queries that a write could make stale.

   After an intended cost change, regenerate the file from the
   repository root with
     dune build test/test_costs.exe &&
     ./_build/default/test/test_costs.exe --print > test/golden/costs.txt *)

module Nepal = Core.Nepal
module Backend = Nepal.Backend
module V = Nepal.Virt_service
module L = Nepal.Legacy
module Tp = Nepal.Time_point

let ok = function Ok v -> v | Error e -> failwith e

let extend_words = ref 0.

(* Delegates every operation to [B], counting the words [bulk_extend]
   allocates. *)
module Counting (B : Backend.S) = struct
  include B

  let bulk_extend t ~tc ~dir ~spec items =
    let w, r = Words.during (fun () -> B.bulk_extend t ~tc ~dir ~spec items) in
    extend_words := !extend_words +. w;
    r
end

let counting (conn : Backend.conn) =
  match conn.Backend.handle with
  | Backend.Handle ((module B), t) ->
      let module C = Counting (B) in
      Backend.make (module C) t

type reading = { paths : int; roundtrips : int; words : int; extend_words : int }

let measure ?(warm = true) conn q =
  if warm then ignore (ok (Nepal.query_on conn q));
  let rt0 = Backend.conn_roundtrips conn in
  extend_words := 0.;
  let w, r = Words.during (fun () -> ok (Nepal.query_on conn q)) in
  {
    paths = Nepal.Engine.result_count r;
    roundtrips = Backend.conn_roundtrips conn - rt0;
    words = int_of_float w;
    extend_words = int_of_float !extend_words;
  }

let table1 () =
  let vs = V.generate ~seed:5 ~vnf_count:6 ~server_count:12 ~virtual_networks:8 () in
  V.simulate_history ~seed:6 ~days:10 ~events_per_day:8 vs;
  let clock = Tp.to_string (Nepal.Graph_store.clock vs.V.store) in
  let families =
    [
      ("top-down", V.q_top_down ~vnf_id:vs.V.vnf_ids.(0));
      ("bottom-up", V.q_bottom_up ~server_id:vs.V.server_ids.(0));
      ("VM-VM(4)", V.q_vm_vm ~a:vs.V.container_ids.(0) ~b:vs.V.container_ids.(1));
      ("Host-Host(4)", V.q_host_host ~hops:4 ~a:vs.V.server_ids.(0) ~b:vs.V.server_ids.(1));
    ]
  in
  let forms =
    [
      ("snapshot", fun q -> q);
      ("AT", fun q -> Printf.sprintf "AT '%s' %s" clock q);
      ("range", fun q -> Printf.sprintf "AT '%s' : '%s' %s" (Tp.to_string vs.V.born) clock q);
    ]
  in
  let queries =
    List.concat_map
      (fun (family, q) ->
        List.map (fun (form, with_form) -> ("T1 " ^ family ^ " " ^ form, with_form q)) forms)
      families
  in
  let db = Nepal.of_store vs.V.store in
  let native = counting (Nepal.conn db) in
  let readings =
    [
      ("native", native);
      ("relational", counting (Nepal.relational_conn (ok (Nepal.to_relational db))));
      ("gremlin", counting (Nepal.gremlin_conn (ok (Nepal.to_gremlin db))));
    ]
    |> List.concat_map (fun (backend, conn) ->
           List.map (fun (name, q) -> (backend ^ " " ^ name, measure conn q)) queries)
  in
  V.churn_step ~rng:(Nepal.Prng.create 7)
    ~at:(Tp.add_seconds (Nepal.Graph_store.clock vs.V.store) 3600.)
    ~scale_tag:1 vs;
  let after_write =
    List.filter_map
      (fun (name, q) ->
        if String.ends_with ~suffix:" range" name then
          Some ("native " ^ name, measure ~warm:false native q)
        else None)
      queries
  in
  (readings, after_write)

let table2 () =
  let t = L.generate ~nodes:2_000 L.Flat in
  L.simulate_history ~days:10 t;
  let conn = counting (Nepal.native_conn t.L.store) in
  [
    ("service-path", L.q_service_path t ~src:t.L.service_source_ids.(0));
    ("reverse-path", L.q_reverse_path t ~sink:t.L.service_sink_ids.(0));
    ("top-down", L.q_top_down t ~src:t.L.top_ids.(0));
    ("bottom-up", L.q_bottom_up t ~dst:t.L.chain_end_ids.(0));
  ]
  |> List.map (fun (family, q) -> ("native T2 " ^ family ^ " snapshot", measure conn q))

(* The committed readings, then the native range readings after one
   write. *)
let all_readings =
  lazy
    (Unix.putenv "NEPAL_DOMAINS" "1";
     (* A slow-query trace depends on wall time; keep it off. *)
     Unix.putenv "NEPAL_SLOW_QUERY_MS" "";
     (* Bound first: the order is part of the readings, and the
        operands of [@] are evaluated right to left. *)
     let t1, after_write = table1 () in
     (t1 @ table2 (), after_write))

let readings = lazy (fst (Lazy.force all_readings))

let line (name, r) =
  Printf.sprintf "%s: paths=%d roundtrips=%d words=%d extend_words=%d\n" name r.paths
    r.roundtrips r.words r.extend_words

let golden =
  lazy
    (let ic = open_in_bin "golden/costs.txt" in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     String.split_on_char '\n' text
     |> List.filter (fun l -> l <> "")
     |> List.map (fun l ->
            match String.index_opt l ':' with
            | None -> failwith ("costs.txt: malformed line " ^ l)
            | Some i ->
                let rest = String.sub l (i + 1) (String.length l - i - 1) in
                ( String.sub l 0 i,
                  Scanf.sscanf rest " paths=%d roundtrips=%d words=%d extend_words=%d"
                    (fun paths roundtrips words extend_words ->
                      { paths; roundtrips; words; extend_words }) )))

let check_words name what ~want ~got =
  let w = float_of_int want and g = float_of_int got in
  if g > 1.02 *. w then
    Alcotest.failf "%s: %s %d > committed %d (+%.1f%%, bound +2%%)" name what got want
      (100. *. ((g /. w) -. 1.))
  else if g < 0.90 *. w then
    Alcotest.failf "%s: %s %d < committed %d (-%.1f%%): regenerate costs.txt" name what
      got want
      (100. *. (1. -. (g /. w)))

let check name () =
  let got = List.assoc name (Lazy.force readings) in
  match List.assoc_opt name (Lazy.force golden) with
  | None -> Alcotest.failf "no committed costs for %S" name
  | Some want ->
      Alcotest.(check int) (name ^ ": paths") want.paths got.paths;
      Alcotest.(check int) (name ^ ": roundtrips") want.roundtrips got.roundtrips;
      check_words name "words" ~want:want.words ~got:got.words;
      check_words name "extend_words" ~want:want.extend_words ~got:got.extend_words

(* The first run after the write matches the warm run before it. *)
let check_after_write name () =
  let before = List.assoc name (Lazy.force readings) in
  let after = List.assoc name (snd (Lazy.force all_readings)) in
  Alcotest.(check int) (name ^ ": paths after the write") before.paths after.paths;
  Alcotest.(check int)
    (name ^ ": roundtrips on the first run after the write")
    before.roundtrips after.roundtrips

(* Every measured pair has a committed line and every committed line is
   measured. *)
let check_coverage () =
  let names l = List.sort compare (List.map fst l) in
  Alcotest.(check (list string))
    "measured = committed" (names (Lazy.force golden)) (names (Lazy.force readings))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter (fun r -> print_string (line r)) (Lazy.force readings)
  else
    let names = List.map fst (Lazy.force readings) in
    let after = List.map fst (snd (Lazy.force all_readings)) in
    Alcotest.run "nepal_costs"
      [
        ("costs", List.map (fun n -> Alcotest.test_case n `Quick (check n)) names);
        ( "write",
          List.map (fun n -> Alcotest.test_case n `Quick (check_after_write n)) after );
        ("golden", [ Alcotest.test_case "coverage" `Quick check_coverage ]);
      ]
