(* The query engine beyond the paper's examples: residual filters,
   length predicates, Or/Not, cartesian joins, EXISTS, aliases,
   cross-variable field comparisons, per-variable backend binds. *)

module Nepal = Core.Nepal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tp = Nepal.Time_point.of_string_exn
let t0 = tp "2017-03-01 00:00:00"

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let model =
  {|
node_types:
  App:
    properties:
      id: int
      name: string
      tier: string
  Box:
    properties:
      id: int
      region: string
edge_types:
  RunsOn: {}
  Link: {}
|}

(* app1(tier=web) -> box1(east); app2(web) -> box2(west);
   app3(db) -> box2; boxes linked in a line box1->box2->box3. *)
let build () =
  let db = Nepal.create (Nepal.Tosca.parse_exn model) in
  let fields l = Nepal.Strmap.of_list l in
  let i n = Nepal.Value.Int n and s x = Nepal.Value.Str x in
  let node cls fs = ok (Nepal.insert_node db ~at:t0 ~cls ~fields:(fields fs)) in
  let edge cls src dst =
    ok (Nepal.insert_edge db ~at:t0 ~cls ~src ~dst ~fields:Nepal.Strmap.empty)
  in
  let app1 = node "App" [ ("id", i 1); ("name", s "shop"); ("tier", s "web") ] in
  let app2 = node "App" [ ("id", i 2); ("name", s "blog"); ("tier", s "web") ] in
  let app3 = node "App" [ ("id", i 3); ("name", s "orders"); ("tier", s "db") ] in
  let box1 = node "Box" [ ("id", i 10); ("region", s "east") ] in
  let box2 = node "Box" [ ("id", i 20); ("region", s "west") ] in
  let box3 = node "Box" [ ("id", i 30); ("region", s "west") ] in
  ignore (edge "RunsOn" app1 box1);
  ignore (edge "RunsOn" app2 box2);
  ignore (edge "RunsOn" app3 box2);
  ignore (edge "Link" box1 box2);
  ignore (edge "Link" box2 box3);
  db

let rows q db =
  match ok (Nepal.query db q) with
  | Nepal.Engine.Rows { rows; _ } -> rows
  | Nepal.Engine.Table _ -> Alcotest.fail "expected rows"

let count q db = List.length (rows q db)

let test_field_filter () =
  let db = build () in
  check_int "source field filter" 2
    (count "Retrieve P From PATHS P Where P MATCHES App()->RunsOn()->Box() \
            And source(P).tier = 'web'" db);
  check_int "target field filter" 2
    (count "Retrieve P From PATHS P Where P MATCHES App()->RunsOn()->Box() \
            And target(P).region = 'west'" db)

let test_length_filter () =
  let db = build () in
  check_int "length 1" 1
    (count "Retrieve P From PATHS P Where P MATCHES Box(id=10)->[Link()]{1,4}->Box() \
            And length(P) = 1" db);
  check_int "length >= 2" 1
    (count "Retrieve P From PATHS P Where P MATCHES Box(id=10)->[Link()]{1,4}->Box() \
            And length(P) >= 2" db)

let test_or_not_filters () =
  let db = build () in
  check_int "or over fields" 2
    (count "Retrieve P From PATHS P Where P MATCHES App() \
            And (source(P).name = 'shop' Or source(P).name = 'blog')" db);
  check_int "not" 1
    (count "Retrieve P From PATHS P Where P MATCHES App() \
            And Not (source(P).tier = 'web')" db)

let test_cross_variable_field_compare () =
  let db = build () in
  (* Apps co-located on the same box: app2 and app3 on box2 (and each
     pair counted once per orientation; exclude self-pairs by name). *)
  let n =
    count
      "Retrieve P, Q From PATHS P, PATHS Q \
       Where P MATCHES App()->RunsOn()->Box() \
       And Q MATCHES App()->RunsOn()->Box() \
       And target(P) = target(Q) \
       And source(P).id < source(Q).id"
      db
  in
  check_int "one co-located pair" 1 n

let test_cartesian_product () =
  let db = build () in
  (* No join condition: all combinations of 3 apps x 3 boxes. *)
  check_int "cartesian" 9
    (count "Retrieve P, Q From PATHS P, PATHS Q \
            Where P MATCHES App() And Q MATCHES Box()" db)

let test_exists () =
  let db = build () in
  (* Boxes that run at least one app: box1 and box2. *)
  check_int "exists" 2
    (count
       "Retrieve B From PATHS B Where B MATCHES Box() \
        And EXISTS( Retrieve P From PATHS P Where P MATCHES App()->RunsOn()->Box() \
        And target(P) = target(B) )"
       db)

let test_select_alias_and_length () =
  let db = build () in
  match
    ok
      (Nepal.query db
         "Select source(P).name AS app, length(P) AS hops From PATHS P \
          Where P MATCHES App(id=1)->RunsOn()->Box()")
  with
  | Nepal.Engine.Table { columns; rows } ->
      check_bool "aliases" true (columns = [ "app"; "hops" ]);
      check_int "one row" 1 (List.length rows);
      (match rows with
      | [ [ name; hops ] ] ->
          check_bool "name" true (Nepal.Value.equal name (Nepal.Value.Str "shop"));
          check_bool "hops" true (Nepal.Value.equal hops (Nepal.Value.Int 1))
      | _ -> Alcotest.fail "shape")
  | _ -> Alcotest.fail "expected table"

let test_binds_route_variables () =
  let db = build () in
  let rb = ok (Nepal.to_relational db) in
  let gb = ok (Nepal.to_gremlin db) in
  let q =
    "Retrieve P, L From PATHS P, PATHS L \
     Where P MATCHES App()->RunsOn()->Box(id=10) \
     And L MATCHES [Link()]{1,2} \
     And source(L) = target(P)"
  in
  let native = ok (Nepal.query db q) in
  let mixed =
    ok
      (Nepal.query_on (Nepal.conn db)
         ~binds:[ ("P", Nepal.relational_conn rb); ("L", Nepal.gremlin_conn gb) ]
         q)
  in
  check_int "mixed = native"
    (Nepal.Engine.result_count native)
    (Nepal.Engine.result_count mixed);
  check_bool "nonempty" true (Nepal.Engine.result_count native > 0)

let test_retrieve_projection_dedups () =
  let db = build () in
  (* Retrieve only Q where several P joined to the same Q must dedup. *)
  let n =
    count
      "Retrieve B From PATHS P, PATHS B \
       Where P MATCHES App()->RunsOn()->Box(id=20) \
       And B MATCHES Box(id=20) \
       And target(P) = source(B)"
      db
  in
  check_int "projected dedup" 1 n

let table q db =
  match ok (Nepal.query db q) with
  | Nepal.Engine.Table { rows; _ } -> rows
  | Nepal.Engine.Rows _ -> Alcotest.fail "expected a table"

let test_aggregation () =
  let db = build () in
  (* How many apps per box? Implicit grouping by the plain item. *)
  let trs =
    table
      "Select target(P).id, count(P) From PATHS P \
       Where P MATCHES App()->RunsOn()->Box()"
      db
  in
  let sorted = List.sort compare trs in
  (match sorted with
  | [ [ Nepal.Value.Int 10; Nepal.Value.Int 1 ]; [ Nepal.Value.Int 20; Nepal.Value.Int 2 ] ] -> ()
  | _ ->
      Alcotest.failf "unexpected groups: %s"
        (String.concat "; "
           (List.map
              (fun row -> String.concat "," (List.map Nepal.Value.to_string row))
              sorted)));
  (* Global aggregate (no plain items): one row. *)
  (match table "Select count(P) From PATHS P Where P MATCHES App()" db with
  | [ [ Nepal.Value.Int 3 ] ] -> ()
  | _ -> Alcotest.fail "global count");
  (* min/max/avg over lengths of physical paths. *)
  match
    table
      "Select min(length(P)) AS lo, max(length(P)) AS hi, avg(length(P)) AS mean \
       From PATHS P Where P MATCHES Box(id=10)->[Link()]{1,4}->Box()"
      db
  with
  | [ [ Nepal.Value.Int 1; Nepal.Value.Int 2; Nepal.Value.Float mean ] ] ->
      check_bool "avg of 1 and 2" true (abs_float (mean -. 1.5) < 1e-9)
  | _ -> Alcotest.fail "min/max/avg shape"

let test_aggregate_rejected_in_where () =
  let db = build () in
  match
    Nepal.query db
      "Retrieve P From PATHS P Where P MATCHES App() And count(P) = 3"
  with
  | Ok _ -> Alcotest.fail "aggregate accepted in Where"
  | Error _ -> ()

let test_engine_errors () =
  let db = build () in
  List.iter
    (fun q ->
      match Nepal.query db q with
      | Ok _ -> Alcotest.failf "accepted %S" q
      | Error _ -> ())
    [
      (* Unanchorable variable without a join to import from. *)
      "Retrieve P From PATHS P Where P MATCHES [Link()]{0,3}";
      (* MATCHES under Or. *)
      "Retrieve P From PATHS P Where P MATCHES App() Or P MATCHES Box()";
    ];
  (* No evaluation order is feasible: the planner's error names the
     variable that nothing anchors or reaches through a join. *)
  match
    Nepal.query db
      "Retrieve P, Q From PATHS P, PATHS Q \
       Where P MATCHES App() And Q MATCHES [Link()]{0,3}"
  with
  | Ok _ -> Alcotest.fail "accepted an unanchorable Q"
  | Error e ->
      let want = "variable \"Q\" is not anchored and cannot import an anchor" in
      check_bool "error names Q" true
        (String.length e >= String.length want
        && String.sub e 0 (String.length want) = want)

let test_invalid_at_timestamp () =
  let db = build () in
  (* An impossible civil date or wrapped seconds field in AT must surface
     as a parse error, not silently normalize into a valid instant. *)
  List.iter
    (fun ts ->
      let q =
        Printf.sprintf
          "AT '%s' Retrieve P From PATHS P Where P MATCHES App()" ts
      in
      match Nepal.query db q with
      | Ok _ -> Alcotest.failf "accepted invalid AT timestamp %S" ts
      | Error _ -> ())
    [ "2017-02-30 10:00:00"; "2017-02-15 10:00:60" ];
  (* The same query with a valid instant still runs. *)
  check_int "valid AT still works" 3
    (count "AT '2017-03-02 00:00:00' Retrieve P From PATHS P Where P MATCHES App()" db)

(* ---- result rendering ------------------------------------------------ *)

(* The renderer as it stood before the Buffer-based one — Printf per
   path element, Format per line — kept here as the oracle. Time points
   take their calendar fields from Unix.gmtime, independently of
   Time_point's own civil-date arithmetic. *)
module Oracle = struct
  let time_point t =
    let usec = Int64.to_int (Int64.rem t 1_000_000L) in
    let usec, secs =
      if usec < 0 then (usec + 1_000_000, Int64.sub (Int64.div t 1_000_000L) 1L)
      else (usec, Int64.div t 1_000_000L)
    in
    let tm = Unix.gmtime (Int64.to_float secs) in
    let base =
      Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
    in
    if usec = 0 then base else Printf.sprintf "%s.%06d" base usec

  let interval (i : Nepal.Interval.t) =
    match i.stop with
    | None -> Printf.sprintf "[%s, )" (time_point i.start)
    | Some e -> Printf.sprintf "[%s, %s)" (time_point i.start) (time_point e)

  let pp_set ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf i -> Format.pp_print_string ppf (interval i)))
      (Nepal.Interval_set.to_list s)

  let path (t : Nepal.Path.t) =
    let elem (e : Nepal.Path.element) =
      if e.is_node then Printf.sprintf "(%s#%d)" e.cls e.uid
      else Printf.sprintf "-[%s#%d]->" e.cls e.uid
    in
    let body = String.concat "" (List.map elem t.elements) in
    match t.valid with
    | None -> body
    | Some v -> body ^ " valid " ^ Format.asprintf "%a" pp_set v

  let value = function
    | Nepal.Value.Time t -> Printf.sprintf "'%s'" (time_point t)
    | v -> Nepal.Value.to_string v

  let pp_result ppf = function
    | Nepal.Engine.Rows { vars; rows } ->
        Format.fprintf ppf "%d row(s) of (%s)@." (List.length rows)
          (String.concat ", " vars);
        List.iter
          (fun (r : Nepal.Engine.row) ->
            List.iter
              (fun (v, p) -> Format.fprintf ppf "  %s = %s@." v (path p))
              (Nepal.Strmap.bindings r.paths);
            match r.coexist with
            | Some s -> Format.fprintf ppf "  coexist %a@." pp_set s
            | None -> ())
          rows
    | Nepal.Engine.Table { columns = [ "explain" ]; rows } ->
        List.iter
          (fun vals ->
            match vals with
            | [ Nepal.Value.Str line ] -> Format.fprintf ppf "%s@." line
            | vals ->
                Format.fprintf ppf "%s@." (String.concat " | " (List.map value vals)))
          rows
    | Nepal.Engine.Table { columns; rows } ->
        Format.fprintf ppf "%s@." (String.concat " | " columns);
        List.iter
          (fun vals ->
            Format.fprintf ppf "%s@." (String.concat " | " (List.map value vals)))
          rows
end

let gen_result =
  let open QCheck.Gen in
  (* 1653 .. 2096, with and without a microsecond part *)
  let time =
    map2
      (fun s us -> Int64.add (Int64.mul (Int64.of_int s) 1_000_000L) (Int64.of_int us))
      (int_range (-10_000_000_000) 4_000_000_000)
      (frequency [ (3, return 0); (1, int_range 0 999_999) ])
  in
  let interval =
    map2
      (fun start len ->
        let stop = Option.map (fun l -> Int64.add start (Int64.of_int l)) len in
        Nepal.Interval.make start stop)
      time
      (opt (int_range 1 1_000_000_000_000))
  in
  let iset = map Nepal.Interval_set.of_list (list_size (int_range 1 4) interval) in
  let name = oneofl [ "VM"; "Host"; "VirtualLink"; "Container_2"; "x y"; "é" ] in
  let element is_node =
    map2
      (fun uid cls -> { Nepal.Path.uid; cls; fields = Nepal.Strmap.empty; is_node })
      (int_range (-5) 10_000_000) name
  in
  let path =
    int_range 0 6 >>= fun hops ->
    flatten_l (List.init ((2 * hops) + 1) (fun k -> element (k mod 2 = 0)))
    >>= fun elements ->
    map (fun valid -> { Nepal.Path.elements; valid }) (opt iset)
  in
  let rows_result =
    list_size (int_range 1 3) (oneofl [ "P"; "Q"; "route_1" ]) >>= fun vars ->
    let vars = List.sort_uniq String.compare vars in
    let row =
      flatten_l (List.map (fun v -> map (fun p -> (v, p)) path) vars)
      >>= fun bound ->
      map
        (fun coexist -> { Nepal.Engine.paths = Nepal.Strmap.of_list bound; coexist })
        (opt iset)
    in
    map (fun rows -> Nepal.Engine.Rows { vars; rows }) (list_size (int_range 0 6) row)
  in
  let value =
    frequency
      [
        (2, map (fun s -> Nepal.Value.Str s) (string_size ~gen:printable (int_range 0 20)));
        (2, map (fun i -> Nepal.Value.Int i) int);
        (1, map (fun f -> Nepal.Value.Float f) float);
        (1, map (fun t -> Nepal.Value.Time t) time);
        (1, oneofl [ Nepal.Value.Null; Nepal.Value.Bool true ]);
      ]
  in
  let table_result =
    oneofl [ [ "explain" ]; [ "n" ]; [ "P.src"; "total" ] ] >>= fun columns ->
    map
      (fun rows -> Nepal.Engine.Table { columns; rows })
      (list_size (int_range 0 5) (list_size (int_range 1 3) value))
  in
  frequency [ (4, rows_result); (1, table_result) ]

let prop_render_matches_oracle =
  QCheck.Test.make ~name:"pp_result = the Printf/Format renderer, byte for byte"
    ~count:500 (QCheck.make gen_result) (fun r ->
      let expected = Format.asprintf "%a" Oracle.pp_result r in
      let got = Format.asprintf "%a" Nepal.Engine.pp_result r in
      if got <> expected then
        QCheck.Test.fail_reportf "rendered:\n%s\noracle:\n%s" got expected;
      String.equal (Nepal.Engine.result_to_string r) expected)

let () =
  Alcotest.run "nepal_engine"
    [
      ( "filters",
        [
          Alcotest.test_case "field filters" `Quick test_field_filter;
          Alcotest.test_case "length filters" `Quick test_length_filter;
          Alcotest.test_case "or/not" `Quick test_or_not_filters;
        ] );
      ( "joins",
        [
          Alcotest.test_case "cross-variable fields" `Quick test_cross_variable_field_compare;
          Alcotest.test_case "cartesian" `Quick test_cartesian_product;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "retrieve projection dedup" `Quick test_retrieve_projection_dedups;
        ] );
      ( "output",
        [
          Alcotest.test_case "select aliases" `Quick test_select_alias_and_length;
          Alcotest.test_case "aggregation" `Quick test_aggregation;
          Alcotest.test_case "aggregate in Where rejected" `Quick
            test_aggregate_rejected_in_where;
        ] );
      ( "integration",
        [ Alcotest.test_case "per-variable binds" `Quick test_binds_route_variables ] );
      ( "errors",
        [
          Alcotest.test_case "engine errors" `Quick test_engine_errors;
          Alcotest.test_case "invalid AT timestamp" `Quick test_invalid_at_timestamp;
        ] );
      ("rendering", [ QCheck_alcotest.to_alcotest prop_render_matches_oracle ]);
    ]
