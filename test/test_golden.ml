(* Golden translations (Section 5): for a fixed Table-1 query set on a
   small seeded virtualized topology, the SQL the relational mirror
   logs, the Gremlin the property-graph mirror logs, and both mirrors'
   EXPLAIN text must stay byte-identical to test/golden/translations.txt.
   Executor changes may make the mirrors cheaper; they may not change
   what is shipped.

   After an intended change to the translation, regenerate the file
   from the repository root with
     dune build test/test_golden.exe &&
     ./_build/default/test/test_golden.exe --print > test/golden/translations.txt *)

module Nepal = Core.Nepal
module V = Nepal.Virt_service
module Tp = Nepal.Time_point

let ok = function Ok v -> v | Error e -> failwith e

let families (vs : V.t) =
  [
    ("top-down", V.q_top_down ~vnf_id:vs.V.vnf_ids.(0));
    ("bottom-up", V.q_bottom_up ~server_id:vs.V.server_ids.(0));
    ("VM-VM(4)", V.q_vm_vm ~a:vs.V.container_ids.(0) ~b:vs.V.container_ids.(1));
    ("Host-Host(4)", V.q_host_host ~hops:4 ~a:vs.V.server_ids.(0) ~b:vs.V.server_ids.(1));
  ]

let forms (vs : V.t) =
  let clock = Tp.to_string (Nepal.Graph_store.clock vs.V.store) in
  [
    ("snapshot", fun q -> q);
    ("AT", fun q -> Printf.sprintf "AT '%s' %s" clock q);
    ("range", fun q -> Printf.sprintf "AT '%s' : '%s' %s" (Tp.to_string vs.V.born) clock q);
  ]

(* Every section, in one fixed order: the relational mirror's
   statistics and join caches are per connection and filled on first
   use, so the order is part of the golden text. *)
let sections =
  lazy
    (let vs = V.generate ~seed:5 ~vnf_count:6 ~server_count:12 ~virtual_networks:8 () in
     V.simulate_history ~seed:6 ~days:10 ~events_per_day:8 vs;
     let db = Nepal.of_store vs.V.store in
     let rb = ok (Nepal.to_relational db) in
     let gb = ok (Nepal.to_gremlin db) in
     let mirrors =
       [
         ("relational", Nepal.relational_conn rb,
          fun () -> Nepal.Relational_backend.take_log rb);
         ("gremlin", Nepal.gremlin_conn gb, fun () -> Nepal.Gremlin_backend.take_log gb);
       ]
     in
     List.concat_map
       (fun (family, base) ->
         List.map
           (fun (form, with_form) ->
             let q = with_form base in
             let b = Buffer.create 4096 in
             Printf.bprintf b "query: %s\n" q;
             List.iter
               (fun (name, conn, take_log) ->
                 let explain = ok (Nepal.query_on conn ("EXPLAIN " ^ q)) in
                 Printf.bprintf b "-- %s EXPLAIN\n%s" name
                   (Nepal.Engine.result_to_string explain);
                 ignore (take_log ());
                 let r = ok (Nepal.query_on conn q) in
                 Printf.bprintf b "-- %s log (%d rows)\n" name
                   (Nepal.Engine.result_count r);
                 List.iter (fun line -> Printf.bprintf b "%s\n" line) (take_log ()))
               mirrors;
             (family ^ " " ^ form, Buffer.contents b))
           (forms vs))
       (families vs))

let render () =
  String.concat ""
    (List.map (fun (name, text) -> Printf.sprintf "== %s\n%s" name text)
       (Lazy.force sections))

(* The committed file, cut back into sections at its "== " lines. *)
let golden =
  lazy
    (let ic = open_in_bin "golden/translations.txt" in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     let table = Hashtbl.create 16 in
     let name = ref None and body = Buffer.create 4096 in
     let flush () =
       Option.iter (fun n -> Hashtbl.replace table n (Buffer.contents body)) !name;
       Buffer.clear body
     in
     List.iter
       (fun line ->
         if String.length line >= 3 && String.sub line 0 3 = "== " then begin
           flush ();
           name := Some (String.sub line 3 (String.length line - 3))
         end
         else Printf.bprintf body "%s\n" line)
       (match List.rev (String.split_on_char '\n' text) with
       | "" :: rest -> List.rev rest
       | lines -> List.rev lines);
     flush ();
     table)

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else (i, x, y)
    | x :: _, [] -> (i, x, "<end>")
    | [], y :: _ -> (i, "<end>", y)
    | [], [] -> (i, "", "")
  in
  go 1 (la, lb)

let check_section name () =
  let actual = List.assoc name (Lazy.force sections) in
  match Hashtbl.find_opt (Lazy.force golden) name with
  | None -> Alcotest.failf "no golden section %S" name
  | Some expected ->
      if actual <> expected then
        let line, want, got = first_difference expected actual in
        Alcotest.failf "%s: line %d differs\n  golden: %s\n  now:    %s" name line
          want got

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then print_string (render ())
  else
    let names =
      let vs_names = [ "top-down"; "bottom-up"; "VM-VM(4)"; "Host-Host(4)" ] in
      List.concat_map
        (fun f -> List.map (fun form -> f ^ " " ^ form) [ "snapshot"; "AT"; "range" ])
        vs_names
    in
    Alcotest.run "nepal_golden"
      [
        ( "translations",
          List.map (fun n -> Alcotest.test_case n `Quick (check_section n)) names );
      ]
