(* The `nepal` command-line tool: inspect the layered model, generate
   the evaluation topologies, run Nepal queries against them (on any
   backend), and open an interactive query loop. *)

module Nepal = Core.Nepal
open Cmdliner

(* ---- shared setup --------------------------------------------------- *)

type topology = Virt | Legacy_flat | Legacy_classed

let topology_conv =
  let parse = function
    | "virt" -> Ok Virt
    | "legacy" | "legacy-flat" -> Ok Legacy_flat
    | "legacy-classed" -> Ok Legacy_classed
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S (virt|legacy|legacy-classed)" s))
  in
  let print ppf = function
    | Virt -> Format.pp_print_string ppf "virt"
    | Legacy_flat -> Format.pp_print_string ppf "legacy"
    | Legacy_classed -> Format.pp_print_string ppf "legacy-classed"
  in
  Arg.conv (parse, print)

let topology_arg =
  Arg.(value & opt topology_conv Virt
       & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
           ~doc:"Topology to generate: $(b,virt) (the virtualized service), \
                 $(b,legacy) (flat legacy graph), or $(b,legacy-classed).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let scale_arg =
  Arg.(value & opt int 8000
       & info [ "nodes" ] ~docv:"N" ~doc:"Node count for the legacy topology.")

let history_arg =
  Arg.(value & flag
       & info [ "history" ] ~doc:"Simulate the 60-day churn history after loading.")

let backend_arg =
  Arg.(value & opt (enum [ ("native", `Native); ("relational", `Relational); ("gremlin", `Gremlin) ]) `Native
       & info [ "b"; "backend" ] ~docv:"BACKEND"
           ~doc:"Execution target: $(b,native), $(b,relational) or $(b,gremlin).")

let build_store topology seed nodes history =
  match topology with
  | Virt ->
      let t = Nepal.Virt_service.generate ~seed () in
      if history then Nepal.Virt_service.simulate_history ~seed:(seed + 1) t;
      t.Nepal.Virt_service.store
  | Legacy_flat ->
      let t = Nepal.Legacy.generate ~seed ~nodes Nepal.Legacy.Flat in
      if history then Nepal.Legacy.simulate_history ~seed:(seed + 1) t;
      t.Nepal.Legacy.store
  | Legacy_classed ->
      let t = Nepal.Legacy.generate ~seed ~nodes Nepal.Legacy.Classed in
      if history then Nepal.Legacy.simulate_history ~seed:(seed + 1) t;
      t.Nepal.Legacy.store

let connect backend store =
  match backend with
  | `Native -> Ok (Nepal.native_conn store)
  | `Relational -> (
      match Nepal.to_relational (Nepal.of_store store) with
      | Ok rb -> Ok (Nepal.relational_conn rb)
      | Error e -> Error e)
  | `Gremlin -> (
      match Nepal.to_gremlin (Nepal.of_store store) with
      | Ok gb -> Ok (Nepal.gremlin_conn gb)
      | Error e -> Error e)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* ---- subcommands ----------------------------------------------------- *)

let schema_cmd =
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"TOSCA schema file to validate (defaults to the built-in layered model).")
  in
  let run file =
    match file with
    | None ->
        print_string (Nepal.Model.tosca ());
        `Ok ()
    | Some path -> (
        let ic = open_in path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Nepal.Tosca.parse text with
        | Ok s ->
            Format.printf "%a" Nepal.Schema.pp s;
            `Ok ()
        | Error e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Print the built-in layered network model, or validate a TOSCA file.")
    Term.(ret (const run $ file))

let generate_cmd =
  let run topology seed nodes history =
    let store = build_store topology seed nodes history in
    Format.printf "nodes:            %d@."
      (Nepal.Graph_store.count_current store ~cls:"Node");
    Format.printf "edges:            %d@."
      (Nepal.Graph_store.count_current store ~cls:"Edge");
    Format.printf "entities (ever):  %d@." (Nepal.Graph_store.count_entities store);
    Format.printf "stored versions:  %d@." (Nepal.Graph_store.count_versions store);
    Format.printf "class histogram:@.";
    List.iter
      (fun (cls, n) -> Format.printf "  %-24s %6d@." cls n)
      (Nepal.Graph_store.class_histogram store);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate an evaluation topology and print its statistics.")
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg))

let run_query conn text =
  let t0 = Unix.gettimeofday () in
  match Nepal.query_on conn text with
  | Error e -> Error e
  | Ok result ->
      let dt = Unix.gettimeofday () -. t0 in
      Nepal.Engine.pp_result Format.std_formatter result;
      Format.printf "(%d result(s) in %.3f s)@." (Nepal.Engine.result_count result) dt;
      Ok ()

let query_cmd =
  let text =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY" ~doc:"The Nepal query text.")
  in
  let run topology seed nodes history backend text =
    let store = build_store topology seed nodes history in
    match connect backend store with
    | Error e -> `Error (false, e)
    | Ok conn -> (
        match run_query conn text with
        | Ok () -> `Ok ()
        | Error e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a Nepal query against a generated topology."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal query -t virt \"Retrieve P From PATHS P Where P MATCHES \
               VNF(id=100)->[Vertical()]{1,6}->Server()\"";
         ])
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg
               $ backend_arg $ text))

let explain_cmd =
  let text =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY" ~doc:"The Nepal query text (without the EXPLAIN prefix).")
  in
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Execute the query and report measured per-operator spans \
                   (wall time, row counts, backend round-trips) instead of \
                   the planned DAG.")
  in
  let run topology seed nodes history backend analyze text =
    let store = build_store topology seed nodes history in
    match connect backend store with
    | Error e -> `Error (false, e)
    | Ok conn -> (
        let prefixed =
          (if analyze then "EXPLAIN ANALYZE " else "EXPLAIN ") ^ text
        in
        match Nepal.query_on conn prefixed with
        | Error e -> `Error (false, e)
        | Ok result ->
            Nepal.Engine.pp_result Format.std_formatter result;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the planned operator DAG for a query ($(b,--analyze): \
             execute it and report measured per-operator spans)."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal explain --analyze -b relational \"Retrieve P From PATHS P \
               Where P MATCHES VM()->[Virtual()]->VM()\"";
         ])
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg
               $ backend_arg $ analyze $ text))

let repl_cmd =
  let run topology seed nodes history backend =
    let store = build_store topology seed nodes history in
    match connect backend store with
    | Error e -> `Error (false, e)
    | Ok conn ->
        Format.printf "nepal> loaded %d nodes / %d edges; empty line quits.@."
          (Nepal.Graph_store.count_current store ~cls:"Node")
          (Nepal.Graph_store.count_current store ~cls:"Edge");
        let rec loop () =
          Format.printf "nepal> %!";
          match In_channel.input_line stdin with
          | None | Some "" -> `Ok ()
          | Some line ->
              (match run_query conn line with
              | Ok () -> ()
              | Error e -> Format.printf "error: %s@." e);
              loop ()
        in
        loop ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive Nepal query loop over a generated topology.")
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg $ backend_arg))

let paths_cmd =
  let text =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"RPE" ~doc:"A regular pathway expression.")
  in
  let at =
    Arg.(value & opt (some string) None
         & info [ "at" ] ~docv:"TS" ~doc:"Evaluate as a timeslice at this instant.")
  in
  let run topology seed nodes history text at =
    let store = build_store topology seed nodes history in
    let db = Nepal.of_store store in
    let tc =
      match at with
      | None -> Ok Nepal.Time_constraint.Snapshot
      | Some ts -> (
          match Nepal.Time_point.of_string ts with
          | Ok t -> Ok (Nepal.Time_constraint.at t)
          | Error e -> Error e)
    in
    match tc with
    | Error e -> `Error (false, e)
    | Ok tc -> (
        match Nepal.find_paths db ~tc text with
        | Error e -> `Error (false, e)
        | Ok paths ->
            List.iter (fun p -> Format.printf "%s@." (Nepal.Path.to_string p)) paths;
            Format.printf "(%d pathway(s))@." (List.length paths);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Evaluate a bare RPE and print the matching pathways.")
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg $ text $ at))

let when_exists_cmd =
  let text =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"RPE" ~doc:"A regular pathway expression.")
  in
  let from_arg =
    Arg.(required & opt (some string) None
         & info [ "from" ] ~docv:"TS" ~doc:"Window start.")
  in
  let to_arg =
    Arg.(required & opt (some string) None
         & info [ "to" ] ~docv:"TS" ~doc:"Window end.")
  in
  let run topology seed nodes history text from_ to_ =
    let store = build_store topology seed nodes history in
    let db = Nepal.of_store store in
    let parse ts = Nepal.Time_point.of_string ts in
    match (parse from_, parse to_) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok a, Ok b -> (
        match
          Result.bind (Nepal.Rpe_parser.parse text) (fun r ->
              Result.bind (Nepal.Rpe.validate (Nepal.schema db) r) (fun norm ->
                  Nepal.Temporal_agg.when_exists (Nepal.conn db) ~window:(a, b) norm))
        with
        | Error e -> `Error (false, e)
        | Ok set ->
            if Nepal.Interval_set.is_empty set then
              Format.printf "never@."
            else
              List.iter
                (fun iv -> Format.printf "%s@." (Nepal.Interval.to_string iv))
                (Nepal.Interval_set.to_list set);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "when-exists"
       ~doc:"When (within a window) did a satisfying pathway exist?              (the Section 4 temporal aggregation)")
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg
               $ text $ from_arg $ to_arg))

(* ---- static analysis ------------------------------------------------- *)

(* Corpus format for `nepal check --file`: queries separated by blank
   lines; `#` starts a comment line; `#schema virt|legacy|legacy-classed`
   switches the catalog for subsequent queries; a `#tosca` .. `#end`
   block installs an inline TOSCA schema. *)
type corpus_item = { ci_line : int; ci_schema : Nepal.Schema.t; ci_text : string }

let parse_corpus ~default_schema path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lines = String.split_on_char '\n' text in
  let schema = ref default_schema in
  let items = ref [] in
  let buf = ref [] and buf_line = ref 0 in
  let flush_query () =
    (match List.rev !buf with
    | [] -> ()
    | ls ->
        items :=
          { ci_line = !buf_line; ci_schema = !schema; ci_text = String.concat "\n" ls }
          :: !items);
    buf := []
  in
  let err = ref None in
  let rec go n = function
    | [] -> ()
    | line :: rest when String.trim line = "" ->
        flush_query ();
        go (n + 1) rest
    | line :: rest when String.trim line = "#tosca" ->
        flush_query ();
        let block = ref [] in
        let rest = ref rest and n' = ref (n + 1) in
        while
          match !rest with
          | l :: tl when String.trim l <> "#end" ->
              block := l :: !block;
              rest := tl;
              incr n';
              true
          | _ -> false
        do () done;
        (match !rest with
        | _ :: tl ->
            rest := tl;
            incr n'
        | [] -> err := Some (Printf.sprintf "line %d: #tosca block never closed with #end" n));
        (match Nepal.Tosca.parse (String.concat "\n" (List.rev !block)) with
        | Ok s -> schema := s
        | Error e ->
            err := Some (Printf.sprintf "line %d: inline TOSCA: %s" n e));
        go !n' !rest
    | line :: rest when String.length (String.trim line) > 0 && (String.trim line).[0] = '#' ->
        let t = String.trim line in
        (match String.split_on_char ' ' t with
        | "#schema" :: name :: _ -> (
            match String.trim name with
            | "virt" -> schema := Nepal.Model.schema ()
            | "legacy" | "legacy-flat" -> schema := Nepal.Legacy.(schema Flat)
            | "legacy-classed" -> schema := Nepal.Legacy.(schema Classed)
            | other ->
                err := Some (Printf.sprintf "line %d: unknown #schema %S" n other))
        | _ -> () (* plain comment *));
        go (n + 1) rest
    | line :: rest ->
        if !buf = [] then buf_line := n;
        buf := line :: !buf;
        go (n + 1) rest
  in
  go 1 lines;
  flush_query ();
  match !err with Some e -> Error e | None -> Ok (List.rev !items)

let check_cmd =
  let text =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"QUERY" ~doc:"The Nepal query text to analyze.")
  in
  let file_arg =
    Arg.(value & opt (some file) None
         & info [ "file" ] ~docv:"PATH"
             ~doc:"Analyze every query in a corpus file instead of a single \
                   positional QUERY. Queries are separated by blank lines; \
                   $(b,#) starts a comment; $(b,#schema \
                   virt|legacy|legacy-classed) switches the catalog; a \
                   $(b,#tosca)..$(b,#end) block installs an inline schema.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero on warnings as well as errors (hints never \
                   affect the exit status).")
  in
  let run topology seed nodes history backend file json strict text =
    let gate = ref false in
    let json_items = ref [] in
    let report ~source ~label diags =
      let bad =
        List.exists
          (fun (d : Nepal.Diagnostic.t) ->
            match d.Nepal.Diagnostic.severity with
            | Nepal.Diagnostic.Error -> true
            | Nepal.Diagnostic.Warning -> strict
            | Nepal.Diagnostic.Hint -> false)
          diags
      in
      if bad then gate := true;
      if json then
        json_items :=
          List.map (fun d -> (label, Nepal.Diagnostic.to_json d)) diags
          @ !json_items
      else if diags <> [] then begin
        if label <> "" then Format.printf "%s@." label;
        List.iter
          (fun d ->
            Format.printf "%s@." (Nepal.Diagnostic.render ~source d))
          diags
      end
    in
    let outcome =
      match file with
      | Some path -> (
          let default_schema =
            match topology with
            | Virt -> Nepal.Model.schema ()
            | Legacy_flat -> Nepal.Legacy.(schema Flat)
            | Legacy_classed -> Nepal.Legacy.(schema Classed)
          in
          match parse_corpus ~default_schema path with
          | Error e -> Error e
          | Ok items ->
              List.iter
                (fun { ci_line; ci_schema; ci_text } ->
                  report ~source:ci_text
                    ~label:(Printf.sprintf "%s:%d:" path ci_line)
                    (Nepal.Analysis.analyze_string ~schema:ci_schema ci_text))
                items;
              Ok (List.length items))
      | None -> (
          match text with
          | None -> Error "pass a QUERY argument or --file PATH"
          | Some q -> (
              (* A live backend supplies cardinality estimates, enabling
                 the cost hints (NPL019); analysis never executes the
                 query. *)
              let store = build_store topology seed nodes history in
              match connect backend store with
              | Error e -> Error e
              | Ok conn ->
                  report ~source:q ~label:"" (Nepal.check_on conn q);
                  Ok 1))
    in
    match outcome with
    | Error e -> `Error (false, e)
    | Ok n ->
        if json then begin
          let items = List.rev !json_items in
          print_string "[";
          List.iteri
            (fun i (label, j) ->
              if i > 0 then print_string ",";
              Printf.printf "\n  {\"query\": \"%s\", \"diagnostic\": %s}"
                (String.concat ""
                   (List.map
                      (function
                        | '"' -> "\\\"" | '\\' -> "\\\\"
                        | c -> String.make 1 c)
                      (List.init (String.length label) (String.get label))))
                j)
            items;
          print_string "\n]\n"
        end
        else if not !gate then
          Format.printf "%d quer%s analyzed, no blocking diagnostics.@." n
            (if n = 1 then "y" else "ies");
        if !gate then `Error (false, "static analysis found blocking diagnostics")
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically analyze queries against a schema catalog without \
             executing them: unknown concepts and fields with suggestions, \
             predicate/literal type errors, schema-unsatisfiable patterns, \
             dead union branches, temporal contradictions, and cost lints."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal check \"Retrieve P From PATHS P Where P MATCHES \
               Container()->VirtualLink()->Container()\"";
           `P "nepal check --strict --file examples/queries.nepal";
         ])
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg
               $ backend_arg $ file_arg $ json_arg $ strict_arg $ text))

(* ---- observability subcommands --------------------------------------- *)

let stats_cmd =
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N" ~doc:"Show only the N heaviest statements.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the table as JSON.")
  in
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "file" ] ~docv:"PATH"
             ~doc:"Statement-statistics dump to read (defaults to \
                   \\$NEPAL_STATS_DUMP). Produce one by running any nepal \
                   or bench process with NEPAL_STATS_DUMP=PATH set.")
  in
  let watch_arg =
    Arg.(value & opt (some float) None ~vopt:(Some 2.)
         & info [ "watch" ] ~docv:"SECS"
             ~doc:"Re-read and re-render the dump every SECS seconds \
                   (default 2 when the option is given bare) until \
                   interrupted — a live view of a running process that \
                   rewrites its dump.")
  in
  let run top json file watch =
    let path =
      match file with
      | Some p -> Some p
      | None -> (
          match Sys.getenv_opt "NEPAL_STATS_DUMP" with
          | Some p when p <> "" -> Some p
          | _ -> None)
    in
    match path with
    | None ->
        `Error
          (false,
           "no dump to read: pass --file PATH or set NEPAL_STATS_DUMP \
            (the same variable makes query-running processes write the \
            dump at exit)")
    | Some path -> (
        let render () =
          match Nepal.Stat_statements.load path with
          | Error e -> Error e
          | Ok sts ->
              if json then
                print_string (Nepal.Stat_statements.render_stats_json ~top sts)
              else print_string (Nepal.Stat_statements.render_stats ~top sts);
              Ok ()
        in
        match watch with
        | None -> (
            match render () with
            | Error e -> `Error (false, e)
            | Ok () -> `Ok ())
        | Some interval ->
            let interval = Float.max 0.1 interval in
            let rec loop () =
              (* \027[H\027[2J: cursor home + clear, like watch(1). *)
              print_string "\027[H\027[2J";
              Printf.printf "%s  (every %gs, ctrl-c to stop)\n\n" path interval;
              (match render () with
              | Ok () -> ()
              | Error e -> Printf.printf "(%s — retrying)\n" e);
              flush stdout;
              Unix.sleepf interval;
              loop ()
            in
            loop ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Render cumulative per-statement statistics (calls, rows, \
             round-trips, latency quantiles) from a NEPAL_STATS_DUMP file."
       ~man:
         [
           `S Manpage.s_examples;
           `P "NEPAL_STATS_DUMP=/tmp/stats.tsv dune exec bench/main.exe -- table1; \
               nepal stats --top 5 --file /tmp/stats.tsv";
           `P "nepal stats --watch 1 --file /tmp/stats.tsv";
         ])
    Term.(ret (const run $ top_arg $ json_arg $ file_arg $ watch_arg))

(* ---- JSONL server / client ------------------------------------------- *)

(* Per-session runner on the Nepal.query_on path, so wire answers carry
   exactly the text (and enriched errors) the in-process API produces. *)
let session_runner store () =
  let conn = Nepal.native_conn store in
  let reply ?trace result =
    {
      Nepal.Server.qr_count = Nepal.Engine.result_count result;
      qr_text = Nepal.Engine.result_to_string result;
      qr_trace = trace;
    }
  in
  fun ~trace text ->
    if trace then
      match Nepal.Explain.run_string_wire_traced ~conn text with
      | Ok tr ->
          Ok
            (reply
               ~trace:(Nepal.Explain.traced_json tr)
               tr.Nepal.Explain.tr_result)
      | Error e -> Error e
    else
      match Nepal.query_on conn text with
      | Ok result -> Ok (reply result)
      | Error e -> Error e

let wire_port_arg =
  Arg.(value & opt int 9642
       & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port of the JSONL endpoint.")

(* One HTTP/1.0 GET against a local exporter: the whole response. *)
let http_get ~addr ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        Unix.connect fd (Unix.ADDR_INET (addr, port));
        let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req) : int);
        let buf = Buffer.create 8192 and chunk = Bytes.create 4096 in
        let rec go () =
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          end
        in
        go ();
        Ok (Buffer.contents buf)
      with Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "GET %s: %s: %s" path fn (Unix.error_message e)))

(* The smoke's exposition check: the scrape must carry the live
   server's request counter, already bumped by the smoke's own
   round-trips. *)
let check_scrape response =
  let prefix = "nepal_server_requests_total " in
  let value line =
    if String.starts_with ~prefix line then
      float_of_string_opt
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
    else None
  in
  match List.find_map value (String.split_on_char '\n' response) with
  | Some v when v >= 2. -> Ok ()
  | Some v -> Error (Printf.sprintf "/metrics reports %g server requests" v)
  | None -> Error "/metrics has no server.requests family"

let serve_cmd =
  let max_sessions_arg =
    Arg.(value & opt int 64
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Refuse connections beyond N concurrent sessions.")
  in
  let workers_arg =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Query-executor domains (default: \\$NEPAL_DOMAINS or the \
                   core count).")
  in
  let debounce_arg =
    Arg.(value & opt (some float) None
         & info [ "debounce" ] ~docv:"MS"
             ~doc:"Watch debounce window in milliseconds.")
  in
  let metrics_port_arg =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Also export the server's metrics registry as OpenMetrics \
                   (GET /metrics) on PORT, bound to the server's address. \
                   Off when not given.")
  in
  let smoke_arg =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Start on a free port, run one loopback round-trip, verify \
                   it against in-process evaluation, scrape /metrics from an \
                   exporter on another free port, shut down cleanly, exit.")
  in
  let run topology seed nodes history port max_sessions workers debounce
      metrics_port smoke =
    let store = build_store topology seed nodes history in
    let config =
      {
        Nepal.Server.default_config with
        port = (if smoke then 0 else port);
        max_sessions;
        workers;
        debounce_ms = debounce;
      }
    in
    let start_exporter () =
      match if smoke then Some 0 else metrics_port with
      | None -> Ok None
      | Some port ->
          Result.map Option.some
            (Nepal.Http_metrics.start ~addr:config.addr ~port
               ~render:Nepal.Metrics.render_openmetrics ())
    in
    let started =
      match
        Nepal.Server.start ~config ~make_runner:(session_runner store) store
      with
      | Error e -> Error e
      | Ok server -> (
          match start_exporter () with
          | Ok exporter -> Ok (server, exporter)
          | Error e ->
              Nepal.Server.stop server;
              Error ("metrics exporter: " ^ e))
    in
    match started with
    | Error e -> `Error (false, e)
    | Ok (server, exporter) ->
        let shutdown () =
          Option.iter Nepal.Http_metrics.stop exporter;
          Nepal.Server.stop server
        in
        if smoke then begin
          let q = "Retrieve P From PATHS P Where P MATCHES VNF()->VFC()" in
          let outcome =
            match
              Nepal.Server_client.connect ~port:(Nepal.Server.port server) ()
            with
            | Error e -> Error e
            | Ok client ->
                let ( let* ) = Result.bind in
                let r =
                  let* () = Nepal.Server_client.ping client in
                  let* reply = Nepal.Server_client.query client q in
                  let* count =
                    match (session_runner store ()) ~trace:false q with
                    | Error e -> Error ("in-process check failed: " ^ e)
                    | Ok local
                      when local.Nepal.Server.qr_text
                           = reply.Nepal.Server.qr_text
                           && local.qr_count = reply.qr_count ->
                        Ok reply.qr_count
                    | Ok _ ->
                        Error "wire result differs from in-process evaluation"
                  in
                  (* traced round-trip: same result text, plus a
                     renderable span tree in the trace member *)
                  let* traced = Nepal.Server_client.query_traced client q in
                  let* () =
                    match traced.Nepal.Server.qr_trace with
                    | Some tr
                      when traced.Nepal.Server.qr_text
                           = reply.Nepal.Server.qr_text
                           && Nepal.Wire.render_trace tr <> [] ->
                        Ok ()
                    | Some _ -> Error "traced reply malformed"
                    | None -> Error "traced query returned no trace member"
                  in
                  (* introspect round-trip: this session must be visible *)
                  let* ins = Nepal.Server_client.introspect client in
                  let* () =
                    match
                      ( Nepal_util.Jsonp.member "sessions" ins,
                        Nepal_util.Jsonp.member "executor" ins )
                    with
                    | Some (Nepal.Event_log.List (_ :: _)), Some _ -> Ok ()
                    | _ -> Error "introspect frame missing sessions/executor"
                  in
                  (* the same process's registry over OpenMetrics *)
                  let* () =
                    match exporter with
                    | None -> Error "no metrics exporter"
                    | Some ex ->
                        let* response =
                          http_get ~addr:config.addr
                            ~port:(Nepal.Http_metrics.port ex) "/metrics"
                        in
                        check_scrape response
                  in
                  Ok count
                in
                Nepal.Server_client.close client;
                r
          in
          shutdown ();
          match outcome with
          | Ok count ->
              Format.printf
                "smoke ok: %d result(s), /metrics scraped, clean shutdown@."
                count;
              `Ok ()
          | Error e -> `Error (false, "smoke failed: " ^ e)
        end
        else begin
          Format.printf
            "serving nepal JSONL on port %d (max %d sessions; ctrl-c to stop)@."
            (Nepal.Server.port server) max_sessions;
          Option.iter
            (fun ex ->
              Format.printf "serving OpenMetrics on http://%s:%d/metrics@."
                (Unix.string_of_inet_addr config.addr)
                (Nepal.Http_metrics.port ex))
            exporter;
          Format.print_flush ();
          Nepal.Server.wait server;
          shutdown ();
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the generated topology over the line-oriented JSONL wire \
             protocol: query/watch/unwatch/stats/ping/introspect verbs, \
             concurrent sessions, streamed path alerts; with \
             --metrics-port, the live registry over OpenMetrics too."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal serve --history -p 9642";
           `P "nepal serve --metrics-port 9464   # curl localhost:9464/metrics";
           `P "nepal serve --smoke";
           `P "echo '{\"op\":\"query\",\"id\":1,\"q\":\"Retrieve P From PATHS \
               P Where P MATCHES VNF()->VFC()\"}' | nc localhost 9642";
         ])
    Term.(ret (const run $ topology_arg $ seed_arg $ scale_arg $ history_arg
               $ wire_port_arg $ max_sessions_arg $ workers_arg $ debounce_arg
               $ metrics_port_arg $ smoke_arg))

let client_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"IPv4 address of the server.")
  in
  let query_pos =
    Arg.(value & pos_all string []
         & info [] ~docv:"QUERY"
             ~doc:"Queries to run (quote each); with none, opens an \
                   interactive loop.")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Send {\"trace\": true} with each query and render the \
                   returned span tree (EXPLAIN ANALYZE over the wire).")
  in
  let print_reply (reply : Nepal.Server.query_reply) =
    print_string reply.Nepal.Server.qr_text;
    Printf.printf "(%d result(s))\n" reply.Nepal.Server.qr_count;
    (match reply.Nepal.Server.qr_trace with
    | Some tr ->
        print_newline ();
        List.iter print_endline (Nepal.Wire.render_trace tr)
    | None -> ());
    flush stdout
  in
  let drain_events client =
    let rec go () =
      match Nepal.Server_client.next_event ~timeout_s:0.05 client with
      | Some e ->
          print_endline (Nepal_util.Jsonp.to_string e);
          go ()
      | None -> ()
    in
    go ()
  in
  let interactive client =
    print_endline
      "connected; enter a query, or :trace QUERY, :watch QUERY, :unwatch N, \
       :stats, :ping, :quit (alerts print before each prompt)";
    let starts_with prefix s =
      String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    in
    let rec loop () =
      drain_events client;
      print_string "nepal> ";
      flush stdout;
      match input_line stdin with
      | exception End_of_file -> ()
      | line -> (
          let line = String.trim line in
          let continue = ref true in
          (if line = "" then ()
           else if line = ":quit" || line = ":q" then continue := false
           else if line = ":ping" then
             match Nepal.Server_client.ping client with
             | Ok () -> print_endline "pong"
             | Error e -> Printf.printf "error: %s\n" e
           else if line = ":stats" then
             match Nepal.Server_client.stats client with
             | Ok j -> print_endline (Nepal_util.Jsonp.to_string j)
             | Error e -> Printf.printf "error: %s\n" e
           else if starts_with ":trace " line then
             let q = String.trim (String.sub line 7 (String.length line - 7)) in
             match Nepal.Server_client.query_traced client q with
             | Ok reply -> print_reply reply
             | Error e -> Printf.printf "error: %s\n" e
           else if starts_with ":watch " line then
             let q = String.trim (String.sub line 7 (String.length line - 7)) in
             match Nepal.Server_client.watch client q with
             | Ok w -> Printf.printf "watch %d registered\n" w
             | Error e -> Printf.printf "error: %s\n" e
           else if starts_with ":unwatch " line then
             let arg = String.trim (String.sub line 9 (String.length line - 9)) in
             match int_of_string_opt arg with
             | None -> print_endline "usage: :unwatch N"
             | Some w -> (
                 match Nepal.Server_client.unwatch client w with
                 | Ok true -> Printf.printf "watch %d removed\n" w
                 | Ok false -> Printf.printf "no watch %d on this session\n" w
                 | Error e -> Printf.printf "error: %s\n" e)
           else
             match Nepal.Server_client.query client line with
             | Ok reply -> print_reply reply
             | Error e -> Printf.printf "error: %s\n" e);
          flush stdout;
          if !continue then loop ())
    in
    loop ()
  in
  let run host port trace queries =
    match Unix.inet_addr_of_string host with
    | exception Failure _ -> `Error (false, "not an IPv4 address: " ^ host)
    | addr -> (
        match Nepal.Server_client.connect ~addr ~port () with
        | Error e -> `Error (false, "connect: " ^ e)
        | Ok client ->
            let outcome =
              if queries = [] then begin
                interactive client;
                `Ok ()
              end
              else
                let run_one =
                  if trace then Nepal.Server_client.query_traced
                  else Nepal.Server_client.query
                in
                let failed =
                  List.fold_left
                    (fun failed q ->
                      match run_one client q with
                      | Ok reply ->
                          print_reply reply;
                          failed
                      | Error e ->
                          Printf.eprintf "error: %s\n%!" e;
                          failed + 1)
                    0 queries
                in
                if failed = 0 then `Ok ()
                else `Error (false, Printf.sprintf "%d query(ies) failed" failed)
            in
            Nepal.Server_client.close client;
            outcome)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Connect to a running nepal server and run queries (or an \
             interactive loop) over the JSONL wire protocol."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal client \"Retrieve P From PATHS P Where P MATCHES \
               VNF()->VFC()\"";
           `P "nepal client --trace \"Retrieve P From PATHS P Where P \
               MATCHES VNF()->VFC()\"";
           `P "nepal client -p 9642   # interactive";
         ])
    Term.(ret (const run $ host_arg $ wire_port_arg $ trace_arg $ query_pos))

let events_cmd =
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "file" ] ~docv:"PATH"
             ~doc:"Event log to read (defaults to \\$NEPAL_EVENT_LOG; \
                   must be a file path, not $(b,stderr)).")
  in
  let n_arg =
    Arg.(value & opt int 20
         & info [ "n"; "lines" ] ~docv:"N" ~doc:"Print the last N events.")
  in
  let kind_arg =
    Arg.(value & opt (some string) None
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Only events of this kind (e.g. $(b,query.slow), \
                   $(b,store.mutation)).")
  in
  let follow_arg =
    Arg.(value & flag
         & info [ "f"; "follow" ]
             ~doc:"After printing the tail, keep the file open and stream \
                   events as they are appended (like tail -f) until \
                   interrupted.")
  in
  let tail_run file n kind follow =
    let path =
      match file with
      | Some p -> Some p
      | None -> (
          match Sys.getenv_opt "NEPAL_EVENT_LOG" with
          | Some p when p <> "" && p <> "stderr" && p <> "-" -> Some p
          | _ -> None)
    in
    match path with
    | None ->
        `Error
          (false,
           "no event log to read: pass --file PATH or set NEPAL_EVENT_LOG \
            to a file path")
    | Some path -> (
        match
          try
            let ic = open_in path in
            let lines = ref [] in
            (try
               while true do
                 let line = input_line ic in
                 if line <> "" then lines := line :: !lines
               done
             with End_of_file -> ());
            close_in ic;
            Ok (List.rev !lines)
          with Sys_error e -> Error e
        with
        | Error e -> `Error (false, e)
        | Ok lines ->
            let wanted line =
              match kind with
              | None -> true
              | Some k ->
                  contains_sub line (Printf.sprintf "\"kind\":\"%s\"" k)
            in
            let lines = List.filter wanted lines in
            let total = List.length lines in
            let tail =
              if total <= n then lines
              else List.filteri (fun i _ -> i >= total - n) lines
            in
            List.iter print_endline tail;
            if not follow then `Ok ()
            else begin
              (* Stream appended bytes by polling the file length and
                 emitting only the complete lines, so a partially
                 written event is never printed. Re-opening per poll
                 also survives log rotation-by-truncation (the offset
                 resets when the file shrinks). *)
              flush stdout;
              let pos =
                ref
                  (try
                     let ic = open_in_bin path in
                     let len = in_channel_length ic in
                     close_in ic;
                     len
                   with Sys_error _ -> 0)
              in
              let carry = Buffer.create 256 in
              let rec loop () =
                (try
                   let ic = open_in_bin path in
                   let len = in_channel_length ic in
                   if len < !pos then begin
                     pos := 0;
                     Buffer.clear carry
                   end;
                   if len > !pos then begin
                     seek_in ic !pos;
                     Buffer.add_string carry
                       (really_input_string ic (len - !pos));
                     pos := len;
                     let s = Buffer.contents carry in
                     Buffer.clear carry;
                     let rec emit i =
                       match String.index_from_opt s i '\n' with
                       | Some j ->
                           let line = String.sub s i (j - i) in
                           if line <> "" && wanted line then
                             print_endline line;
                           emit (j + 1)
                       | None ->
                           Buffer.add_substring carry s i
                             (String.length s - i)
                     in
                     emit 0;
                     flush stdout
                   end;
                   close_in ic
                 with Sys_error _ | End_of_file -> ());
                Unix.sleepf 0.25;
                loop ()
              in
              loop ()
            end)
  in
  let tail_cmd =
    Cmd.v
      (Cmd.info "tail"
         ~doc:"Print the last N events from the JSONL event log; with \
               $(b,--follow), then stream new events as they arrive.")
      Term.(ret (const tail_run $ file_arg $ n_arg $ kind_arg $ follow_arg))
  in
  Cmd.group
    (Cmd.info "events"
       ~doc:"Inspect the structured event log (see NEPAL_EVENT_LOG).")
    [ tail_cmd ]

let watch_cmd =
  let query_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY"
             ~doc:"The standing Nepal query to watch (quote it).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit alerts as JSON lines.")
  in
  let events_arg =
    Arg.(value & opt int 120
         & info [ "events" ] ~docv:"N"
             ~doc:"Synthetic churn events to apply before exiting.")
  in
  let rate_arg =
    Arg.(value & opt float 25.
         & info [ "rate" ] ~docv:"PER_SEC"
             ~doc:"Churn events per second (0 = no pacing, run flat out).")
  in
  let debounce_arg =
    Arg.(value & opt (some float) None
         & info [ "debounce" ] ~docv:"MS"
             ~doc:"Debounce window in milliseconds (overrides \
                   \\$NEPAL_WATCH_DEBOUNCE_MS; default 50).")
  in
  let run seed history backend query json events rate debounce =
    let t = Nepal.Virt_service.generate ~seed () in
    if history then Nepal.Virt_service.simulate_history ~seed:(seed + 1) t;
    let store = t.Nepal.Virt_service.store in
    let mirror_provider mirror () =
      match mirror (Nepal.of_store store) with
      | Ok conn -> conn
      | Error e -> failwith ("backend mirror failed: " ^ e)
    in
    let monitor =
      match backend with
      | `Native -> Nepal.Monitor.create ?debounce_ms:debounce store
      | `Relational ->
          Nepal.Monitor.create ?debounce_ms:debounce
            ~conn_provider:
              (mirror_provider (fun db ->
                   Result.map Nepal.relational_conn (Nepal.to_relational db)))
            store
      | `Gremlin ->
          Nepal.Monitor.create ?debounce_ms:debounce
            ~conn_provider:
              (mirror_provider (fun db ->
                   Result.map Nepal.gremlin_conn (Nepal.to_gremlin db)))
            store
    in
    match Nepal.Monitor.watch monitor query with
    | Error e -> `Error (false, e)
    | Ok w ->
        let print_alert (a : Nepal.Monitor.alert) =
          if json then
            print_endline
              (Nepal.Event_log.json_to_string
                 (Nepal.Event_log.Obj
                    [
                      ("kind",
                       Nepal.Event_log.Str
                         (Nepal.Monitor.alert_kind_string a.Nepal.Monitor.al_kind));
                      ("watch", Nepal.Event_log.Int a.Nepal.Monitor.al_watch);
                      ("total", Nepal.Event_log.Int a.Nepal.Monitor.al_total);
                      ("added",
                       Nepal.Event_log.List
                         (List.map
                            (fun s -> Nepal.Event_log.Str s)
                            a.Nepal.Monitor.al_added));
                      ("removed",
                       Nepal.Event_log.List
                         (List.map
                            (fun s -> Nepal.Event_log.Str s)
                            a.Nepal.Monitor.al_removed));
                      ("at",
                       Nepal.Event_log.Str
                         (Nepal.Time_point.to_string a.Nepal.Monitor.al_at));
                      ("wall_ms",
                       Nepal.Event_log.Float (a.Nepal.Monitor.al_wall_s *. 1e3));
                    ]))
          else begin
            Printf.printf "[%s] at %s: %d matching path%s (%.2f ms)\n"
              (Nepal.Monitor.alert_kind_string a.Nepal.Monitor.al_kind)
              (Nepal.Time_point.to_string a.Nepal.Monitor.al_at)
              a.Nepal.Monitor.al_total
              (if a.Nepal.Monitor.al_total = 1 then "" else "s")
              (a.Nepal.Monitor.al_wall_s *. 1e3);
            List.iter (fun p -> Printf.printf "  + %s\n" p)
              a.Nepal.Monitor.al_added;
            List.iter (fun p -> Printf.printf "  - %s\n" p)
              a.Nepal.Monitor.al_removed
          end;
          flush stdout
        in
        if not json then begin
          Printf.printf "watching: %s\n" query;
          (match Nepal.Monitor.watch_relevant_classes w with
          | Some classes ->
              Printf.printf "relevant classes: %s\n" (String.concat ", " classes)
          | None -> print_endline "relevant classes: (all)");
          Printf.printf "debounce: %gms; churning %d events...\n\n"
            (Nepal.Monitor.debounce_seconds monitor *. 1e3)
            events;
          flush stdout
        end;
        let rng = Nepal.Prng.create (seed + 7) in
        for ev = 1 to events do
          let at =
            Nepal.Time_point.add_seconds (Nepal.Graph_store.clock store) 60.
          in
          Nepal.Virt_service.churn_step ~rng ~at ~scale_tag:(100000 + ev) t;
          List.iter print_alert (Nepal.Monitor.poll monitor);
          if rate > 0. then Unix.sleepf (1. /. rate)
        done;
        List.iter print_alert (Nepal.Monitor.flush monitor);
        if not json then begin
          let c name = Nepal.Metrics.counter_value (Nepal.Metrics.counter name) in
          Printf.printf
            "\ndone: %d changes seen, %d skipped as irrelevant, %d \
             re-evaluations, %d alerts\n"
            (c "monitor.changes") (c "monitor.skipped")
            (c "monitor.evaluations") (c "monitor.alerts")
        end;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Register a standing path query over the virt topology and tail \
             its path.up/path.down/path.changed alerts while a synthetic \
             churn driver mutates the store."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal watch \"Retrieve P From PATHS P Where P MATCHES \
               VNF(id=25001)->[Vertical()]{1,4}->Server()\" --events 200";
           `P "nepal watch -b relational --json \"Retrieve P From PATHS P \
               Where P MATCHES Container()->VirtualLink()->Container()\"";
         ])
    Term.(ret (const run $ seed_arg $ history_arg $ backend_arg $ query_pos
               $ json_arg $ events_arg $ rate_arg $ debounce_arg))

(* ---- top: live dashboard over the introspect verb -------------------- *)

let top_cmd =
  let module E = Nepal.Event_log in
  let module WJ = Nepal_util.Jsonp in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"IPv4 address of the server.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval"; "n" ] ~docv:"SECS"
             ~doc:"Refresh interval in seconds.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print a single snapshot (no screen clearing) and exit.")
  in
  (* numeric member, Int or Float *)
  let num name j =
    match WJ.member name j with
    | Some (E.Int i) -> Some (float_of_int i)
    | Some (E.Float f) -> Some f
    | _ -> None
  in
  let num0 name j = Option.value ~default:0. (num name j) in
  let int0 name j = int_of_float (num0 name j) in
  let obj name j = Option.value ~default:(E.Obj []) (WJ.member name j) in
  let hist_line j =
    Printf.sprintf "p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  (n=%d)"
      (num0 "p50_ms" j) (num0 "p95_ms" j) (num0 "p99_ms" j) (int0 "count" j)
  in
  let render ~host ~port ~prev snapshot =
    (* prev = (wall clock, total requests) of the previous refresh; the
       first frame has none and shows the mean rate since start *)
    let now = Unix.gettimeofday () in
    let requests = int0 "requests" snapshot in
    let uptime = num0 "uptime_s" snapshot in
    let qps =
      match prev with
      | Some (t0, r0) when now > t0 ->
          float_of_int (requests - r0) /. (now -. t0)
      | _ when uptime > 0. -> float_of_int requests /. uptime
      | _ -> 0.
    in
    let b = Buffer.create 1024 in
    let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    addf "nepal top — %s:%d   uptime %.1fs   proto %d\n" host port uptime
      (int0 "proto" snapshot);
    addf "requests  %d  (%.1f q/s)   errors %d   watches %d\n" requests qps
      (int0 "errors" snapshot) (int0 "watches" snapshot);
    addf "query     %s\n" (hist_line (obj "query_seconds" snapshot));
    let e2e = obj "alert_e2e" snapshot in
    addf "alerts    sent %d  dropped %d   e2e %s\n"
      (int0 "alerts_sent" snapshot)
      (int0 "alerts_dropped" snapshot)
      (hist_line e2e);
    let ex = obj "executor" snapshot in
    addf "executor  workers %d  queue %d   wait %s\n" (int0 "workers" ex)
      (int0 "queue_depth" ex)
      (hist_line (obj "queue_wait" ex));
    let rw = obj "rwlock" snapshot in
    addf "rwlock    readers %d  writer %s  waiters %d\n" (int0 "readers" rw)
      (match WJ.member "writer_active" rw with
      | Some (E.Bool true) -> "yes"
      | _ -> "no")
      (int0 "waiters" rw);
    addf "          read wait  %s\n" (hist_line (obj "read_wait" rw));
    addf "          write wait %s\n" (hist_line (obj "write_wait" rw));
    let cdc = obj "cdc" snapshot in
    let ev = obj "event_log" snapshot in
    addf "cdc       published %d  dropped %d   event log suppressed %d\n"
      (int0 "published" cdc) (int0 "dropped" cdc) (int0 "suppressed" ev);
    addf "\n %4s %9s %8s %7s %6s %7s %4s  %s\n" "id" "uptime" "reqs"
      "alerts" "drop" "outbox" "hw" "watches";
    (match WJ.member "sessions" snapshot with
    | Some (E.List sessions) ->
        List.iter
          (fun s ->
            let watches =
              match WJ.member "watches" s with
              | Some (E.List l) ->
                  "["
                  ^ String.concat ","
                      (List.filter_map
                         (function E.Int i -> Some (string_of_int i) | _ -> None)
                         l)
                  ^ "]"
              | _ -> "[]"
            in
            addf " %4d %8.1fs %8d %7d %6d %7d %4d  %s\n" (int0 "id" s)
              (num0 "uptime_s" s) (int0 "requests" s) (int0 "alerts_sent" s)
              (int0 "alerts_dropped" s) (int0 "outbox_len" s)
              (int0 "outbox_high_water" s) watches)
          sessions
    | _ -> ());
    ((now, requests), Buffer.contents b)
  in
  let run host port interval once =
    match Unix.inet_addr_of_string host with
    | exception Failure _ -> `Error (false, "not an IPv4 address: " ^ host)
    | addr -> (
        match Nepal.Server_client.connect ~addr ~port () with
        | Error e -> `Error (false, "connect: " ^ e)
        | Ok client ->
            let interval = Float.max 0.1 interval in
            let rec loop prev =
              match Nepal.Server_client.introspect client with
              | Error e ->
                  Nepal.Server_client.close client;
                  `Error (false, "introspect: " ^ e)
              | Ok snapshot ->
                  let prev', body = render ~host ~port ~prev snapshot in
                  if once then begin
                    print_string body;
                    flush stdout;
                    Nepal.Server_client.close client;
                    `Ok ()
                  end
                  else begin
                    (* \027[H\027[2J: cursor home + clear, like watch(1). *)
                    print_string "\027[H\027[2J";
                    print_string body;
                    Printf.printf "\n(refresh %.1fs; ctrl-c to stop)\n" interval;
                    flush stdout;
                    Unix.sleepf interval;
                    loop (Some prev')
                  end
            in
            loop None)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Self-refreshing terminal dashboard for a running nepal server: \
             request count and q/s (mean since start on the first frame, \
             then between refreshes), query latency quantiles, alert \
             end-to-end lag, executor and lock occupancy, and a per-session \
             table, over the introspect wire verb. History is left to \
             whatever scrapes the server's OpenMetrics endpoint."
       ~man:
         [
           `S Manpage.s_examples;
           `P "nepal top";
           `P "nepal top -p 9642 --interval 1";
           `P "nepal top --once";
         ])
    Term.(ret (const run $ host_arg $ wire_port_arg $ interval_arg $ once_arg))

let main =
  Cmd.group
    (Cmd.info "nepal" ~version:"1.0.0"
       ~doc:"Nepal — a graph database for a virtualized network infrastructure.")
    [ schema_cmd; generate_cmd; query_cmd; explain_cmd; check_cmd; repl_cmd;
      paths_cmd; when_exists_cmd; watch_cmd; stats_cmd; serve_cmd; client_cmd;
      events_cmd; top_cmd ]

let () = exit (Cmd.eval main)
