(* The Nepal benchmark's entry point. One run: choose the workload's instances
   and their expected answers (untimed), time [setup_reps] cold set-ups
   (their median is setup_s), all in child processes, set up once more
   in-process, then measure for --seconds and print the metrics as the
   last stdout line. --trace 1 splits the time between the measured
   phase (for registry deltas) and the layer-by-layer traced replay,
   and prints the per-layer metrics instead. A wrong or failed answer
   makes the run exit non-zero. *)

open Perfbench
module H = Harness

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("nepal_perf: " ^ s); exit 2) fmt

type args = {
  workload : H.workload;
  seed : int;
  seconds : int;
  trace : bool;
  spans : string option;  (** where the traced run writes its spans *)
  child : [ `Select | `Setup ] option;  (** run as a child process *)
}

let parse_args () =
  let workload = ref "" and seed = ref min_int and seconds = ref 0 in
  let trace = ref 0 and spans = ref "" and child = ref None in
  let usage =
    "nepal_perf --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map fst H.workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans (JSON lines)");
      ("--select", Arg.Unit (fun () -> child := Some `Select), " print the chosen queries (internal)");
      ("--setup-probe", Arg.Unit (fun () -> child := Some `Setup), " time one cold set-up (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload =
    match List.assoc_opt !workload H.workloads with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !seed = min_int then die "--seed is required";
  if !child = None && !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  {
    workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    spans = (if !spans = "" then None else Some !spans);
    child = !child;
  }

(* ---- child processes ------------------------------------------------- *)

(* Instance choice and every cold set-up run in child processes, one at
   a time, so each set-up starts from an empty process and the parent
   never holds a second large store. Items travel as tab-separated
   lines: family, form, backend, count, digest, query text. *)
let item_line checker (it : H.item) =
  let a = Option.get (Stats.expected checker it.H.text) in
  Printf.sprintf "%s\t%s\t%s\t%d\t%s\t%s\n" it.H.family (H.form_name it.H.form)
    (H.backend_name it.H.backend) a.Stats.count a.Stats.digest it.H.text

let parse_items checker lines =
  let form_of s = List.find (fun f -> H.form_name f = s) H.all_forms in
  let backend_of s =
    List.find (fun b -> H.backend_name b = s) [ H.Native; H.Relational; H.Gremlin ]
  in
  String.split_on_char '\n' lines
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ family; form; backend; count; digest; text ] ->
             Stats.expect checker text { Stats.count = int_of_string count; digest };
             { H.text; family; form = form_of form; backend = backend_of backend }
         | _ -> die "bad item line %S" line)
  |> Array.of_list

let child_main spec = function
  | `Select ->
      let checker = Stats.checker () in
      let items = H.select_items spec (H.build_topology spec) ~expect:(Stats.expect checker) in
      Array.iter (fun it -> print_string (item_line checker it)) items;
      exit 0
  | `Setup ->
      let checker = Stats.checker () in
      let items = parse_items checker (In_channel.input_all stdin) in
      let env = H.setup spec ~checker ~items in
      H.teardown env;
      print_endline
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) env.H.phases));
      exit (if Stats.failed checker = 0 then 0 else 3)

(* Run this executable as a child with [flag], feed it [input], wait
   for it and return its stdout. *)
let run_child args flag input =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| exe; flag; "--workload"; H.workload_name args.workload; "--seed";
       string_of_int args.seed |]
  in
  let pid = Unix.create_process exe argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  output_string oc input;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> die "child %s failed" flag

let probe_setup args lines =
  run_child args "--setup-probe" lines
  |> String.trim |> String.split_on_char ' '
  |> List.map (fun kv ->
         match String.split_on_char '=' kv with
         | [ k; v ] -> (k, float_of_string v)
         | _ -> die "bad set-up probe output %S" kv)

(* ---- metrics ----------------------------------------------------------- *)

let ms s = s *. 1e3

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* The gated metrics: the ones that repeat across runs on a shared
   machine whose speed drifts (see README.md). *)
let end_to_end (m : H.measured) ~setup_s ~sorted =
  let answered = float_of_int (Array.length sorted) in
  [
    ("setup_s", setup_s, "s");
    ("alloc_kw_per_query", m.H.words /. answered /. 1e3, "kwords");
    ("roundtrips_per_query", float_of_int m.H.roundtrips /. answered, "count");
    ("heap_live_mb", mb m.H.live_words, "MB");
  ]

(* Wall-clock figures are medians over rounds (whole passes with the
   exact mix), so one stalled window cannot drag them. *)
let over_rounds (m : H.measured) f = Stats.median (List.map f m.H.rounds)

let wall_clock spec (m : H.measured) =
  let pct p (r : H.round) = ms (Stats.nearest_rank p r.H.r_lats).Stats.value in
  [
    ( "throughput_qps",
      over_rounds m (fun r -> float_of_int r.H.r_answered /. r.H.r_dur),
      "1/s" );
    ("query_p50_ms", over_rounds m (pct 50), "ms");
    ("query_tail_ms", over_rounds m (pct spec.H.tail_pct), "ms");
    ( "cpu_ms_per_query",
      over_rounds m (fun r -> ms r.H.r_cpu /. float_of_int r.H.r_answered),
      "ms" );
    ("heap_peak_mb", mb (Gc.quick_stat ()).Gc.top_heap_words, "MB");
  ]

let per_layer spec (m : H.measured) ~probes ~acc ~before ~after ~churn ~sorted =
  let answered = float_of_int (Array.length sorted) in
  let phase k =
    Stats.median (List.map (fun p -> Option.value ~default:0. (List.assoc_opt k p)) probes)
  in
  let mean = H.mean acc in
  let us k = mean k *. 1e6 and msm k = mean k *. 1e3 in
  let cdelta = H.counter_delta ~before ~after in
  let hdelta = H.hist_delta ~before ~after in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let writes = float_of_int m.H.writes in
  let per_write c = if m.H.writes = 0 then 0. else float_of_int (cdelta c) /. writes in
  let p50_ms name = ms (fst (hdelta name)) in
  let client_p50 = ms (Stats.nearest_rank 50 sorted).Stats.value in
  let wire_tax =
    if snd (hdelta "server.query_seconds") = 0 then 0.
    else client_p50 -. p50_ms "server.query_seconds"
  in
  let churn_p50 f =
    match churn with
    | Some ch -> (
        match f ch with [] -> 0. | l -> ms (Stats.median l))
    | None -> 0.
  in
  let layer_sum =
    List.fold_left (fun s k -> s +. mean k) 0.
      [ "parse"; "analysis"; "plan"; "eval"; "render"; "encode"; "decode" ]
  in
  let untraced = mean "untraced" in
  wall_clock spec m
  @ [
    ("setup.topology_s", phase "topology", "s");
    ("setup.mirror_s", phase "mirror", "s");
    ("setup.warmup_s", phase "warmup", "s");
    ("parse.us", us "parse", "us");
    ("analysis.us", us "analysis", "us");
    ("planner.us", us "plan", "us");
    ("planner.cache_hit_ratio", ratio (cdelta "planner.cache_hit") (cdelta "planner.cache_miss"), "ratio");
    ("eval.ms", msm "eval", "ms");
    ("eval.kw", mean "eval_words" /. 1e3, "kwords");
    ("eval.selects", mean "selects", "count");
    ("eval.extends", mean "extends", "count");
    ("eval.walk_tasks", mean "walk_tasks", "count");
    ("eval.parallel_walks", mean "parallel_walks", "ratio");
    ("backend.roundtrips", mean "roundtrips", "count");
    ("backend.pcache_hit_ratio", ratio (cdelta "backend.pcache.hits") (cdelta "backend.pcache.misses"), "ratio");
    ("backend.pcache_invalidations_per_write", per_write "backend.pcache.invalidations", "count");
    ("paths", mean "paths", "count");
    ("render.us", us "render", "us");
    ("wire.encode_us", us "encode", "us");
    ("wire.decode_us", us "decode", "us");
    ("wire.tax_ms", wire_tax, "ms");
    ("executor.queue_ms", p50_ms "executor.queue_seconds", "ms");
    ("outbox.dwell_ms", p50_ms "outbox.dwell_seconds", "ms");
    ("rwlock.read_wait_ms", p50_ms "rwlock.read_wait_seconds", "ms");
    ("rwlock.read_waits", float_of_int (snd (hdelta "rwlock.read_wait_seconds")), "count");
    ("rwlock.write_wait_ms", p50_ms "rwlock.write_wait_seconds", "ms");
    ("rwlock.write_waits", float_of_int (snd (hdelta "rwlock.write_wait_seconds")), "count");
    ("store.write_ms", churn_p50 (fun ch -> ch.H.c_inside), "ms");
    ("store.cdc_per_write", per_write "store.cdc_published", "count");
    ("monitor.evals_per_write", per_write "monitor.evaluations", "count");
    ("monitor.skipped_ratio", ratio (cdelta "monitor.skipped") (cdelta "monitor.evaluations"), "ratio");
    ("monitor.eval_ms", p50_ms "monitor.eval_seconds", "ms");
    ("write_p50_ms", churn_p50 (fun ch -> ch.H.c_write_lat), "ms");
    ("alert_lag_ms", churn_p50 (fun ch -> ch.H.c_lags), "ms");
    ("relational.ms", msm "untraced.relational", "ms");
    ("gremlin.ms", msm "untraced.gremlin", "ms");
    ("gc.minor", float_of_int m.H.minor_gcs /. answered, "count");
    ("gc.major", float_of_int m.H.major_gcs /. answered, "count");
    ("trace.unattributed_ms", ms (untraced -. layer_sum), "ms");
    ("trace.overhead_pct", (if untraced > 0. then (mean "traced" /. untraced -. 1.) *. 100. else 0.), "%");
    ("host.steal_pct", m.H.steal_share *. 100., "%");
    ("process.cpu_pct", m.H.cpu_share *. 100., "%");
  ]

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* ---- main ------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  let spec = H.spec_of ~nproc args.workload in
  Option.iter (child_main spec) args.child;
  let name = H.workload_name args.workload in
  let checker = Stats.checker () in
  let lines = run_child args "--select" "" in
  let items = parse_items checker lines in
  let probes = List.init spec.H.setup_reps (fun _ -> probe_setup args lines) in
  let setup_s = Stats.median (List.map (List.assoc "total") probes) in
  let env = H.setup spec ~checker ~items in
  let churn =
    if spec.H.reads_per_write > 0 then
      Some (H.new_churn env.H.topo ~seed:args.seed ~every:spec.H.reads_per_write)
    else None
  in
  let watcher =
    match (churn, env.H.watcher) with
    | Some ch, Some w -> Some (Thread.create (fun () -> H.watcher_loop ch w) ())
    | _ -> None
  in
  let seconds = float_of_int args.seconds in
  let measure_s = if args.trace then seconds /. 2. else seconds in
  let before = H.registry () in
  let m = H.run_measured env ~items ~checker ~churn ~seconds:measure_s ~seed:args.seed in
  let after = H.registry () in
  let acc = Hashtbl.create 64 and spans = ref [] in
  let replay_passes =
    if args.trace then
      H.replay env ~items ~checker ~churn ~seconds:(seconds -. measure_s) ~seed:args.seed acc
        spans
    else 0
  in
  Option.iter (fun path -> H.write_spans path !spans) args.spans;
  Option.iter (fun ch -> H.locked ch.H.c_lock (fun () -> ch.H.c_watch_stop <- true)) churn;
  Option.iter Thread.join watcher;
  H.teardown env;
  Option.iter (H.replay_check spec ~seed:args.seed ~checker) churn;
  let sorted = Array.of_list (List.map (fun s -> s.H.s_lat) m.H.samples) in
  Array.sort Float.compare sorted;
  if Array.length sorted = 0 then die "no correct answers";
  let tail = Stats.nearest_rank spec.H.tail_pct sorted in
  if not m.H.mix_ok then Stats.record_failure checker "a caller ran a partial pass";
  if tail.Stats.beyond < 10 then
    Stats.record_failure checker
      (Printf.sprintf "only %d samples beyond p%d" tail.Stats.beyond spec.H.tail_pct);
  let failed = Stats.failed checker in
  let correct = failed = 0 in
  Printf.printf
    "# workload=%s seed=%d seconds=%d trace=%b clients=%d executor=default(%.0f) \
     per_family=%s forms=%s backends=%s reads_per_write=%d\n"
    name args.seed args.seconds args.trace spec.H.clients
    (Option.value ~default:nan (H.Metrics.gauge_value "domain_pool.size"))
    (String.concat "," (List.map (fun (f, n) -> Printf.sprintf "%s:%d" f n) spec.H.per_family))
    (String.concat "," (List.map H.form_name spec.H.forms))
    (String.concat "," (List.map H.backend_name spec.H.backends))
    spec.H.reads_per_write;
  Printf.printf
    "# mix: items/pass=%d rounds=%d samples=%d checked=%d tail=p%d rank=%d beyond=%d \
     writes=%d replay_passes=%d setup_reps=[%s]\n"
    (Array.length items) (List.length m.H.rounds) (Array.length sorted)
    (Stats.checked checker) spec.H.tail_pct
    tail.Stats.rank tail.Stats.beyond m.H.writes replay_passes
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f" (List.assoc "total" p)) probes));
  Printf.printf "# rounds q/s: %s\n"
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%.0f" (float_of_int r.H.r_answered /. r.H.r_dur))
          m.H.rounds));
  List.iter
    (fun (k, v, u) -> Printf.printf "# wall-clock %s=%.4f %s\n" k v u)
    (wall_clock spec m);
  Printf.printf "# interference: host_steal=%.2f%% process_cpu=%.1f%% of %d cpus\n"
    (m.H.steal_share *. 100.) (m.H.cpu_share *. 100.) nproc;
  let by_label = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let l = H.label items.(s.H.s_item) in
      Hashtbl.replace by_label l (s.H.s_lat :: Option.value ~default:[] (Hashtbl.find_opt by_label l)))
    m.H.samples;
  Hashtbl.fold (fun l xs acc -> (l, xs) :: acc) by_label []
  |> List.sort compare
  |> List.iter (fun (l, xs) ->
         Printf.printf "# p50 %-34s %8.3f ms  n=%d\n" l (ms (Stats.median xs)) (List.length xs));
  List.iter (fun f -> Printf.printf "# FAILED: %s\n" f) (Stats.failures checker);
  let metrics =
    if args.trace then per_layer spec m ~probes ~acc ~before ~after ~churn ~sorted
    else end_to_end m ~setup_s ~sorted
  in
  print_result ~correct ~attempted:(m.H.attempted + m.H.writes) ~failed metrics;
  exit (if correct then 0 else 1)
