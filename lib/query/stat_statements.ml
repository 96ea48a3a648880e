(* pg_stat_statements for Nepal: cumulative per-statement execution
   statistics, keyed by (backend, fingerprint).

   The fingerprint is a normalization of the query text computed on the
   token stream: literals (numbers, quoted strings — which covers AT
   timestamps) become [?], identifiers and keywords are case-folded,
   and whitespace disappears into single-space token joins. Repetition
   bounds inside [{ }] are kept verbatim: [{1,4}] vs [{1,6}] changes
   the shape (and cost class) of the query, and the Table-1 families
   Host-Host(4) and Host-Host(6) must not collapse.

   Entries accumulate calls, rows, wall seconds and backend
   round-trips, plus a log-linear latency histogram (the
   Metrics bucket layout) for p50/p95/p99. The table is a bounded LRU:
   when full, recording a new fingerprint evicts the least-recently
   used entry (an O(capacity) scan, which at the default capacity of
   512 is noise next to running a query).

   The engine records into this table on every run/run_string path; a
   process can dump the table at exit (NEPAL_STATS_DUMP=path) for the
   `nepal stats` command to render. *)

module Lexer = Nepal_rpe.Lexer
module Metrics = Nepal_util.Metrics

(* -- fingerprinting ------------------------------------------------- *)

let fingerprint text =
  match Lexer.tokenize text with
  | Error _ -> String.trim text
  | Ok spanned ->
      let b = Buffer.create (String.length text) in
      let brace_depth = ref 0 in
      List.iter
        (fun { Lexer.token; _ } ->
          let piece =
            match token with
            | Lexer.Eof -> None
            | Lexer.Punct "{" ->
                incr brace_depth;
                Some "{"
            | Lexer.Punct "}" ->
                if !brace_depth > 0 then decr brace_depth;
                Some "}"
            | Lexer.Punct p -> Some p
            | Lexer.Ident s -> Some (String.lowercase_ascii s)
            | Lexer.Int_lit v ->
                (* Repetition bounds are structural, not data. *)
                if !brace_depth > 0 then Some (string_of_int v) else Some "?"
            | Lexer.Float_lit _ | Lexer.String_lit _ -> Some "?"
          in
          match piece with
          | Some p ->
              if Buffer.length b > 0 then Buffer.add_char b ' ';
              Buffer.add_string b p
          | None -> ())
        spanned;
      Buffer.contents b

(* -- the statistics table ------------------------------------------- *)

type entry = {
  e_backend : string;
  e_fingerprint : string;
  mutable e_calls : int;
  mutable e_rows : int;
  mutable e_roundtrips : int;
  mutable e_errors : int;
  mutable e_analysis_rejected : int;
  mutable e_total_s : float;
  mutable e_last_used : int;
  e_hist : Metrics.histogram;
}

let default_capacity = 512

let table : (string * string, entry) Hashtbl.t = Hashtbl.create 256
let lock = Mutex.create ()
let clock = ref 0
let evicted = ref 0

let capacity =
  ref
    (match Nepal_util.Env.int_opt ~min:1 "NEPAL_STAT_STATEMENTS_MAX" with
    | Some n -> n
    | None -> default_capacity)

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let set_capacity n = with_lock (fun () -> if n >= 1 then capacity := n)
let get_capacity () = with_lock (fun () -> !capacity)
let evictions () = with_lock (fun () -> !evicted)

(* Assumes the lock is held. *)
let evict_lru_locked () =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.e_last_used <= e.e_last_used -> acc
        | _ -> Some (key, e))
      table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove table key;
      incr evicted
  | None -> ()

let find_or_create_locked ~backend ~fp =
  let key = (backend, fp) in
  match Hashtbl.find_opt table key with
  | Some e -> e
  | None ->
      if Hashtbl.length table >= !capacity then evict_lru_locked ();
      let e =
        {
          e_backend = backend;
          e_fingerprint = fp;
          e_calls = 0;
          e_rows = 0;
          e_roundtrips = 0;
          e_errors = 0;
          e_analysis_rejected = 0;
          e_total_s = 0.;
          e_last_used = 0;
          e_hist = Metrics.unregistered_histogram fp;
        }
      in
      Hashtbl.replace table key e;
      e

let record ~backend ~fingerprint:fp ?(rows = 0) ?(roundtrips = 0)
    ?(error = false) ?(analysis_rejected = false) ~wall_s ()
    =
  with_lock (fun () ->
      incr clock;
      let e = find_or_create_locked ~backend ~fp in
      e.e_calls <- e.e_calls + 1;
      e.e_rows <- e.e_rows + rows;
      e.e_roundtrips <- e.e_roundtrips + roundtrips;
      if error then e.e_errors <- e.e_errors + 1;
      if analysis_rejected then
        e.e_analysis_rejected <- e.e_analysis_rejected + 1;
      e.e_total_s <- e.e_total_s +. wall_s;
      e.e_last_used <- !clock;
      Metrics.observe e.e_hist wall_s)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset table;
      clock := 0;
      evicted := 0)

(* -- snapshots ------------------------------------------------------ *)

type stat = {
  st_backend : string;
  st_fingerprint : string;
  st_calls : int;
  st_rows : int;
  st_roundtrips : int;
  st_errors : int;
  st_analysis_rejected : int;
      (** statements rejected by the [`Strict] static-analysis gate —
          counted separately from backend/runtime errors *)
  st_total_s : float;
  st_mean_s : float;
  st_p50_s : float;
  st_p95_s : float;
  st_p99_s : float;
  st_max_s : float;
}

let stat_of_entry e =
  let h = Metrics.stats_of e.e_hist in
  {
    st_backend = e.e_backend;
    st_fingerprint = e.e_fingerprint;
    st_calls = e.e_calls;
    st_rows = e.e_rows;
    st_roundtrips = e.e_roundtrips;
    st_errors = e.e_errors;
    st_analysis_rejected = e.e_analysis_rejected;
    st_total_s = e.e_total_s;
    st_mean_s = (if e.e_calls = 0 then 0. else e.e_total_s /. float_of_int e.e_calls);
    st_p50_s = h.Metrics.p50;
    st_p95_s = h.Metrics.p95;
    st_p99_s = h.Metrics.p99;
    st_max_s = (if h.Metrics.count = 0 then 0. else h.Metrics.max);
  }

(* Sorted by total wall time, heaviest first. *)
let stats () =
  with_lock (fun () ->
      Hashtbl.fold (fun _ e acc -> stat_of_entry e :: acc) table [])
  |> List.sort (fun a b -> compare b.st_total_s a.st_total_s)

let count () = with_lock (fun () -> Hashtbl.length table)

(* -- rendering ------------------------------------------------------ *)

let truncate_fp width fp =
  if String.length fp <= width then fp else String.sub fp 0 (width - 1) ^ "~"

let render_stats ?top:(n = max_int) sts =
  let sts = List.filteri (fun i _ -> i < n) sts in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-10s %7s %9s %7s %10s %10s %10s %10s  %s\n" "backend"
       "calls" "rows" "errors" "total(s)" "mean(s)" "p95(s)" "max(s)" "statement");
  Buffer.add_string b (String.make 118 '-');
  Buffer.add_char b '\n';
  List.iter
    (fun st ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %7d %9d %7d %10.4f %10.4f %10.4f %10.4f  %s\n"
           st.st_backend st.st_calls st.st_rows st.st_errors st.st_total_s
           st.st_mean_s st.st_p95_s st.st_max_s
           (truncate_fp 120 st.st_fingerprint)))
    sts;
  Buffer.contents b

let render ?top () = render_stats ?top (stats ())

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let stat_to_json st =
  Printf.sprintf
    "{\"backend\": \"%s\", \"fingerprint\": \"%s\", \"calls\": %d, \"rows\": %d, \
     \"roundtrips\": %d, \"errors\": %d, \
     \"analysis_rejected\": %d, \"total_s\": %.6f, \"mean_s\": %.6f, \
     \"p50_s\": %.6f, \"p95_s\": %.6f, \"p99_s\": %.6f, \"max_s\": %.6f}"
    (json_escape st.st_backend)
    (json_escape st.st_fingerprint)
    st.st_calls st.st_rows st.st_roundtrips st.st_errors
    st.st_analysis_rejected st.st_total_s st.st_mean_s st.st_p50_s st.st_p95_s
    st.st_p99_s st.st_max_s

let render_stats_json ?top:(n = max_int) sts =
  let sts = List.filteri (fun i _ -> i < n) sts in
  "[\n  " ^ String.concat ",\n  " (List.map stat_to_json sts) ^ "\n]\n"

(* -- persistence (NEPAL_STATS_DUMP / `nepal stats`) ----------------- *)

(* Tab-separated, fingerprint last: fingerprints are space-joined token
   strings, so they never contain tabs or newlines. *)
let dump_header = "#nepal-stat-statements-v3"

let save path =
  let sts = stats () in
  try
    let oc = open_out path in
    output_string oc (dump_header ^ "\n");
    List.iter
      (fun st ->
        Printf.fprintf oc
          "%s\t%d\t%d\t%d\t%d\t%d\t%.9f\t%.9f\t%.9f\t%.9f\t%.9f\t%s\n"
          st.st_backend st.st_calls st.st_rows st.st_roundtrips st.st_errors st.st_analysis_rejected st.st_total_s
          st.st_p50_s st.st_p95_s st.st_p99_s st.st_max_s st.st_fingerprint)
      sts;
    close_out oc;
    Ok ()
  with Sys_error e -> Error e

let load path =
  try
    let ic = open_in path in
    let header = try input_line ic with End_of_file -> "" in
    if header <> dump_header then begin
      close_in ic;
      Error (Printf.sprintf "%s: not a nepal statement-statistics dump" path)
    end
    else begin
      let rows = ref [] in
      (try
         while true do
           let line = input_line ic in
           if line <> "" then
             match String.split_on_char '\t' line with
             | [ backend; calls; rows_; rts; errs; rej; total; p50; p95; p99;
                 mx; fp ] -> (
                 match
                   ( int_of_string_opt calls,
                     int_of_string_opt rows_,
                     int_of_string_opt rts,
                     ( int_of_string_opt errs,
                       int_of_string_opt rej ),
                     float_of_string_opt total,
                     float_of_string_opt p50,
                     float_of_string_opt p95,
                     float_of_string_opt p99,
                     float_of_string_opt mx )
                 with
                 | ( Some calls,
                     Some rows_,
                     Some rts,
                     (Some errs, Some rej),
                     Some total,
                     Some p50,
                     Some p95,
                     Some p99,
                     Some mx ) ->
                     rows :=
                       {
                         st_backend = backend;
                         st_fingerprint = fp;
                         st_calls = calls;
                         st_rows = rows_;
                         st_roundtrips = rts;
                         st_errors = errs;
                         st_analysis_rejected = rej;
                         st_total_s = total;
                         st_mean_s =
                           (if calls = 0 then 0.
                            else total /. float_of_int calls);
                         st_p50_s = p50;
                         st_p95_s = p95;
                         st_p99_s = p99;
                         st_max_s = mx;
                       }
                       :: !rows
                 | _ -> ())
             | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      Ok
        (List.sort
           (fun a b -> compare b.st_total_s a.st_total_s)
           !rows)
    end
  with Sys_error e -> Error e

(* At-exit dump and test-isolation hookup. The dump only happens when
   the table saw traffic, so idle processes never touch the file. *)
let () =
  Metrics.on_reset reset;
  match Nepal_util.Env.string_opt "NEPAL_STATS_DUMP" with
  | Some path -> at_exit (fun () -> if count () > 0 then ignore (save path))
  | None -> ()
