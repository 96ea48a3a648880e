(* Structured event log: one JSON object per line (JSONL), written to a
   sink configured by the NEPAL_EVENT_LOG environment variable (a file
   path, or "stderr"/"-" for standard error; unset = disabled). The
   query engine emits slow-query and error events, the graph store
   emits mutation audit events, and anything else in the process may
   [emit] its own kinds.

   The log is designed to be always-on-capable:
   - when disabled, [emit] is a single flag check;
   - every event carries a severity, and events below the configured
     level (NEPAL_EVENT_LEVEL, default info) are dropped before any
     serialization — store mutation audits are debug-level, so they
     cost nothing unless explicitly requested;
   - per-kind sampling (NEPAL_EVENT_SAMPLE="kind=N,kind=N": keep one in
     N) bounds the volume of high-frequency kinds.

   The slow-query threshold (NEPAL_SLOW_QUERY_MS) lives here because it
   gates event emission: the engine runs queries traced whenever a
   threshold is set and the log enabled, and emits a "query.slow" event
   carrying the measured span tree for any query exceeding it.

   Writes are line-buffered behind a mutex and flushed per event, so
   `tail -f` and the `nepal events tail` command always see complete
   lines. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

(* -- a minimal JSON value ------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* String escaping must produce a line that any strict JSON parser
   accepts, whatever bytes the caller passed in: field values carry
   uids, error messages and path renderings from arbitrary snapshots.
   Control characters become \u escapes; bytes >= 0x80 are passed
   through only when they form a well-formed UTF-8 sequence (no
   overlongs, surrogates, or values above U+10FFFF — JSON documents
   must be valid UTF-8), and anything else is replaced with � so
   one bad byte cannot poison the whole JSONL sink. *)

(* Length of the well-formed UTF-8 sequence starting at [i], or 0. *)
let utf8_seq_len s i =
  let n = String.length s in
  let byte k = Char.code s.[k] in
  let cont k = k < n && byte k land 0xC0 = 0x80 in
  let b0 = byte i in
  if b0 < 0x80 then 1
  else if b0 < 0xC2 then 0 (* continuation or overlong lead *)
  else if b0 < 0xE0 then if cont (i + 1) then 2 else 0
  else if b0 < 0xF0 then
    if
      cont (i + 1) && cont (i + 2)
      && (b0 <> 0xE0 || byte (i + 1) >= 0xA0) (* overlong *)
      && (b0 <> 0xED || byte (i + 1) < 0xA0) (* surrogates *)
    then 3
    else 0
  else if b0 < 0xF5 then
    if
      cont (i + 1) && cont (i + 2) && cont (i + 3)
      && (b0 <> 0xF0 || byte (i + 1) >= 0x90) (* overlong *)
      && (b0 <> 0xF4 || byte (i + 1) < 0x90) (* > U+10FFFF *)
    then 4
    else 0
  else 0

(* Bytes copied through unchanged: ASCII other than control
   characters, the quote and the backslash. Runs of them go out in one
   [add_substring]. *)
let plain c = c >= ' ' && c <= '\x7f' && c <> '"' && c <> '\\'

let escape_into b s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    while !i < n && plain (String.unsafe_get s !i) do
      incr i
    done;
    if !i > start then Buffer.add_substring b s start (!i - start);
    if !i < n then
      match s.[!i] with
      | '"' ->
          Buffer.add_string b "\\\"";
          incr i
      | '\\' ->
          Buffer.add_string b "\\\\";
          incr i
      | '\n' ->
          Buffer.add_string b "\\n";
          incr i
      | '\r' ->
          Buffer.add_string b "\\r";
          incr i
      | '\t' ->
          Buffer.add_string b "\\t";
          incr i
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c));
          incr i
      | _ -> (
          match utf8_seq_len s !i with
          | 0 ->
              (* invalid byte: substitute U+FFFD, escaped to stay ASCII *)
              Buffer.add_string b "\\ufffd";
              incr i
          | len ->
              Buffer.add_substring b s !i len;
              i := !i + len)
  done

let rec add_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
      (* %.15g keeps unix timestamps at sub-millisecond precision while
         still printing small values compactly. *)
      if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.15g" v)
      else Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          add_json b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          add_json b v)
        fields;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 256 in
  add_json b j;
  Buffer.contents b

(* -- sink and configuration ----------------------------------------- *)

type sink = Disabled | To_stderr | To_file of out_channel * string

type state = {
  mutable sink : sink [@guarded_by "lock"];
  mutable min_level : level [@guarded_by "lock"];
  mutable slow_query_s : float option [@guarded_by "lock"];
  samples : (string, int) Hashtbl.t;       (* kind -> keep one in N *)
  sample_ticks : (string, int ref) Hashtbl.t;
  mutable configured : bool [@guarded_by "lock"];
  mutable max_bytes : int option [@guarded_by "lock"];  (* rotation trigger *)
  mutable keep : int [@guarded_by "lock"];      (* rotated files retained *)
  mutable sink_bytes : int [@guarded_by "lock"];  (* current file size *)
  lock : Mutex.t;
}

let state =
  {
    sink = Disabled;
    min_level = Info;
    slow_query_s = None;
    samples = Hashtbl.create 8;
    sample_ticks = Hashtbl.create 8;
    configured = false;
    max_bytes = None;
    keep = 3;
    sink_bytes = 0;
    lock = Mutex.create ();
  }

let m_rotations = Metrics.counter "event_log.rotations"

let close_sink () =
  (match state.sink with
  | To_file (oc, _) -> ( try close_out oc with Sys_error _ -> ())
  | To_stderr | Disabled -> ());
  state.sink <- Disabled

let open_sink = function
  | None | Some "" -> Disabled
  | Some ("stderr" | "-") -> To_stderr
  | Some path -> (
      try To_file (open_out_gen [ Open_append; Open_creat ] 0o644 path, path)
      with Sys_error _ -> Disabled)

(* Install a sink and reseed the size tracker — append mode means a
   reopened file may already be near the rotation threshold. *)
let set_sink_locked s =
  state.sink <- s;
  state.sink_bytes <-
    (match s with
    | To_file (oc, _) -> ( try out_channel_length oc with Sys_error _ -> 0)
    | To_stderr | Disabled -> 0)

(* Invalid segments are reported (once each) but do not poison the
   valid ones — observability configuration should degrade, not
   vanish. *)
let parse_samples spec =
  String.split_on_char ',' spec
  |> List.iter (fun part ->
         if String.trim part <> "" then
           let bad reason =
             Env.report ~name:"NEPAL_EVENT_SAMPLE" ~value:part ~reason
           in
           match String.index_opt part '=' with
           | Some i -> (
               let kind = String.trim (String.sub part 0 i) in
               let n = String.sub part (i + 1) (String.length part - i - 1) in
               match int_of_string_opt (String.trim n) with
               | Some n when n >= 1 && kind <> "" ->
                   Hashtbl.replace state.samples kind n
               | Some _ -> bad "sample rate below 1 or empty kind"
               | None -> bad "sample rate not an integer")
           | None -> bad "expected kind=N")

let configure_from_env () =
  if not state.configured then begin
    state.configured <- true;
    set_sink_locked (open_sink (Env.string_opt "NEPAL_EVENT_LOG"));
    (match Env.float_opt ~min:0.001 "NEPAL_EVENT_LOG_MAX_MB" with
    | Some mb -> state.max_bytes <- Some (int_of_float (mb *. 1024. *. 1024.))
    | None -> ());
    (match Env.int_opt ~min:1 "NEPAL_EVENT_LOG_KEEP" with
    | Some k -> state.keep <- k
    | None -> ());
    (match
       Env.conv_opt "NEPAL_EVENT_LEVEL" (fun s ->
           match level_of_string s with
           | Some l -> Ok l
           | None -> Error "not a level (debug|info|warn|error)")
     with
    | Some l -> state.min_level <- l
    | None -> ());
    (match Env.string_opt "NEPAL_EVENT_SAMPLE" with
    | Some spec -> parse_samples spec
    | None -> ());
    match Env.float_opt ~min:0. "NEPAL_SLOW_QUERY_MS" with
    | Some ms -> state.slow_query_s <- Some (ms /. 1000.)
    | None -> ()
  end

let with_state f =
  Mutex.lock state.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock state.lock)
    (fun () ->
      configure_from_env ();
      f ())

(* Size-based rotation: close the live file, shift path.N-1 -> path.N
   (dropping the oldest), move the live file to path.1 and reopen
   fresh. Runs inside the locked writer so concurrent emitters never
   interleave with the shift; any rename/IO failure degrades to
   continuing in the current (or a fresh) file rather than losing the
   sink. *)
let rotate_locked oc path =
  (try close_out oc with Sys_error _ -> ());
  let numbered i = Printf.sprintf "%s.%d" path i in
  (try if Sys.file_exists (numbered state.keep) then Sys.remove (numbered state.keep)
   with Sys_error _ -> ());
  for i = state.keep - 1 downto 1 do
    try
      if Sys.file_exists (numbered i) then Sys.rename (numbered i) (numbered (i + 1))
    with Sys_error _ -> ()
  done;
  (try Sys.rename path (numbered 1) with Sys_error _ -> ());
  set_sink_locked (open_sink (Some path));
  Metrics.incr m_rotations

let write_line_locked line =
  match state.sink with
  | To_stderr ->
      output_string stderr line;
      flush stderr
  | To_file (oc, path) -> (
      try
        output_string oc line;
        flush oc;
        state.sink_bytes <- state.sink_bytes + String.length line;
        match state.max_bytes with
        | Some max when state.sink_bytes >= max -> rotate_locked oc path
        | Some _ | None -> ()
      with Sys_error _ -> close_sink ())
  | Disabled -> ()

(* One env.invalid event per invalid recorded by {!Env} — including
   invalids from modules initialized before the sink was configured
   (the cursor starts at 0). Runs under the state lock with the sink
   enabled; the cursor advances even below the level floor so a
   filtered invalid is not retried forever. *)
let env_flushed = ref 0 [@@guarded_by "state.lock"]

let flush_env_invalids_locked () =
  let n = Env.invalid_count () in
  if n > !env_flushed then begin
    let fresh = Env.invalids_after !env_flushed in
    env_flushed := n;
    if level_rank Warn >= level_rank state.min_level then
      List.iter
        (fun (iv : Env.invalid) ->
          let b = Buffer.create 128 in
          add_json b
            (Obj
               [
                 ("ts", Float (Unix.gettimeofday ()));
                 ("level", Str "warn");
                 ("kind", Str "env.invalid");
                 ("var", Str iv.Env.env_name);
                 ("value", Str iv.Env.env_value);
                 ("reason", Str iv.Env.env_reason);
               ]);
          Buffer.add_char b '\n';
          write_line_locked (Buffer.contents b))
        fresh
  end

let enabled () =
  with_state (fun () ->
      if state.sink <> Disabled then flush_env_invalids_locked ();
      state.sink <> Disabled)

let set_path path =
  with_state (fun () ->
      close_sink ();
      set_sink_locked (open_sink path))

let set_rotation ~max_bytes ?(keep = 3) () =
  with_state (fun () ->
      state.max_bytes <- max_bytes;
      state.keep <- Stdlib.max 1 keep)

let set_level l = with_state (fun () -> state.min_level <- l)

let set_sample ~kind n =
  with_state (fun () ->
      if n <= 1 then Hashtbl.remove state.samples kind
      else Hashtbl.replace state.samples kind n;
      Hashtbl.remove state.sample_ticks kind)

let slow_query_threshold () =
  with_state (fun () -> if state.sink = Disabled then None else state.slow_query_s)

let set_slow_query_threshold s = with_state (fun () -> state.slow_query_s <- s)

(* Keep the 1st, (N+1)th, ... event of each sampled kind: deterministic,
   so tests and operators can predict which events survive. Assumes the
   state lock is held. *)
let sampled_out kind =
  match Hashtbl.find_opt state.samples kind with
  | None -> false
  | Some n ->
      let tick =
        match Hashtbl.find_opt state.sample_ticks kind with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.replace state.sample_ticks kind r;
            r
      in
      let keep = !tick mod n = 0 in
      Stdlib.incr tick;
      not keep

(* Events an armed sink declined to write — the level floor or the
   per-kind sampler filtered them. The live count `introspect` reports:
   a non-zero delta tells an operator the event stream they are tailing
   is not the whole story. (Events while the sink is Disabled are not
   counted: nothing was armed to receive them.) *)
let suppressed_events = Atomic.make 0

let suppressed () = Atomic.get suppressed_events

(* Exposed as a gauge so a scraper of the OpenMetrics endpoint can
   watch its growth rate. Reads only the atomic — safe under the
   registry lock. *)
let () =
  Metrics.register_gauge "event_log.suppressed" (fun () ->
      float_of_int (Atomic.get suppressed_events))

let emit ?(level = Info) ~kind fields =
  if
    (* Cheap short-circuit for the disabled-but-unconfigured case: the
       first call configures; afterwards a disabled log costs only this
       check plus the mutex in [with_state]. *)
    state.configured && state.sink = Disabled
  then ()
  else
    with_state (fun () ->
        match state.sink with
        | Disabled -> ()
        | To_stderr | To_file _ ->
            flush_env_invalids_locked ();
            if
              not
                (level_rank level >= level_rank state.min_level
                && not (sampled_out kind))
            then ignore (Atomic.fetch_and_add suppressed_events 1)
            else begin
              let b = Buffer.create 256 in
              add_json b
                (Obj
                   (("ts", Float (Unix.gettimeofday ()))
                   :: ("level", Str (level_to_string level))
                   :: ("kind", Str kind)
                   :: fields));
              Buffer.add_char b '\n';
              write_line_locked (Buffer.contents b)
            end)

(* Test isolation: reset sampling counters (the sink and thresholds are
   deliberate configuration, not accumulated state, so they stay). *)
let () =
  Metrics.on_reset (fun () ->
      Mutex.lock state.lock;
      Hashtbl.reset state.sample_ticks;
      Mutex.unlock state.lock)
