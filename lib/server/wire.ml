(* The JSONL wire protocol (DESIGN.md §12).

   Every frame is one JSON object on one line. Client → server frames
   carry an ["op"] (the verb) and an optional ["id"] the response
   echoes; server → client frames are either responses ([{"id", "ok",
   ...}]) or unsolicited events ([{"event", ...}]: the [hello]
   greeting and streamed watch alerts). Alerts ride the session that
   registered the watch and carry that session's cumulative [dropped]
   counter, so a slow client can see exactly how much the bounded
   outbox has shed on its behalf. *)

module J = Nepal_util.Event_log
module Jsonp = Nepal_util.Jsonp

let proto_version = 1
let default_max_line = 1 lsl 20

type request =
  | Ping
  | Query of { q : string; trace : bool }
  | Watch of string
  | Unwatch of int
  | Stats
  | Introspect
  | History of {
      series : string option;
      window_s : float option;
      res : Nepal_util.Timeseries.resolution;
    }

let verb_of_request = function
  | Ping -> "ping"
  | Query _ -> "query"
  | Watch _ -> "watch"
  | Unwatch _ -> "unwatch"
  | Stats -> "stats"
  | Introspect -> "introspect"
  | History _ -> "history"

(* The request id as received: echoed verbatim in the response so the
   client can correlate; [J.Null] when absent. Only scalar ids are
   accepted — an object id smells like a confused client. *)
let id_of json =
  match Jsonp.member "id" json with
  | None -> Ok J.Null
  | Some (J.Int _ | J.Str _ | J.Null) as s -> (
      match s with Some v -> Ok v | None -> Ok J.Null)
  | Some _ -> Error "id must be an integer, string, or null"

let parse_request line =
  match Jsonp.parse line with
  | Error e -> Error (J.Null, e)
  | Ok json -> (
      match id_of json with
      | Error e -> Error (J.Null, e)
      | Ok id -> (
          let text_arg verb k =
            match Jsonp.string_field "q" json with
            | Some q when String.trim q <> "" -> k q
            | Some _ -> Error (id, Printf.sprintf "%s: empty \"q\"" verb)
            | None ->
                Error (id, Printf.sprintf "%s requires a string field \"q\"" verb)
          in
          match Jsonp.string_field "op" json with
          | None -> Error (id, "missing string field \"op\"")
          | Some "ping" -> Ok (id, Ping)
          | Some "stats" -> Ok (id, Stats)
          | Some "introspect" -> Ok (id, Introspect)
          | Some "query" ->
              text_arg "query" (fun q ->
                  let trace =
                    match Jsonp.bool_field "trace" json with
                    | Some b -> b
                    | None -> false
                  in
                  Ok (id, Query { q; trace }))
          | Some "watch" -> text_arg "watch" (fun q -> Ok (id, Watch q))
          | Some "unwatch" -> (
              match Jsonp.int_field "watch" json with
              | Some w -> Ok (id, Unwatch w)
              | None ->
                  Error (id, "unwatch requires an integer field \"watch\""))
          | Some "history" -> (
              (* all fields optional: no "series" asks for the name
                 list, no "window_s" for all retained points *)
              let series =
                match Jsonp.member "series" json with
                | Some (J.Str s) when String.trim s <> "" -> Ok (Some s)
                | Some _ -> Error "history: \"series\" must be a string"
                | None -> Ok None
              in
              let window_s =
                match Jsonp.member "window_s" json with
                | Some (J.Int i) when i > 0 -> Ok (Some (float_of_int i))
                | Some (J.Float f) when f > 0. -> Ok (Some f)
                | Some _ -> Error "history: \"window_s\" must be a positive number"
                | None -> Ok None
              in
              let res =
                match Jsonp.member "res" json with
                | Some (J.Str s) -> (
                    match Nepal_util.Timeseries.resolution_of_string s with
                    | Some r -> Ok r
                    | None -> Error "history: \"res\" must be raw|mid|coarse")
                | Some _ -> Error "history: \"res\" must be a string"
                | None -> Ok Nepal_util.Timeseries.Raw
              in
              match (series, window_s, res) with
              | Ok series, Ok window_s, Ok res ->
                  Ok (id, History { series; window_s; res })
              | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error (id, e))
          | Some other ->
              Error
                ( id,
                  Printf.sprintf
                    "unknown op %S \
                     (ping|query|watch|unwatch|stats|introspect|history)"
                    other )))

(* -- server → client frames ------------------------------------------- *)

(* One frame: the JSON text and its newline rendered into one buffer.
   [size_hint] is the bulk of the payload when the caller knows it, so
   a large result frame is built without regrowing the buffer. *)
let line ?(size_hint = 0) j =
  let b = Buffer.create (size_hint + 256) in
  J.add_json b j;
  Buffer.add_char b '\n';
  Buffer.contents b

let hello () =
  line
    (J.Obj
       [
         ("event", J.Str "hello");
         ("server", J.Str "nepal");
         ("proto", J.Int proto_version);
       ])

let error_frame ~id msg =
  line (J.Obj [ ("id", id); ("ok", J.Bool false); ("error", J.Str msg) ])

let pong ~id = line (J.Obj [ ("id", id); ("ok", J.Bool true); ("type", J.Str "pong") ])

let query_result ?trace ~id ~count ~text () =
  (* rendered results escape about one byte in a line (the newline) *)
  let n = String.length text in
  line ~size_hint:(n + (n / 8))
    (J.Obj
       ([
          ("id", id);
          ("ok", J.Bool true);
          ("type", J.Str "result");
          ("count", J.Int count);
          ("text", J.Str text);
        ]
       @ match trace with Some t -> [ ("trace", t) ] | None -> []))

let watch_ack ~id ~watch ~total =
  line
    (J.Obj
       [
         ("id", id);
         ("ok", J.Bool true);
         ("type", J.Str "watch");
         ("watch", J.Int watch);
         ("total", J.Int total);
       ])

let unwatch_ack ~id ~existed =
  line
    (J.Obj
       [
         ("id", id);
         ("ok", J.Bool true);
         ("type", J.Str "unwatch");
         ("existed", J.Bool existed);
       ])

let stats_frame ~id fields =
  line
    (J.Obj
       ([ ("id", id); ("ok", J.Bool true); ("type", J.Str "stats") ] @ fields))

let history_frame ~id ~series ~res ~interval_s ~points =
  let point_json (p : Nepal_util.Timeseries.point) =
    J.Obj
      [
        ("t", J.Float p.Nepal_util.Timeseries.ts);
        ("min", J.Float p.Nepal_util.Timeseries.v_min);
        ("max", J.Float p.Nepal_util.Timeseries.v_max);
        ("mean", J.Float p.Nepal_util.Timeseries.v_mean);
        ("last", J.Float p.Nepal_util.Timeseries.v_last);
        ("n", J.Int p.Nepal_util.Timeseries.v_n);
      ]
  in
  line
    (J.Obj
       [
         ("id", id);
         ("ok", J.Bool true);
         ("type", J.Str "history");
         ("series", J.Str series);
         ("res", J.Str (Nepal_util.Timeseries.resolution_to_string res));
         ("interval_s", J.Float interval_s);
         ("points", J.List (List.map point_json points));
       ])

let series_frame ~id names =
  line
    (J.Obj
       [
         ("id", id);
         ("ok", J.Bool true);
         ("type", J.Str "series");
         ("series", J.List (List.map (fun s -> J.Str s) names));
       ])

let introspect_frame ~id fields =
  line
    (J.Obj
       ([ ("id", id); ("ok", J.Bool true); ("type", J.Str "introspect") ]
       @ fields))

let alert ?latency_ms ~watch ~kind ~added ~removed ~total ~at ~wall_ms ~dropped
    () =
  let strs l = J.List (List.map (fun s -> J.Str s) l) in
  line
    (J.Obj
       ([
          ("event", J.Str "alert");
          ("watch", J.Int watch);
          ("kind", J.Str kind);
          ("added", strs added);
          ("removed", strs removed);
          ("total", J.Int total);
          ("at", J.Str at);
          ("wall_ms", J.Float wall_ms);
        ]
       @ (match latency_ms with
         | Some ms -> [ ("latency_ms", J.Float ms) ]
         | None -> [])
       @ [ ("dropped", J.Int dropped) ]))

(* -- client-side trace rendering -------------------------------------- *)

(* Render the ["trace"] object of a traced query response — the span
   tree exactly as in-process EXPLAIN ANALYZE prints it, then the plan
   and analyzer diagnostics. Tolerant of missing members: a frame from
   a newer or older server renders what is recognizably there. *)
let render_trace trace =
  let str_items = function
    | Some (J.List l) ->
        List.filter_map (function J.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let span_line j =
    let field name =
      match Jsonp.member name j with
      | Some (J.Str s) -> s
      | Some (J.Int i) -> string_of_int i
      | Some (J.Float f) -> Printf.sprintf "%g" f
      | _ -> ""
    in
    let num name =
      match Jsonp.member name j with
      | Some (J.Int i) -> Some (float_of_int i)
      | Some (J.Float f) -> Some f
      | _ -> None
    in
    let fields =
      List.concat
        [
          (match num "wall_ms" with
          | Some ms -> [ Printf.sprintf "wall=%.3fms" ms ]
          | None -> []);
          (match num "rows_in" with
          | Some n when n > 0. -> [ Printf.sprintf "rows_in=%.0f" n ]
          | _ -> []);
          (match num "rows_out" with
          | Some n -> [ Printf.sprintf "rows_out=%.0f" n ]
          | None -> []);
          (match num "est_rows" with
          | Some n -> [ Printf.sprintf "est=%.0f" n ]
          | None -> []);
          (match num "calls" with
          | Some n when n > 0. -> [ Printf.sprintf "calls=%.0f" n ]
          | _ -> []);
        ]
    in
    let detail = field "detail" in
    Printf.sprintf "%s%s  (%s)" (field "name")
      (if detail = "" then "" else " " ^ detail)
      (String.concat ", " fields)
  in
  let rec render_span depth j acc =
    let acc = (String.make (depth * 2) ' ' ^ span_line j) :: acc in
    match Jsonp.member "children" j with
    | Some (J.List kids) ->
        List.fold_left (fun acc k -> render_span (depth + 1) k acc) acc kids
    | _ -> acc
  in
  let spans =
    match Jsonp.member "spans" trace with
    | Some s -> List.rev (render_span 0 s [])
    | None -> []
  in
  let section header items =
    match items with [] -> [] | l -> ("" :: header :: List.map (fun s -> "  " ^ s) l)
  in
  spans
  @ section "plan:" (str_items (Jsonp.member "plan" trace))
  @ section "diagnostics:" (str_items (Jsonp.member "diagnostics" trace))
