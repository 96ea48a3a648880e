(* Standing path queries over the store's change feed.

   A monitor owns one CDC subscription on a graph store and a set of
   *watches* — parsed queries with a baseline result set. Draining the
   feed marks a watch dirty only when a change passes the watch's
   pre-computed relevance filter (classes reachable by the query under
   the junction rule, plus a temporal bound — see
   [Nepal_analysis.Analysis.relevance]); an irrelevant change costs one
   set lookup and a counter bump. Dirty watches are re-evaluated in a
   batch once their debounce window has passed (or immediately on
   [flush]), and the new result set is diffed against the previous one
   by path fingerprint, producing [path.up] / [path.down] /
   [path.changed] alerts that are both returned to the caller and
   emitted through the event log.

   The monitor never spawns a thread: the owner decides when [poll]
   runs (the CLI loops; tests call [flush] for determinism). *)

module Metrics = Nepal_util.Metrics
module Event_log = Nepal_util.Event_log
module Strset = Nepal_util.Strset
module Strmap = Nepal_util.Strmap
module Time_point = Nepal_temporal.Time_point
module Graph_store = Nepal_store.Graph_store
module Change = Graph_store.Change
module Q = Nepal_query.Query_ast
module Engine = Nepal_engine.Engine
module Backend_intf = Nepal_query.Backend_intf
module Path = Nepal_query.Path
module Analysis = Nepal_analysis.Analysis

(* -- instruments ------------------------------------------------------ *)

let m_evaluations = Metrics.counter "monitor.evaluations"
let m_skipped = Metrics.counter "monitor.skipped"
let m_alerts = Metrics.counter "monitor.alerts"
let m_changes = Metrics.counter "monitor.changes"
let m_cdc_dropped = Metrics.counter "monitor.cdc_dropped"
let m_eval_seconds = Metrics.histogram "monitor.eval_seconds"

(* Debounce-to-eval delay: first dirtying -> evaluation start. Under a
   steady poll cadence this sits just above the debounce window; it
   growing past that means the pump is starved. *)
let m_debounce_delay = Metrics.histogram "monitor.debounce_seconds"

(* Across every monitor in the process, for the registry gauge. *)
let active_watches = Atomic.make 0

let () =
  Metrics.register_gauge "monitor.watches_active" (fun () ->
      float_of_int (Atomic.get active_watches))

let default_debounce_s () =
  match Nepal_util.Env.float_opt ~min:0. "NEPAL_WATCH_DEBOUNCE_MS" with
  | Some ms -> ms /. 1000.
  | None -> 0.05

(* -- types ------------------------------------------------------------ *)

type watch = {
  w_id : int;
  w_text : string;
  w_query : Q.query;
  w_relevance : Analysis.relevance;
  mutable w_known : string Strmap.t [@guarded_by "owner: Server.mon_lock"];
      (* row fingerprint -> rendering *)
  mutable w_dirty : bool [@guarded_by "owner: Server.mon_lock"];
  mutable w_dirty_since : float [@guarded_by "owner: Server.mon_lock"];
      (* wall clock of first dirtying *)
  mutable w_origin_wall : float [@guarded_by "owner: Server.mon_lock"];
      (* publish stamp of the oldest CDC change pending on this watch;
         0. = none. The origin of the end-to-end alert latency. *)
  mutable w_active : bool [@guarded_by "owner: Server.mon_lock"];
}

type alert_kind = Path_up | Path_down | Path_changed

type alert = {
  al_watch : int;
  al_query : string;
  al_kind : alert_kind;
  al_added : string list;
  al_removed : string list;
  al_total : int;
  al_at : Time_point.t;
  al_wall_s : float;
  al_origin_wall : float option;
      (* publish wall clock of the oldest change behind this alert *)
}

type t = {
  store : Graph_store.t;
  conn_of : unit -> Backend_intf.conn;
  sub : Graph_store.subscription;
  debounce_s : float;
  mutable watches : watch list [@guarded_by "owner: Server.mon_lock"];
  mutable next_id : int [@guarded_by "owner: Server.mon_lock"];
  mutable seen_dropped : int [@guarded_by "owner: Server.mon_lock"];
  mutable closed : bool [@guarded_by "owner: Server.mon_lock"];
}

let alert_kind_string = function
  | Path_up -> "path.up"
  | Path_down -> "path.down"
  | Path_changed -> "path.changed"

(* -- construction ----------------------------------------------------- *)

let create ?debounce_ms ?cdc_capacity ?conn ?conn_provider store =
  let conn_of =
    match (conn_provider, conn) with
    | Some f, _ -> f
    | None, Some c -> fun () -> c
    | None, None ->
        let c = Nepal_query.Connect.native store in
        fun () -> c
  in
  let debounce_s =
    match debounce_ms with
    | Some ms -> Float.max 0. (ms /. 1000.)
    | None -> default_debounce_s ()
  in
  {
    store;
    conn_of;
    sub = Graph_store.subscribe store ?capacity:cdc_capacity ();
    debounce_s;
    watches = [];
    next_id = 1;
    seen_dropped = 0;
    closed = false;
  }

let debounce_seconds t = t.debounce_s
let watch_count t = List.length t.watches
let watch_id w = w.w_id
let watch_text w = w.w_text

let watch_fingerprints w = List.map fst (Strmap.bindings w.w_known)

let watch_relevant_classes w =
  match w.w_relevance.Analysis.rel_classes with
  | Some s -> Some (Strset.elements s)
  | None -> None

(* -- fingerprints ----------------------------------------------------- *)

(* A row's identity is the uid chain of each bound pathway — the same
   path re-derived on the next evaluation has the same fingerprint even
   though the Path values are fresh allocations. The human rendering
   rides along for alert payloads. *)
let fingerprints_of_result res =
  match res with
  | Engine.Rows { vars; rows } ->
      List.map
        (fun (r : Engine.row) ->
          let per_var f =
            List.map
              (fun v ->
                match Strmap.find_opt v r.Engine.paths with
                | Some p -> f v p
                | None -> v ^ "=?")
              vars
          in
          let fp =
            String.concat ";"
              (per_var (fun v p ->
                   v ^ "="
                   ^ String.concat "." (List.map string_of_int (Path.key p))))
          in
          let rendering =
            String.concat " | " (per_var (fun v p -> v ^ ": " ^ Path.to_string p))
          in
          (fp, rendering))
        rows
  | Engine.Table { rows; _ } ->
      List.map
        (fun row ->
          let s =
            String.concat ", " (List.map Nepal_schema.Value.to_string row)
          in
          (s, s))
        rows

(* -- evaluation and diffing ------------------------------------------- *)

let emit_alert a =
  Metrics.incr m_alerts;
  if Event_log.enabled () then
    Event_log.emit
      ~level:(match a.al_kind with Path_down -> Event_log.Warn | _ -> Event_log.Info)
      ~kind:(alert_kind_string a.al_kind)
      [
        ("watch", Event_log.Int a.al_watch);
        ("query", Event_log.Str a.al_query);
        ("total", Event_log.Int a.al_total);
        ("added", Event_log.List (List.map (fun s -> Event_log.Str s) a.al_added));
        ("removed",
         Event_log.List (List.map (fun s -> Event_log.Str s) a.al_removed));
        ("at", Event_log.Str (Time_point.to_string a.al_at));
        ("wall_ms", Event_log.Float (a.al_wall_s *. 1e3));
      ]

(* Re-run the watch and diff. [quiet] suppresses alerting (baseline
   priming at registration). Returns at most one alert. *)
let evaluate t w ~quiet ~analyze =
  let conn = t.conn_of () in
  let t0 = Unix.gettimeofday () in
  if w.w_dirty && w.w_dirty_since > 0. then
    Metrics.observe m_debounce_delay (t0 -. w.w_dirty_since);
  let origin_wall =
    if w.w_origin_wall > 0. then Some w.w_origin_wall else None
  in
  let res =
    Engine.run_instrumented ~conn ~analyze ~text:(Some w.w_text) w.w_query
  in
  let wall = Unix.gettimeofday () -. t0 in
  Metrics.incr m_evaluations;
  Metrics.observe m_eval_seconds wall;
  w.w_dirty <- false;
  w.w_origin_wall <- 0.;
  match res with
  | Error e -> Error e
  | Ok res ->
      let next =
        List.fold_left
          (fun m (fp, rendering) -> Strmap.add fp rendering m)
          Strmap.empty (fingerprints_of_result res)
      in
      let added =
        Strmap.fold
          (fun fp rendering acc ->
            if Strmap.mem fp w.w_known then acc else rendering :: acc)
          next []
        |> List.rev
      in
      let removed =
        Strmap.fold
          (fun fp rendering acc ->
            if Strmap.mem fp next then acc else rendering :: acc)
          w.w_known []
        |> List.rev
      in
      let was_empty = Strmap.is_empty w.w_known in
      let is_empty = Strmap.is_empty next in
      w.w_known <- next;
      if quiet || (added = [] && removed = []) then Ok None
      else begin
        let kind =
          if was_empty && not is_empty then Path_up
          else if is_empty && not was_empty then Path_down
          else Path_changed
        in
        let a =
          {
            al_watch = w.w_id;
            al_query = w.w_text;
            al_kind = kind;
            al_added = added;
            al_removed = removed;
            al_total = Strmap.cardinal next;
            al_at = Graph_store.clock t.store;
            al_wall_s = wall;
            al_origin_wall = origin_wall;
          }
        in
        emit_alert a;
        Ok (Some a)
      end

(* -- registration ----------------------------------------------------- *)

let watch t text =
  if t.closed then Error "monitor is closed"
  else
    match Nepal_query.Query_parser.parse text with
    | Error e -> Error e
    | Ok q -> (
        let rel = Analysis.relevance ~schema:(Graph_store.schema t.store) q in
        let w =
          {
            w_id = t.next_id;
            w_text = text;
            w_query = q;
            w_relevance = rel;
            w_known = Strmap.empty;
            w_dirty = false;
            w_dirty_since = 0.;
            w_origin_wall = 0.;
            w_active = true;
          }
        in
        (* Baseline evaluation: analysis runs once here (`Warn), then
           never again on re-evaluations. A query that cannot evaluate
           is refused outright rather than registered broken. *)
        match evaluate t w ~quiet:true ~analyze:`Warn with
        | Error e -> Error e
        | Ok _ ->
            t.next_id <- t.next_id + 1;
            t.watches <- t.watches @ [ w ];
            ignore (Atomic.fetch_and_add active_watches 1);
            Ok w)

let unwatch t w =
  if w.w_active then begin
    w.w_active <- false;
    t.watches <- List.filter (fun x -> x != w) t.watches;
    ignore (Atomic.fetch_and_add active_watches (-1))
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun w -> unwatch t w) t.watches;
    Graph_store.unsubscribe t.store t.sub
  end

(* -- change intake ---------------------------------------------------- *)

let relevant w (c : Change.t) =
  (match w.w_relevance.Analysis.rel_until with
  | Some until -> Time_point.compare c.Change.at until <= 0
  | None -> true)
  &&
  match w.w_relevance.Analysis.rel_classes with
  | Some s -> Strset.mem c.Change.cls s
  | None -> true

(* [wall] is the publish stamp of the change doing the dirtying (or
   [now] for a drop-resync, where the true origin is unknowable). A
   watch keeps the *oldest* pending origin, so the e2e latency of the
   eventual alert covers every change it coalesced. *)
let mark_dirty ~wall now w =
  if not w.w_dirty then begin
    w.w_dirty <- true;
    w.w_dirty_since <- now
  end;
  if w.w_origin_wall = 0. || wall < w.w_origin_wall then
    w.w_origin_wall <- wall

(* Drain the CDC buffer and dirty the affected watches. A drop-counter
   advance means the stream has a gap, so every watch must resync
   (re-evaluate) — the filter only applies to changes we saw. *)
let absorb t =
  let now = Unix.gettimeofday () in
  let dropped = Graph_store.dropped t.sub in
  if dropped > t.seen_dropped then begin
    Metrics.add m_cdc_dropped (dropped - t.seen_dropped);
    t.seen_dropped <- dropped;
    List.iter (mark_dirty ~wall:now now) t.watches
  end;
  let changes = Graph_store.drain t.sub in
  List.iter
    (fun c ->
      Metrics.incr m_changes;
      List.iter
        (fun w ->
          if relevant w c then mark_dirty ~wall:c.Change.wall now w
          else Metrics.incr m_skipped)
        t.watches)
    changes;
  List.length changes

let run_dirty t ~due =
  List.filter_map
    (fun w ->
      if w.w_active && w.w_dirty && due w then
        match evaluate t w ~quiet:false ~analyze:`Off with
        | Ok alert -> alert
        | Error e ->
            if Event_log.enabled () then
              Event_log.emit ~level:Event_log.Error ~kind:"monitor.error"
                [
                  ("watch", Event_log.Int w.w_id);
                  ("query", Event_log.Str w.w_text);
                  ("error", Event_log.Str e);
                ];
            None
      else None)
    t.watches

let poll ?now t =
  ignore (absorb t);
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  run_dirty t ~due:(fun w -> now -. w.w_dirty_since >= t.debounce_s)

let flush t =
  ignore (absorb t);
  run_dirty t ~due:(fun _ -> true)

let pending_changes t = Graph_store.pending t.sub
