module Schema = Nepal_schema.Schema
module Value = Nepal_schema.Value
module Event_log = Nepal_util.Event_log
module Strmap = Nepal_util.Strmap
module Time_point = Nepal_temporal.Time_point
module Interval = Nepal_temporal.Interval
module Time_constraint = Nepal_temporal.Time_constraint

type uid = Entity.uid

(* -- change-data capture -------------------------------------------- *)

(* One successful mutation, as seen by a subscriber. Carries enough for
   a consumer to decide relevance without reading the store: the
   operation, the entity's identity and class, edge endpoints, the
   transaction time, and the store version after the mutation (so a
   consumer can order changes and detect whether it is caught up). *)
module Change = struct
  type op = Insert | Update | Retire

  type t = {
    op : op;
    uid : Entity.uid;
    cls : string;
    node : bool;
    endpoints : (Entity.uid * Entity.uid) option;  (* edges only *)
    at : Time_point.t;
    version : int;
    wall : float;  (* Unix.gettimeofday at publish: e2e latency origin *)
  }

  let op_to_string = function
    | Insert -> "insert"
    | Update -> "update"
    | Retire -> "retire"

  let to_string c =
    Printf.sprintf "%s %s #%d @%s v%d" (op_to_string c.op) c.cls c.uid
      (Time_point.to_string c.at) c.version
end

(* A bounded single-consumer ring: [publish] never blocks a mutation;
   when the consumer lags past [cap] pending changes the *newest*
   change is dropped and counted, and the consumer is expected to treat
   a non-zero drop delta as "resynchronize from the store". *)
type subscription = {
  sub_cap : int;
  sub_q : Change.t Queue.t;
  mutable sub_dropped : int [@guarded_by "owner: store writer (Server rw)"];
  mutable sub_active : bool [@guarded_by "owner: store writer (Server rw)"];
}

type index_key = string * string (* class, field *)

(* A node's incident edge uids in ascending order, in [ids.(0 ..
   len - 1)]. Uids are handed out in ascending order and an edge is
   appended when it is inserted, so the array is sorted without ever
   being sorted. Deleted edges stay: reads filter by time. *)
type adj = {
  mutable ids : int array [@guarded_by "owner: store writer (Server rw)"];
  mutable len : int [@guarded_by "owner: store writer (Server rw)"];
}

type t = {
  schema : Schema.t;
  mutable clock : Time_point.t [@guarded_by "owner: store writer (Server rw)"];
  mutable version : int [@guarded_by "owner: store writer (Server rw)"];
      (* bumped on every successful mutation *)
  mutable next_uid : int [@guarded_by "owner: store writer (Server rw)"];
  current : (uid, Entity.t) Hashtbl.t;
  history : (uid, Entity.t list) Hashtbl.t; (* closed versions, newest first *)
  extent_current : (string, (uid, unit) Hashtbl.t) Hashtbl.t;
      (* concrete class -> live uids *)
  extent_all : (string, (uid, unit) Hashtbl.t) Hashtbl.t;
      (* concrete class -> uids ever *)
  adj_out : (uid, adj) Hashtbl.t; (* node -> edge uids ever *)
  adj_in : (uid, adj) Hashtbl.t;
  indexes : (index_key, (Value.t, (uid, unit) Hashtbl.t) Hashtbl.t) Hashtbl.t;
      (* (cls, field) -> value -> uids that ever had this value *)
  mutable creation_order : uid list
      [@guarded_by "owner: store writer (Server rw)"]; (* reversed *)
  mutable subs : subscription list
      [@guarded_by "owner: store writer (Server rw)"]; (* CDC subscribers *)
}

let ( let* ) = Result.bind

let create schema =
  {
    schema;
    clock = Time_point.epoch;
    version = 0;
    next_uid = 1;
    current = Hashtbl.create 4096;
    history = Hashtbl.create 4096;
    extent_current = Hashtbl.create 64;
    extent_all = Hashtbl.create 64;
    adj_out = Hashtbl.create 4096;
    adj_in = Hashtbl.create 4096;
    indexes = Hashtbl.create 8;
    creation_order = [];
    subs = [];
  }

let schema t = t.schema
let clock t = t.clock
let version t = t.version

let m_mutations = Nepal_util.Metrics.counter "store.mutations"
let m_cdc_published = Nepal_util.Metrics.counter "store.cdc_published"
let m_cdc_dropped = Nepal_util.Metrics.counter "store.cdc_dropped"

let bump t =
  t.version <- t.version + 1;
  Nepal_util.Metrics.incr m_mutations

let default_cdc_capacity = 4096

let subscribe t ?(capacity = default_cdc_capacity) () =
  let sub =
    { sub_cap = max 1 capacity; sub_q = Queue.create (); sub_dropped = 0;
      sub_active = true }
  in
  t.subs <- sub :: t.subs;
  sub

let unsubscribe t sub =
  sub.sub_active <- false;
  Queue.clear sub.sub_q;
  t.subs <- List.filter (fun s -> s != sub) t.subs

let subscriber_count t = List.length t.subs
let pending sub = Queue.length sub.sub_q
let dropped sub = sub.sub_dropped

let drain sub =
  let changes = List.rev (Queue.fold (fun acc c -> c :: acc) [] sub.sub_q) in
  Queue.clear sub.sub_q;
  changes

(* Fan a successful mutation out to every subscriber. Called after
   [bump], so [t.version] is the post-mutation version. *)
let publish t ~op ~at (e : Entity.t) =
  match t.subs with
  | [] -> ()
  | subs ->
      let change =
        {
          Change.op;
          uid = e.uid;
          cls = e.cls;
          node = Entity.is_node e;
          endpoints = e.endpoints;
          at;
          version = t.version;
          wall = Unix.gettimeofday ();
        }
      in
      Nepal_util.Metrics.incr m_cdc_published;
      List.iter
        (fun sub ->
          if Queue.length sub.sub_q >= sub.sub_cap then begin
            sub.sub_dropped <- sub.sub_dropped + 1;
            Nepal_util.Metrics.incr m_cdc_dropped
          end
          else Queue.add change sub.sub_q)
        subs

let tick t at =
  if Time_point.compare at t.clock < 0 then
    Error
      (Printf.sprintf "transaction time %s precedes store clock %s"
         (Time_point.to_string at)
         (Time_point.to_string t.clock))
  else begin
    t.clock <- at;
    Ok ()
  end

(* -- small hashtable-as-set helpers ------------------------------- *)

let set_add tbl key v =
  let s =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace tbl key s;
        s
  in
  Hashtbl.replace s v ()

let set_remove tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some s -> Hashtbl.remove s v
  | None -> ()

let set_members tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> Hashtbl.fold (fun k () acc -> k :: acc) s []
  | None -> []

(* -- adjacency ------------------------------------------------------ *)

let adj_add tbl node edge =
  match Hashtbl.find tbl node with
  | a ->
      if a.len = Array.length a.ids then begin
        let ids = Array.make (2 * a.len) 0 in
        Array.blit a.ids 0 ids 0 a.len;
        a.ids <- ids
      end;
      a.ids.(a.len) <- edge;
      a.len <- a.len + 1
  | exception Not_found -> Hashtbl.replace tbl node { ids = [| edge |]; len = 1 }

(* -- time-constrained lookups and adjacency folds ------------------- *)

(* The read paths below run per candidate in Extend, so they neither
   build lists nor allocate closures: the helpers are top-level and the
   misses raise [Not_found]. *)

let rec fold_admitted tc f acc = function
  | [] -> acc
  | (e : Entity.t) :: rest ->
      let acc = if Time_constraint.admits tc e.period then f acc e else acc in
      fold_admitted tc f acc rest

(* The versions the constraint admits, newest first: the current one,
   then the closed ones in stored order. No intermediate list. *)
let fold_versions_under t ~tc uid f acc =
  let acc =
    match Hashtbl.find t.current uid with
    | e when Time_constraint.admits tc e.Entity.period -> f acc e
    | _ -> acc
    | exception Not_found -> acc
  in
  match Hashtbl.find t.history uid with
  | closed -> fold_admitted tc f acc closed
  | exception Not_found -> acc

let rec first_admitted tc = function
  | [] -> raise Not_found
  | (e : Entity.t) :: rest ->
      if Time_constraint.admits tc e.period then e else first_admitted tc rest

let closed_under t ~tc uid =
  match tc with
  | Time_constraint.Snapshot -> raise Not_found
  | Time_constraint.At _ | Time_constraint.Range _ ->
      first_admitted tc (Hashtbl.find t.history uid)

(* The newest admitted version: the current one when admitted, else the
   first admitted closed version. *)
let find_under t ~tc uid =
  match Hashtbl.find t.current uid with
  | e when Time_constraint.admits tc e.Entity.period -> e
  | _ -> closed_under t ~tc uid
  | exception Not_found -> closed_under t ~tc uid

let get t ~tc uid =
  match find_under t ~tc uid with e -> Some e | exception Not_found -> None

let rec fold_ids t ~tc ids len i f acc =
  if i >= len then acc
  else
    let acc =
      match find_under t ~tc (Array.unsafe_get ids i) with
      | e -> f acc e
      | exception Not_found -> acc
    in
    fold_ids t ~tc ids len (i + 1) f acc

let fold_adj t ~tc adj uid f acc =
  match Hashtbl.find adj uid with
  | a -> fold_ids t ~tc a.ids a.len 0 f acc
  | exception Not_found -> acc

let fold_out_edges t ~tc uid f acc = fold_adj t ~tc t.adj_out uid f acc
let fold_in_edges t ~tc uid f acc = fold_adj t ~tc t.adj_in uid f acc

(* -- index maintenance --------------------------------------------- *)

(* Register a (possibly new) version's field values in all indexes that
   cover its class. *)
let index_version t (e : Entity.t) =
  Hashtbl.iter
    (fun (cls, fieldname) value_tbl ->
      if Schema.is_subclass t.schema ~sub:e.cls ~sup:cls then
        let v = Entity.field e fieldname in
        set_add value_tbl v e.uid)
    t.indexes

let create_index t ~cls ~field =
  if not (Schema.mem_class t.schema cls) then
    Error (Printf.sprintf "unknown class %S" cls)
  else if Schema.field_type t.schema cls field = None then
    Error (Printf.sprintf "class %S has no field %S" cls field)
  else if Hashtbl.mem t.indexes (cls, field) then Ok ()
  else begin
    let value_tbl = Hashtbl.create 1024 in
    Hashtbl.replace t.indexes (cls, field) value_tbl;
    (* Backfill from every stored version. *)
    let add_entity (e : Entity.t) =
      if Schema.is_subclass t.schema ~sub:e.cls ~sup:cls then
        set_add value_tbl (Entity.field e field) e.uid
    in
    Hashtbl.iter (fun _ e -> add_entity e) t.current;
    Hashtbl.iter (fun _ versions -> List.iter add_entity versions) t.history;
    Ok ()
  end

let has_index t ~cls ~field = Hashtbl.mem t.indexes (cls, field)

(* -- mutations ------------------------------------------------------ *)

let fresh_uid t =
  let u = t.next_uid in
  t.next_uid <- u + 1;
  u

let register_new t (e : Entity.t) =
  Hashtbl.replace t.current e.uid e;
  set_add t.extent_current e.cls e.uid;
  set_add t.extent_all e.cls e.uid;
  (match e.endpoints with
  | Some (s, d) ->
      adj_add t.adj_out s e.uid;
      adj_add t.adj_in d e.uid
  | None -> ());
  t.creation_order <- e.uid :: t.creation_order;
  index_version t e;
  bump t;
  publish t ~op:Change.Insert ~at:e.period.Interval.start e

let insert_node t ~at ~cls ~fields =
  let* () = tick t at in
  let* () =
    match Schema.kind_of t.schema cls with
    | Some Schema.Node_kind -> Ok ()
    | Some Schema.Edge_kind ->
        Error (Printf.sprintf "%S is an edge class; use insert_edge" cls)
    | None -> Error (Printf.sprintf "unknown class %S" cls)
  in
  let* fields = Schema.typecheck_record t.schema cls fields in
  let uid = fresh_uid t in
  let e =
    Entity.make ~uid ~cls ~fields ~period:(Interval.from at) ~endpoints:None
  in
  register_new t e;
  Ok uid

let insert_edge t ~at ~cls ~src ~dst ~fields =
  let* () = tick t at in
  let* () =
    match Schema.kind_of t.schema cls with
    | Some Schema.Edge_kind -> Ok ()
    | Some Schema.Node_kind ->
        Error (Printf.sprintf "%S is a node class; use insert_node" cls)
    | None -> Error (Printf.sprintf "unknown class %S" cls)
  in
  let* fields = Schema.typecheck_record t.schema cls fields in
  let* src_e =
    match Hashtbl.find_opt t.current src with
    | Some e when Entity.is_node e -> Ok e
    | Some _ -> Error (Printf.sprintf "edge endpoint #%d is an edge" src)
    | None -> Error (Printf.sprintf "edge source #%d is not alive" src)
  in
  let* dst_e =
    match Hashtbl.find_opt t.current dst with
    | Some e when Entity.is_node e -> Ok e
    | Some _ -> Error (Printf.sprintf "edge endpoint #%d is an edge" dst)
    | None -> Error (Printf.sprintf "edge target #%d is not alive" dst)
  in
  let* () =
    if Schema.edge_allowed t.schema ~edge:cls ~src:src_e.Entity.cls
         ~dst:dst_e.Entity.cls
    then Ok ()
    else
      Error
        (Printf.sprintf
           "schema forbids edge %s from %s to %s" cls src_e.Entity.cls
           dst_e.Entity.cls)
  in
  let uid = fresh_uid t in
  let e =
    Entity.make ~uid ~cls ~fields ~period:(Interval.from at)
      ~endpoints:(Some (src, dst))
  in
  register_new t e;
  Ok uid

let close_current t ~at uid (e : Entity.t) =
  let closed = { e with period = Interval.close e.period at } in
  let prev = match Hashtbl.find_opt t.history uid with Some l -> l | None -> [] in
  Hashtbl.replace t.history uid (closed :: prev);
  Hashtbl.remove t.current uid;
  set_remove t.extent_current e.cls uid

let update t ~at uid ~fields =
  let* () = tick t at in
  match Hashtbl.find_opt t.current uid with
  | None -> Error (Printf.sprintf "#%d is not alive; cannot update" uid)
  | Some e ->
      let merged =
        Strmap.fold (fun k v acc -> Strmap.add k v acc) fields e.fields
      in
      let* merged = Schema.typecheck_record t.schema e.cls merged in
      if Time_point.compare at e.period.Interval.start <= 0 then
        Error "update time must be after the current version's start"
      else begin
        close_current t ~at uid e;
        let e' =
          Entity.make ~uid ~cls:e.cls ~fields:merged ~period:(Interval.from at)
            ~endpoints:e.endpoints
        in
        Hashtbl.replace t.current uid e';
        set_add t.extent_current e'.cls uid;
        index_version t e';
        bump t;
        publish t ~op:Change.Update ~at e';
        Ok ()
      end

let live_incident_edges t uid =
  let add acc (e : Entity.t) = e.uid :: acc in
  fold_out_edges t ~tc:Time_constraint.Snapshot uid add
    (fold_in_edges t ~tc:Time_constraint.Snapshot uid add [])

let rec delete t ~at ?(cascade = false) uid =
  let* () = tick t at in
  match Hashtbl.find_opt t.current uid with
  | None -> Error (Printf.sprintf "#%d is not alive; cannot delete" uid)
  | Some e ->
      if Time_point.compare at e.period.Interval.start <= 0 then
        Error "delete time must be after the current version's start"
      else if Entity.is_edge e then begin
        close_current t ~at uid e;
        bump t;
        publish t ~op:Change.Retire ~at e;
        Ok ()
      end
      else
        let incident = List.sort_uniq Int.compare (live_incident_edges t uid) in
        if incident <> [] && not cascade then
          Error
            (Printf.sprintf "node #%d has %d live incident edges" uid
               (List.length incident))
        else begin
          let rec drop = function
            | [] -> Ok ()
            | edge_uid :: rest ->
                let* () = delete t ~at ~cascade:false edge_uid in
                drop rest
          in
          let* () = drop incident in
          close_current t ~at uid e;
          bump t;
          publish t ~op:Change.Retire ~at e;
          Ok ()
        end

(* -- mutation audit events ------------------------------------------ *)

(* Every mutation emits a structured audit event: successes at Debug
   (high-volume — visible only under NEPAL_EVENT_LEVEL=debug, and
   boundable via NEPAL_EVENT_SAMPLE="store.mutation=N"), rejections at
   Warn (the "refuses to load garbage" property is worth watching in
   production). With the event log disabled both are a flag check. *)
let audit op ~at ?cls ?uid result =
  (if Event_log.enabled () then
     let base =
       [ ("op", Event_log.Str op);
         ("at", Event_log.Str (Time_point.to_string at)) ]
       @ (match cls with Some c -> [ ("cls", Event_log.Str c) ] | None -> [])
       @ match uid with Some u -> [ ("uid", Event_log.Int u) ] | None -> []
     in
     match result with
     | Ok _ ->
         Event_log.emit ~level:Event_log.Debug ~kind:"store.mutation" base
     | Error e ->
         Event_log.emit ~level:Event_log.Warn ~kind:"store.error"
           (base @ [ ("error", Event_log.Str e) ]));
  result

let insert_node t ~at ~cls ~fields =
  let r = insert_node t ~at ~cls ~fields in
  audit "insert_node" ~at ~cls ?uid:(Result.to_option r) r

let insert_edge t ~at ~cls ~src ~dst ~fields =
  let r = insert_edge t ~at ~cls ~src ~dst ~fields in
  audit "insert_edge" ~at ~cls ?uid:(Result.to_option r) r

let update t ~at uid ~fields =
  audit "update" ~at ~uid (update t ~at uid ~fields)

let delete t ~at ?cascade uid =
  audit "delete" ~at ~uid (delete t ~at ?cascade uid)

(* -- reads ---------------------------------------------------------- *)

let versions t uid =
  let closed =
    match Hashtbl.find_opt t.history uid with Some l -> List.rev l | None -> []
  in
  match Hashtbl.find_opt t.current uid with
  | Some e -> closed @ [ e ]
  | None -> closed

let scan_class t ~tc cls =
  let concrete = Schema.subclasses t.schema cls in
  match tc with
  | Time_constraint.Snapshot ->
      List.concat_map
        (fun c ->
          List.filter_map
            (fun uid -> Hashtbl.find_opt t.current uid)
            (set_members t.extent_current c))
        concrete
      |> List.sort (fun (a : Entity.t) b -> Int.compare a.uid b.uid)
  | _ ->
      List.concat_map
        (fun c ->
          List.filter_map (fun uid -> get t ~tc uid) (set_members t.extent_all c))
        concrete
      |> List.sort (fun (a : Entity.t) b -> Int.compare a.uid b.uid)

let cons_edge acc (e : Entity.t) = e :: acc
let out_edges t ~tc uid = List.rev (fold_out_edges t ~tc uid cons_edge [])
let in_edges t ~tc uid = List.rev (fold_in_edges t ~tc uid cons_edge [])

let lookup t ~tc ~cls ~field value =
  let filter_entities uids =
    List.filter_map
      (fun uid ->
        match get t ~tc uid with
        | Some e
          when Schema.is_subclass t.schema ~sub:e.Entity.cls ~sup:cls
               && Value.equal (Entity.field e field) value ->
            Some e
        | _ -> None)
      uids
    |> List.sort (fun (a : Entity.t) b -> Int.compare a.uid b.uid)
  in
  match Hashtbl.find_opt t.indexes (cls, field) with
  | Some value_tbl -> filter_entities (set_members value_tbl value)
  | None ->
      List.filter
        (fun e -> Value.equal (Entity.field e field) value)
        (scan_class t ~tc cls)

(* -- statistics ----------------------------------------------------- *)

let count_current t ~cls =
  List.fold_left
    (fun acc c ->
      acc
      + match Hashtbl.find_opt t.extent_current c with
        | Some s -> Hashtbl.length s
        | None -> 0)
    0
    (Schema.subclasses t.schema cls)

let count_versions t =
  let closed = Hashtbl.fold (fun _ l acc -> acc + List.length l) t.history 0 in
  closed + Hashtbl.length t.current

let count_entities t = t.next_uid - 1
let count_current_total t = Hashtbl.length t.current

let class_histogram t =
  Hashtbl.fold
    (fun cls s acc ->
      if Hashtbl.length s > 0 then (cls, Hashtbl.length s) :: acc else acc)
    t.extent_current []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let live_uids t =
  List.filter (fun uid -> Hashtbl.mem t.current uid) (List.rev t.creation_order)
