module Schema = Nepal_schema.Schema
module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Time_point = Nepal_temporal.Time_point
module Time_constraint = Nepal_temporal.Time_constraint
module Interval = Nepal_temporal.Interval
module Interval_set = Nepal_temporal.Interval_set
module Rpe = Nepal_rpe.Rpe
module Predicate = Nepal_rpe.Predicate
module G = Nepal_gremlin
open Backend_intf

type t = {
  schema : Schema.t;
  graph : G.Pgraph.t;
  versions : (int, version list) Hashtbl.t; (* oldest first *)
  mutable log : string list;
  mutable log_len : int;
}

let name = "gremlin"
let schema t = t.schema
let graph t = t.graph

(* Read paths log the traversal text, so walks stay sequential here. *)
let parallel_safe = false

let max_log = 500

let log_traversal t steps =
  if t.log_len < max_log then begin
    t.log <- G.Traversal.to_gremlin steps :: t.log;
    t.log_len <- t.log_len + 1
  end

let take_log t =
  let l = List.rev t.log in
  t.log <- [];
  t.log_len <- 0;
  l

let create schema =
  {
    schema;
    graph = G.Pgraph.create ();
    versions = Hashtbl.create 4096;
    log = [];
    log_len = 0;
  }

let element_count t =
  G.Pgraph.vertex_count t.graph + G.Pgraph.edge_count t.graph

(* Overall existence interval of an entity: from its first version's
   start to its last version's end. *)
let existence_period versions =
  match versions with
  | [] -> None
  | first :: _ ->
      let last = List.nth versions (List.length versions - 1) in
      Some
        {
          Interval.start = first.period.Interval.start;
          stop = last.period.Interval.stop;
        }

let mirror_store t store =
  let module GS = Nepal_store.Graph_store in
  let module E = Nepal_store.Entity in
  let sch = GS.schema store in
  let uids = List.init (GS.count_entities store) (fun i -> i + 1) in
  (* Vertices before edges so endpoints exist. *)
  let entity_versions uid =
    List.map
      (fun (v : E.t) -> { period = v.period; fields = v.fields })
      (GS.versions store uid)
  in
  let latest uid = List.rev (GS.versions store uid) |> function
    | v :: _ -> Some v
    | [] -> None
  in
  let props_of uid (v : E.t) =
    let versions = entity_versions uid in
    let period =
      match existence_period versions with
      | Some p -> p
      | None -> v.period
    in
    Strmap.add "sys_period" (Nepal_relational.Ivalue.of_interval period) v.fields
  in
  List.iter
    (fun uid ->
      match latest uid with
      | Some v when E.is_node v ->
          ignore
            (G.Pgraph.add_vertex t.graph ~id:uid
               ~label:(Schema.inheritance_label sch v.E.cls)
               (props_of uid v));
          Hashtbl.replace t.versions uid (entity_versions uid)
      | _ -> ())
    uids;
  List.iter
    (fun uid ->
      match latest uid with
      | Some v when E.is_edge v ->
          ignore
            (G.Pgraph.add_edge t.graph ~id:uid
               ~label:(Schema.inheritance_label sch v.E.cls)
               ~src:(E.src v) ~dst:(E.dst v) (props_of uid v));
          Hashtbl.replace t.versions uid (entity_versions uid)
      | _ -> ())
    uids;
  Ok ()

(* -- element decoding ----------------------------------------------- *)

(* The concrete class is the last label segment. *)
let class_of_label label =
  match List.rev (String.split_on_char ':' label) with
  | cls :: _ -> cls
  | [] -> label

(* Fields visible under a constraint: the version current at the
   instant (At), the latest overlapping version (Range), or the final
   version (Snapshot — the graph holds the latest fields). *)
let fields_under t tc uid (latest_props : Value.t Strmap.t) =
  let from_versions pick =
    match Hashtbl.find_opt t.versions uid with
    | None | Some [] -> Some (Strmap.remove "sys_period" latest_props)
    | Some versions -> Option.map (fun v -> v.fields) (pick versions)
  in
  match tc with
  | Time_constraint.Snapshot -> Some (Strmap.remove "sys_period" latest_props)
  | Time_constraint.At p ->
      from_versions (fun versions ->
          List.find_opt (fun v -> Interval.contains v.period p) versions)
  | Time_constraint.Range _ ->
      (* The last admitted version: the list is oldest first. *)
      from_versions (fun versions ->
          List.fold_left
            (fun latest v ->
              if Time_constraint.admits tc v.period then Some v else latest)
            None versions)

(* Under Range, the stored versions of every element [uid_of] names in
   [xs] that overlap the window and satisfy [keep] (the stored list
   itself when all do); otherwise none. *)
let versions_of ?(keep = fun _ -> true) t tc uid_of xs =
  match tc with
  | Time_constraint.Range _ ->
      List.map
        (fun x ->
          let uid = uid_of x in
          let versions = Option.value ~default:[] (Hashtbl.find_opt t.versions uid) in
          let ok v = Time_constraint.admits tc v.period && keep v.fields in
          (uid, if List.for_all ok versions then versions else List.filter ok versions))
        xs
  | Time_constraint.Snapshot | Time_constraint.At _ -> no_versions

let uid_of (e : Path.element) = e.Path.uid

let element_of t tc (e : G.Pgraph.element) =
  match fields_under t tc e.G.Pgraph.id e.G.Pgraph.props with
  | None -> None
  | Some fields ->
      let fields =
        match e.G.Pgraph.endpoints with
        | Some (s, d) ->
            fields
            |> Strmap.add "source_id_" (Value.Int s)
            |> Strmap.add "target_id_" (Value.Int d)
        | None -> fields
      in
      Some
        {
          Path.uid = e.G.Pgraph.id;
          cls = class_of_label e.G.Pgraph.label;
          fields;
          is_node = G.Pgraph.is_vertex e;
        }

let temporal_step tc =
  match tc with
  | Time_constraint.Snapshot -> [ G.Traversal.Has_period_current ]
  | Time_constraint.At p -> [ G.Traversal.Has_period_at p ]
  | Time_constraint.Range (a, b) -> [ G.Traversal.Has_period_overlaps (a, b) ]

(* Simple equality predicates push down as has() steps (against latest
   fields); the rest is rechecked below, version-aware. *)
let pushdown_has (p : Predicate.t) =
  List.filter_map
    (fun (f, v) ->
      match v with
      | Value.Null -> None
      | v -> Some (G.Traversal.Has (f, G.Traversal.Eq, v)))
    (Predicate.equality_lookups p)

(* Evaluate the atom's predicate against the version(s) visible under
   the constraint, from the side version store. *)
let version_aware_pred t tc uid (a : Rpe.atom) =
  let versions =
    match Hashtbl.find_opt t.versions uid with Some v -> v | None -> []
  in
  match tc with
  | Time_constraint.Snapshot -> (
      match List.find_opt (fun v -> Interval.is_current v.period) versions with
      | Some v -> Predicate.eval a.Rpe.pred v.fields
      | None -> false)
  | Time_constraint.At p -> (
      match List.find_opt (fun v -> Interval.contains v.period p) versions with
      | Some v -> Predicate.eval a.Rpe.pred v.fields
      | None -> false)
  | Time_constraint.Range (w0, w1) ->
      List.exists
        (fun v ->
          Interval.overlaps v.period (Interval.between w0 w1)
          && Predicate.eval a.Rpe.pred v.fields)
        versions

(* The Select operator's traversal — shared by execution and EXPLAIN so
   the rendered Gremlin is exactly what runs. *)
let select_steps t ~tc (a : Rpe.atom) =
  let prefix = Schema.inheritance_label t.schema a.Rpe.cls in
  let is_node = Schema.kind_of t.schema a.Rpe.cls = Some Schema.Node_kind in
  (* has() steps test the element's latest property values, so they are
     only a safe pushdown for snapshot queries; under At/Range an older
     version may satisfy the predicate even when the latest does not,
     and the version-aware recheck below has the final word. *)
  let pushdown =
    match tc with
    | Time_constraint.Snapshot -> pushdown_has a.Rpe.pred
    | Time_constraint.At _ | Time_constraint.Range _ -> []
  in
  (if is_node then [ G.Traversal.V ] else [ G.Traversal.E ])
  @ [ G.Traversal.Has_label prefix ]
  @ temporal_step tc
  @ pushdown

let select_atom t ~tc (a : Rpe.atom) =
  let steps = select_steps t ~tc a in
  log_traversal t steps;
  let traversers = G.Traversal.run t.graph steps in
  let elems =
    G.Traversal.results t.graph traversers
    |> List.filter (fun (e : G.Pgraph.element) -> version_aware_pred t tc e.id a)
    |> List.filter_map (element_of t tc)
  in
  (elems, versions_of ~keep:(Predicate.eval a.Rpe.pred) t tc uid_of elems)

let estimate_atom t (a : Rpe.atom) =
  let prefix = Schema.inheritance_label t.schema a.Rpe.cls in
  let count =
    match Schema.kind_of t.schema a.Rpe.cls with
    | Some Schema.Node_kind -> G.Pgraph.label_prefix_count t.graph ~vertices:true prefix
    | Some Schema.Edge_kind -> G.Pgraph.label_prefix_count t.graph ~vertices:false prefix
    | None -> 0
  in
  let count =
    if count > 0 then float_of_int count
    else
      match Schema.cardinality_hint t.schema a.Rpe.cls with
      | Some h -> float_of_int h
      | None -> 100_000.
  in
  (* Pgraph has no property index: an equality predicate still scans
     the whole label extent and tests each element, so its cost is
     scan-bound, not probe-bound (E9: 2.8 ms per Select here vs
     0.108 ms for the relational backend's distinct-values probe).
     Divide by 10, not 100 — selective predicates shrink the *result*,
     but the estimate must stay an order of magnitude above the
     relational/native indexed estimates for the same atom. *)
  match Predicate.equality_lookups a.Rpe.pred with
  | _ :: _ -> Float.max 1. (count /. 10.)
  | [] -> count

let with_versions t tc e =
  Option.map (fun el -> (el, versions_of t tc uid_of [ el ])) (element_of t tc e)

let element_by_uid t ~tc uid =
  match G.Pgraph.element t.graph uid with
  | None -> None
  | Some e -> (
      (* Existence check under the constraint via the stored period. *)
      match Strmap.find_opt "sys_period" e.G.Pgraph.props with
      | Some pv -> (
          match Nepal_relational.Ivalue.to_interval pv with
          | Some iv when Time_constraint.admits tc iv -> with_versions t tc e
          | _ -> None)
      | None -> with_versions t tc e)

(* One traversal per Extend round, fed with the whole frontier — the
   paper's channel batching ("keeping the data in the Gremlin database
   for multiple operators"). Results map back to partial paths through
   the traverser's recorded start position. *)
let extend_edge_prefixes sch (spec : extend_spec) =
  if spec.with_skip then [ "Edge" ]
  else
    List.filter_map
      (fun (a : Rpe.atom) ->
        match Rpe.atom_kind sch a with
        | Some Schema.Edge_kind -> Some (Schema.inheritance_label sch a.Rpe.cls)
        | _ -> None)
      spec.atoms
    |> List.sort_uniq String.compare

let bulk_extend t ~tc ~dir ~spec items =
  let sch = t.schema in
  let edge_prefixes = extend_edge_prefixes sch spec in
  let node_items = List.filter (fun i -> i.frontier.Path.is_node) items in
  let edge_items = List.filter (fun i -> not i.frontier.Path.is_node) items in
  let group is =
    let tbl = Hashtbl.create 64 in
    List.iter (fun i -> Hashtbl.add tbl i.frontier.Path.uid i) is;
    tbl
  in
  let distribute by_uid traversers =
    (* Nested union branches can deliver the same element twice (one
       concept prefix may generalize another); keep one extension per
       (partial, element). *)
    let seen = Hashtbl.create 64 in
    List.concat_map
      (fun (tr : G.Traversal.traverser) ->
        match (tr.path, G.Pgraph.element t.graph tr.here) with
        | start :: _, Some e ->
            Hashtbl.find_all by_uid start
            |> List.filter_map (fun { item_id; prefix; _ } ->
                   if
                     Path.mem_uid e.G.Pgraph.id prefix
                     || Hashtbl.mem seen (item_id, e.G.Pgraph.id)
                   then None
                   else begin
                     Hashtbl.replace seen (item_id, e.G.Pgraph.id) ();
                     Option.map (fun el -> (item_id, el)) (element_of t tc e)
                   end)
        | _ -> [])
      traversers
  in
  let from_nodes =
    if node_items = [] || edge_prefixes = [] then []
    else begin
      let by_uid = group node_items in
      let uids =
        List.sort_uniq Int.compare
          (List.map (fun i -> i.frontier.Path.uid) node_items)
      in
      let branches = List.map (fun p -> [ G.Traversal.Has_label p ]) edge_prefixes in
      let steps =
        [
          G.Traversal.V_ids uids;
          (match dir with Fwd -> G.Traversal.Out_e | Bwd -> G.Traversal.In_e);
          G.Traversal.Union branches;
        ]
        @ temporal_step tc
      in
      log_traversal t steps;
      distribute by_uid (G.Traversal.run t.graph steps)
    end
  in
  let from_edges =
    if edge_items = [] then []
    else begin
      let by_uid = group edge_items in
      let uids =
        List.sort_uniq Int.compare
          (List.map (fun i -> i.frontier.Path.uid) edge_items)
      in
      let steps =
        [
          G.Traversal.E_ids uids;
          (match dir with Fwd -> G.Traversal.In_v | Bwd -> G.Traversal.Out_v);
        ]
        @ temporal_step tc
      in
      log_traversal t steps;
      distribute by_uid (G.Traversal.run t.graph steps)
    end
  in
  let extensions = from_nodes @ from_edges in
  (extensions, versions_of t tc (fun (_, e) -> uid_of e) extensions)

let describe_select t ~tc (a : Rpe.atom) =
  G.Traversal.to_gremlin (select_steps t ~tc a)

let describe_extend t ~tc ~dir ~spec =
  let hop =
    match dir with Fwd -> G.Traversal.Out_e | Bwd -> G.Traversal.In_e
  in
  match extend_edge_prefixes t.schema spec with
  | [] ->
      (* Node extension impossible; only the edge-frontier endpoint hop. *)
      let v_hop =
        match dir with Fwd -> G.Traversal.In_v | Bwd -> G.Traversal.Out_v
      in
      let text = G.Traversal.to_gremlin ((G.Traversal.E_ids [] :: [ v_hop ]) @ temporal_step tc) in
      "g.E(<frontier>)" ^ String.sub text 5 (String.length text - 5)
  | prefixes ->
      let branches = List.map (fun p -> [ G.Traversal.Has_label p ]) prefixes in
      let steps =
        (G.Traversal.V_ids [] :: [ hop; G.Traversal.Union branches ])
        @ temporal_step tc
      in
      (* Substitute the frontier placeholder into the V() source step. *)
      let text = G.Traversal.to_gremlin steps in
      "g.V(<frontier>)" ^ String.sub text 5 (String.length text - 5)

let version_boundaries t ~uid ~window:(w0, w1) =
  let versions =
    match Hashtbl.find_opt t.versions uid with Some v -> v | None -> []
  in
  let in_window p = Time_point.compare w0 p <= 0 && Time_point.compare p w1 < 0 in
  List.concat_map
    (fun v ->
      (if in_window v.period.Interval.start then [ v.period.Interval.start ] else [])
      @ (match v.period.Interval.stop with
        | Some e when in_window e -> [ e ]
        | _ -> []))
    versions
  |> List.sort_uniq Time_point.compare
