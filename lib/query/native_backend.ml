(** Backend executing directly against the native temporal graph store
    — the reference implementation the other targets are tested
    against. *)

module Store = Nepal_store.Graph_store
module Entity = Nepal_store.Entity
module Schema = Nepal_schema.Schema
module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Time_constraint = Nepal_temporal.Time_constraint
module Time_point = Nepal_temporal.Time_point
module Rpe = Nepal_rpe.Rpe
module Predicate = Nepal_rpe.Predicate
open Backend_intf

type t = Store.t

let name = "native"
let schema = Store.schema

(* All store read paths are pure (adjacency, extents and indexes are
   maintained eagerly at mutation time), so domains may read
   concurrently. *)
let parallel_safe = true

let element_of_entity (e : Entity.t) =
  {
    Path.uid = e.uid;
    cls = e.cls;
    fields = e.fields;
    is_node = Entity.is_node e;
  }

let atom_pred (a : Rpe.atom) fields = Predicate.eval a.Rpe.pred fields

(* The entity's versions the constraint admits that satisfy [keep]. *)
let versions_where ?(keep = fun _ -> true) t ~tc uid =
  Store.fold_versions_under t ~tc uid
    (fun acc (e : Entity.t) ->
      if keep e.fields then { period = e.period; fields = e.fields } :: acc else acc)
    []

(* Under Range, the versions of every element [uid_of] names in [xs];
   otherwise none. *)
let versions_of t ~tc uid_of xs =
  match tc with
  | Time_constraint.Range _ ->
      List.map (fun x -> (uid_of x, versions_where t ~tc (uid_of x))) xs
  | Time_constraint.Snapshot | Time_constraint.At _ -> no_versions

let select_atom t ~tc (a : Rpe.atom) =
  let candidates =
    match Predicate.equality_lookups a.Rpe.pred with
    | (field, v) :: _ when Store.has_index t ~cls:a.Rpe.cls ~field ->
        Store.lookup t ~tc ~cls:a.Rpe.cls ~field v
    | _ -> Store.scan_class t ~tc a.Rpe.cls
  in
  match tc with
  | Time_constraint.Range _ ->
      (* Predicates may have held in versions other than the one
         returned by the scan: an element qualifies by the versions
         that satisfy the atom, and those are its versions. *)
      List.fold_right
        (fun (e : Entity.t) ((elems, versions) as acc) ->
          match versions_where ~keep:(atom_pred a) t ~tc e.uid with
          | [] -> acc
          | vs -> (element_of_entity e :: elems, (e.uid, vs) :: versions))
        candidates ([], no_versions)
  | Time_constraint.Snapshot | Time_constraint.At _ ->
      ( List.filter (fun (e : Entity.t) -> atom_pred a e.fields) candidates
        |> List.map element_of_entity,
        no_versions )

let estimate_atom t (a : Rpe.atom) =
  let class_count = Store.count_current t ~cls:a.Rpe.cls in
  let class_count =
    if class_count > 0 then float_of_int class_count
    else
      (* Empty or unloaded class: fall back to schema hints. *)
      match Schema.cardinality_hint (Store.schema t) a.Rpe.cls with
      | Some h -> float_of_int h
      | None -> 100_000.
  in
  match Predicate.equality_lookups a.Rpe.pred with
  | (field, v) :: _ when Store.has_index t ~cls:a.Rpe.cls ~field ->
      float_of_int
        (List.length (Store.lookup t ~tc:Time_constraint.snapshot ~cls:a.Rpe.cls ~field v))
  | _ :: _ ->
      (* Unindexed equality: assume strong selectivity. *)
      Float.max 1. (class_count /. 100.)
  | [] -> class_count

(* Could the element begin to match one of the atoms? Exact predicate
   evaluation is left to the evaluator; here we prune by kind and
   class only. *)
let class_admissible sch (spec : extend_spec) (e : Entity.t) =
  spec.with_skip
  || List.exists
       (fun (a : Rpe.atom) ->
         (match Rpe.atom_kind sch a with
         | Some Schema.Node_kind -> Entity.is_node e
         | Some Schema.Edge_kind -> Entity.is_edge e
         | None -> false)
         && Schema.is_subclass sch ~sub:e.Entity.cls ~sup:a.Rpe.cls)
       spec.atoms

let bulk_extend t ~tc ~dir ~spec items =
  let sch = Store.schema t in
  let rev_out =
    List.fold_left
      (fun acc { item_id; frontier; prefix } ->
        let candidates =
          if frontier.Path.is_node then
            match dir with
            | Fwd -> Store.out_edges t ~tc frontier.Path.uid
            | Bwd -> Store.in_edges t ~tc frontier.Path.uid
          else
            let edge = Store.get t ~tc frontier.Path.uid in
            match edge with
            | Some e when Entity.is_edge e ->
                let next = match dir with Fwd -> Entity.dst e | Bwd -> Entity.src e in
                Option.to_list (Store.get t ~tc next)
            | _ -> []
        in
        List.fold_left
          (fun acc (e : Entity.t) ->
            if Path.mem_uid e.uid prefix || not (class_admissible sch spec e)
            then acc
            else (item_id, element_of_entity e) :: acc)
          acc candidates)
      [] items
  in
  let out = List.rev rev_out in
  (out, versions_of t ~tc (fun (_, (e : Path.element)) -> e.Path.uid) out)

let describe_select t ~tc (a : Rpe.atom) =
  let access =
    match Predicate.equality_lookups a.Rpe.pred with
    | (field, v) :: _ when Store.has_index t ~cls:a.Rpe.cls ~field ->
        Printf.sprintf "index_lookup(%s.%s = %s)" a.Rpe.cls field
          (Value.to_string v)
    | _ -> Printf.sprintf "scan_class(%s)" a.Rpe.cls
  in
  match tc with
  | Time_constraint.Range _ -> access ^ " |> presence-qualified predicate"
  | Time_constraint.Snapshot | Time_constraint.At _ ->
      access ^ " |> filter predicate"

let describe_extend _t ~tc:_ ~dir ~spec =
  let adj = match dir with Fwd -> "out_edges" | Bwd -> "in_edges" in
  let classes =
    if spec.with_skip then "*"
    else
      String.concat "|"
        (List.sort_uniq String.compare
           (List.map (fun (a : Rpe.atom) -> a.Rpe.cls) spec.atoms))
  in
  Printf.sprintf "%s(frontier) |> prune_visited |> class_admissible(%s)" adj
    classes

let element_by_uid t ~tc uid =
  Option.map
    (fun e -> (element_of_entity e, versions_of t ~tc Fun.id [ uid ]))
    (Store.get t ~tc uid)

let version_boundaries t ~uid ~window:(a, b) =
  let in_window p = Time_point.compare a p <= 0 && Time_point.compare p b < 0 in
  List.concat_map
    (fun (v : Entity.t) ->
      let starts = if in_window v.period.start then [ v.period.start ] else [] in
      let stops =
        match v.period.stop with
        | Some e when in_window e -> [ e ]
        | _ -> []
      in
      starts @ stops)
    (Store.versions t uid)
  |> List.sort_uniq Time_point.compare
