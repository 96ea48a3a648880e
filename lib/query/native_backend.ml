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
          | vs -> (e.elem :: elems, (e.uid, vs) :: versions))
        candidates ([], no_versions)
  | Time_constraint.Snapshot | Time_constraint.At _ ->
      ( List.filter (fun (e : Entity.t) -> atom_pred a e.fields) candidates
        |> List.map (fun (e : Entity.t) -> e.elem),
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

(* Does this version satisfy one of the atoms, kind, class and
   predicate alike? The evaluator asks the same of every element it is
   handed, so a candidate no version of which passes cannot extend any
   partial. Top-level and recursive, so checking a candidate allocates
   nothing. *)
let rec satisfies_any sch (e : Entity.t) = function
  | [] -> false
  | (a : Rpe.atom) :: rest ->
      ((match Rpe.atom_kind sch a with
       | Some Schema.Node_kind -> e.elem.is_node
       | Some Schema.Edge_kind -> not e.elem.is_node
       | None -> false)
      && Rpe.atom_matches sch a ~cls:e.cls ~fields:e.fields)
      || satisfies_any sch e rest

(* One round's candidate filter. With a junction skip anything may be
   consumed, so nothing is pruned. Under Range a candidate qualifies
   when any admitted version satisfies an atom, as in the evaluator. *)
let candidate_filter t ~tc sch (spec : extend_spec) =
  if spec.with_skip then fun _ -> true
  else
    match tc with
    | Time_constraint.Snapshot | Time_constraint.At _ ->
        fun e -> satisfies_any sch e spec.atoms
    | Time_constraint.Range _ ->
        let any found v = found || satisfies_any sch v spec.atoms in
        fun (e : Entity.t) -> Store.fold_versions_under t ~tc e.uid any false

(* The candidates are the store's own entities, read from its adjacency
   in place; only the ones handed out cost a cell. *)
let bulk_extend t ~tc ~dir ~spec items =
  let keep = candidate_filter t ~tc (Store.schema t) spec in
  let fold_adj =
    match dir with Fwd -> Store.fold_out_edges | Bwd -> Store.fold_in_edges
  in
  let rev_out =
    List.fold_left
      (fun acc { item_id; frontier; prefix } ->
        let add acc (e : Entity.t) =
          if Path.mem_uid e.uid prefix || not (keep e) then acc
          else (item_id, e.elem) :: acc
        in
        if frontier.Path.is_node then fold_adj t ~tc frontier.Path.uid add acc
        else
          match Store.find_under t ~tc frontier.Path.uid with
          | { endpoints = Some (src, dst); _ } -> (
              let next = match dir with Fwd -> dst | Bwd -> src in
              match Store.find_under t ~tc next with
              | e -> add acc e
              | exception Not_found -> acc)
          | { endpoints = None; _ } -> acc
          | exception Not_found -> acc)
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

let describe_extend _t ~tc ~dir ~spec =
  let adj = match dir with Fwd -> "out_edges" | Bwd -> "in_edges" in
  let check =
    if spec.with_skip then "keep_all(junction skip)"
    else
      let atoms =
        String.concat "|"
          (List.sort_uniq String.compare
             (List.map (fun a -> Rpe.to_string (Rpe.Atom a)) spec.atoms))
      in
      match tc with
      | Time_constraint.Range _ -> Printf.sprintf "atom_check_any_version(%s)" atoms
      | Time_constraint.Snapshot | Time_constraint.At _ ->
          Printf.sprintf "atom_check(%s)" atoms
  in
  Printf.sprintf "%s(frontier) |> prune_visited |> %s" adj check

let element_by_uid t ~tc uid =
  Option.map
    (fun (e : Entity.t) -> (e.elem, versions_of t ~tc Fun.id [ uid ]))
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
