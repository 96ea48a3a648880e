module Strmap = Nepal_util.Strmap

type kind = Node_kind | Edge_kind

type class_decl = {
  name : string;
  parent : string;
  fields : (string * Ftype.t) list;
  abstract : bool;
  cardinality_hint : int option;
}

let class_decl ?(fields = []) ?(abstract = false) ?cardinality_hint ~parent name
    =
  { name; parent; fields; abstract; cardinality_hint }

type data_decl = {
  dname : string;
  dparent : string option;
  dfields : (string * Ftype.t) list;
}

let data_decl ?parent ~fields dname = { dname; dparent = parent; dfields = fields }

type edge_rule = { edge : string; src : string; dst : string }

type t = {
  classes : class_decl Strmap.t;
  data_types : data_decl Strmap.t;
  rules : edge_rule list;
  (* Caches computed at creation. *)
  ancestors_cache : string list Strmap.t;  (* root-first, includes self *)
  children : string list Strmap.t;
  all_fields : (string * Ftype.t) list Strmap.t;
  data_fields : (string * Ftype.t) list Strmap.t;
}

let root_any = "Any"
let root_node = "Node"
let root_edge = "Edge"

let builtin_classes =
  [
    { name = root_node; parent = root_any; fields = []; abstract = false;
      cardinality_hint = None };
    { name = root_edge; parent = root_any; fields = []; abstract = false;
      cardinality_hint = None };
  ]

let ( let* ) = Result.bind

let rec check_no_dup_names seen = function
  | [] -> Ok ()
  | n :: rest ->
      if Nepal_util.Strset.mem n seen then
        Error (Printf.sprintf "duplicate declaration of %S" n)
      else check_no_dup_names (Nepal_util.Strset.add n seen) rest

(* Topologically walk the class forest from the roots; detects orphan
   parents and cycles at once because unreachable classes remain. *)
let compute_ancestors classes =
  let tbl = Hashtbl.create 64 in
  Hashtbl.replace tbl root_any [ root_any ];
  let progress = ref true in
  while !progress do
    progress := false;
    Strmap.iter
      (fun name (c : class_decl) ->
        if not (Hashtbl.mem tbl name) then
          match Hashtbl.find_opt tbl c.parent with
          | Some path ->
              Hashtbl.replace tbl name (path @ [ name ]);
              progress := true
          | None -> ())
      classes
  done;
  let missing =
    Strmap.fold
      (fun name _ acc -> if Hashtbl.mem tbl name then acc else name :: acc)
      classes []
  in
  match missing with
  | [] ->
      Ok
        (Strmap.of_list
           (List.of_seq
              (Seq.map (fun (k, v) -> (k, v)) (Hashtbl.to_seq tbl))))
  | ns ->
      Error
        (Printf.sprintf "classes with missing or cyclic parents: %s"
           (String.concat ", " (List.sort String.compare ns)))

let compute_fields classes ancestors_cache =
  let result = ref Strmap.empty in
  let errors = ref [] in
  Strmap.iter
    (fun name path ->
      if name <> root_any then begin
        let seen = Hashtbl.create 8 in
        let fields = ref [] in
        List.iter
          (fun cls ->
            if cls <> root_any then
              let decl = Strmap.find cls classes in
              List.iter
                (fun (fname, ft) ->
                  if Hashtbl.mem seen fname then
                    errors :=
                      Printf.sprintf "class %S redefines inherited field %S"
                        cls fname
                      :: !errors
                  else begin
                    Hashtbl.replace seen fname ();
                    fields := (fname, ft) :: !fields
                  end)
                decl.fields)
          path;
        result := Strmap.add name (List.rev !fields) !result
      end)
    ancestors_cache;
  match !errors with
  | [] -> Ok !result
  | e :: _ -> Error e

let compute_data_fields (data_types : data_decl Strmap.t) =
  (* Resolve inheritance among data types; detect cycles. *)
  let tbl = Hashtbl.create 16 in
  let rec resolve stack dname =
    match Hashtbl.find_opt tbl dname with
    | Some fields -> Ok fields
    | None ->
        if List.mem dname stack then
          Error (Printf.sprintf "data type inheritance cycle at %S" dname)
        else
          match Strmap.find_opt dname data_types with
          | None -> Error (Printf.sprintf "unknown data type %S" dname)
          | Some d ->
              let* inherited =
                match d.dparent with
                | None -> Ok []
                | Some p -> resolve (dname :: stack) p
              in
              let fields = inherited @ d.dfields in
              Hashtbl.replace tbl dname fields;
              Ok fields
  in
  let rec loop = function
    | [] -> Ok ()
    | (dname, _) :: rest -> (
        match resolve [] dname with Ok _ -> loop rest | Error e -> Error e)
  in
  let* () = loop (Strmap.bindings data_types) in
  Ok
    (Strmap.of_list
       (List.of_seq (Hashtbl.to_seq tbl)))

(* The composition DAG over data types must be acyclic: a data type may
   not (transitively) contain a field of its own type. *)
let check_composition_acyclic data_fields =
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let rec visit dname =
    if Hashtbl.mem done_ dname then Ok ()
    else if Hashtbl.mem visiting dname then
      Error (Printf.sprintf "data type composition cycle through %S" dname)
    else begin
      Hashtbl.replace visiting dname ();
      let fields = Strmap.find_opt_or dname ~default:[] data_fields in
      let refs = List.concat_map (fun (_, ft) -> Ftype.data_refs ft) fields in
      let rec each = function
        | [] -> Ok ()
        | r :: rest ->
            if not (Strmap.mem r data_fields) then
              Error (Printf.sprintf "data type %S references unknown type %S" dname r)
            else
              let* () = visit r in
              each rest
      in
      let* () = each refs in
      Hashtbl.remove visiting dname;
      Hashtbl.replace done_ dname ();
      Ok ()
    end
  in
  let rec loop = function
    | [] -> Ok ()
    | (dname, _) :: rest ->
        let* () = visit dname in
        loop rest
  in
  loop (Strmap.bindings data_fields)

let check_field_types classes data_fields =
  let check_one owner (fname, ft) =
    let rec each = function
      | [] -> Ok ()
      | r :: rest ->
          if Strmap.mem r data_fields then each rest
          else
            Error
              (Printf.sprintf "%s.%s references unknown data type %S" owner
                 fname r)
    in
    each (Ftype.data_refs ft)
  in
  Strmap.fold
    (fun name (c : class_decl) acc ->
      let* () = acc in
      let rec each = function
        | [] -> Ok ()
        | f :: rest ->
            let* () = check_one name f in
            each rest
      in
      each c.fields)
    classes (Ok ())

let create ?(data_types = []) ?(edge_rules = []) decls =
  let decls = builtin_classes @ decls in
  let* () =
    check_no_dup_names Nepal_util.Strset.empty
      (List.map (fun c -> c.name) decls @ List.map (fun d -> d.dname) data_types)
  in
  let* () =
    if List.exists (fun c -> c.name = root_any) decls then
      Error "class name \"Any\" is reserved"
    else Ok ()
  in
  let classes = Strmap.of_list (List.map (fun c -> (c.name, c)) decls) in
  let data_types_m =
    Strmap.of_list (List.map (fun d -> (d.dname, d)) data_types)
  in
  let* ancestors_cache = compute_ancestors classes in
  let* all_fields = compute_fields classes ancestors_cache in
  let* data_fields = compute_data_fields data_types_m in
  let* () = check_composition_acyclic data_fields in
  let* () = check_field_types classes data_fields in
  let children =
    Strmap.fold
      (fun name (c : class_decl) acc ->
        let existing = Strmap.find_opt_or c.parent ~default:[] acc in
        Strmap.add c.parent (name :: existing) acc)
      classes Strmap.empty
    |> Strmap.map (List.sort String.compare)
  in
  let kind_of_name name =
    match Strmap.find_opt name ancestors_cache with
    | Some (_ :: k :: _) when k = root_node -> Some Node_kind
    | Some (_ :: k :: _) when k = root_edge -> Some Edge_kind
    | Some [ _ ] when name = root_node -> Some Node_kind
    | _ when name = root_node -> Some Node_kind
    | _ when name = root_edge -> Some Edge_kind
    | _ -> None
  in
  let* () =
    let bad_rule r =
      match (kind_of_name r.edge, kind_of_name r.src, kind_of_name r.dst) with
      | Some Edge_kind, Some Node_kind, Some Node_kind -> None
      | _ ->
          Some
            (Printf.sprintf
               "edge rule (%s: %s -> %s) must name an edge class and two node classes"
               r.edge r.src r.dst)
    in
    match List.filter_map bad_rule edge_rules with
    | [] -> Ok ()
    | e :: _ -> Error e
  in
  Ok
    {
      classes;
      data_types = data_types_m;
      rules = edge_rules;
      ancestors_cache;
      children;
      all_fields;
      data_fields;
    }

let create_exn ?data_types ?edge_rules decls =
  match create ?data_types ?edge_rules decls with
  | Ok t -> t
  | Error e -> invalid_arg ("Schema.create_exn: " ^ e)

let mem_class t name = Strmap.mem name t.classes || name = root_any

let ancestors t name =
  match Strmap.find_opt name t.ancestors_cache with
  | Some p -> p
  | None -> if name = root_any then [ root_any ] else raise Not_found

(* [kind_of] and [is_subclass] run per candidate in Extend and per
   element in the evaluator, so they look up with [find], which
   allocates no option. *)
let kind_of t name =
  match Strmap.find name t.ancestors_cache with
  | _ :: k :: _ -> if k = root_node then Some Node_kind else Some Edge_kind
  | _ -> None
  | exception Not_found -> None

let is_abstract t name =
  match Strmap.find_opt name t.classes with
  | Some c -> c.abstract
  | None -> name = root_any

let parent_of t name =
  match Strmap.find_opt name t.classes with
  | Some c -> Some c.parent
  | None -> None

let inheritance_label t name =
  match ancestors t name with
  | _any :: rest -> String.concat ":" rest
  | [] -> assert false

let is_subclass t ~sub ~sup =
  sup = root_any
  ||
  match Strmap.find sub t.ancestors_cache with
  | path -> List.mem sup path
  | exception Not_found -> false

let subclasses t name =
  let rec collect n =
    n :: List.concat_map collect (Strmap.find_opt_or n ~default:[] t.children)
  in
  if mem_class t name then collect name else []

let concrete_subclasses t name =
  List.filter (fun c -> not (is_abstract t c)) (subclasses t name)

let least_common_ancestor t = function
  | [] -> None
  | first :: rest ->
      let rec common p1 p2 acc =
        match (p1, p2) with
        | a :: p1', b :: p2' when String.equal a b -> common p1' p2' (a :: acc)
        | _ -> acc
      in
      let path name =
        match Strmap.find_opt name t.ancestors_cache with
        | Some p -> Some p
        | None -> if name = root_any then Some [ root_any ] else None
      in
      let fold acc name =
        match (acc, path name) with
        | Some acc_path, Some p -> (
            match common acc_path p [] with
            | [] -> None
            | l -> Some (List.rev l))
        | _ -> None
      in
      List.fold_left fold (path first) rest
      |> Option.map (fun p -> List.nth p (List.length p - 1))

let all_classes t = List.map fst (Strmap.bindings t.classes)

let classes_of_kind t k =
  List.filter (fun c -> kind_of t c = Some k) (all_classes t)

let node_classes t = classes_of_kind t Node_kind
let edge_classes t = classes_of_kind t Edge_kind

let fields_of t name =
  match Strmap.find_opt name t.all_fields with
  | Some f -> f
  | None -> if name = root_any then [] else raise Not_found

let field_type t cls field =
  match Strmap.find_opt cls t.all_fields with
  | None -> None
  | Some fields -> List.assoc_opt field fields

let cardinality_hint t name =
  match Strmap.find_opt name t.ancestors_cache with
  | None -> None
  | Some path ->
      List.fold_left
        (fun acc cls ->
          match Strmap.find_opt cls t.classes with
          | Some { cardinality_hint = Some h; _ } -> Some h
          | _ -> acc)
        None path

let data_type_fields t name = Strmap.find_opt name t.data_fields

let data_type_names t = List.map fst (Strmap.bindings t.data_types)

let edge_rules t = t.rules

let edge_allowed t ~edge ~src ~dst =
  let relevant =
    List.filter (fun r -> is_subclass t ~sub:edge ~sup:r.edge) t.rules
  in
  match relevant with
  | [] -> true
  | rules ->
      List.exists
        (fun r ->
          is_subclass t ~sub:src ~sup:r.src && is_subclass t ~sub:dst ~sup:r.dst)
        rules

let rec typecheck_value t (ft : Ftype.t) (v : Value.t) =
  match (ft, v) with
  | _, Value.Null -> Ok ()
  | Ftype.T_int, Value.Int _ -> Ok ()
  | Ftype.T_float, (Value.Float _ | Value.Int _) -> Ok ()
  | Ftype.T_bool, Value.Bool _ -> Ok ()
  | Ftype.T_string, Value.Str _ -> Ok ()
  | Ftype.T_ip, Value.Ip _ -> Ok ()
  | Ftype.T_time, Value.Time _ -> Ok ()
  | Ftype.T_list elt, Value.List items | Ftype.T_set elt, Value.Vset items ->
      let rec each = function
        | [] -> Ok ()
        | x :: rest ->
            let* () = typecheck_value t elt x in
            each rest
      in
      each items
  | Ftype.T_map (kt, vt), Value.Vmap pairs ->
      let rec each = function
        | [] -> Ok ()
        | (k, v) :: rest ->
            let* () = typecheck_value t kt k in
            let* () = typecheck_value t vt v in
            each rest
      in
      each pairs
  | Ftype.T_data dname, Value.Data (vname, fields) -> (
      if dname <> vname then
        Error
          (Printf.sprintf "expected data type %S, got %S" dname vname)
      else
        match data_type_fields t dname with
        | None -> Error (Printf.sprintf "unknown data type %S" dname)
        | Some decl_fields ->
            let declared = List.map fst decl_fields in
            let unknown =
              Strmap.keys fields
              |> List.filter (fun k -> not (List.mem k declared))
            in
            if unknown <> [] then
              Error
                (Printf.sprintf "data type %S has no field %S" dname
                   (List.hd unknown))
            else
              let rec each = function
                | [] -> Ok ()
                | (fname, ft') :: rest ->
                    let v' =
                      Strmap.find_opt_or fname ~default:Value.Null fields
                    in
                    let* () = typecheck_value t ft' v' in
                    each rest
              in
              each decl_fields)
  | _, _ ->
      Error
        (Printf.sprintf "value %s does not have type %s" (Value.to_string v)
           (Ftype.to_string ft))

let typecheck_record t cls record =
  match Strmap.find_opt cls t.all_fields with
  | None -> Error (Printf.sprintf "unknown class %S" cls)
  | Some decl_fields ->
      if is_abstract t cls then
        Error (Printf.sprintf "class %S is abstract" cls)
      else
        let declared = List.map fst decl_fields in
        let unknown =
          Strmap.keys record |> List.filter (fun k -> not (List.mem k declared))
        in
        if unknown <> [] then
          Error (Printf.sprintf "class %S has no field %S" cls (List.hd unknown))
        else
          let rec each acc = function
            | [] -> Ok acc
            | (fname, ft) :: rest ->
                let v = Strmap.find_opt_or fname ~default:Value.Null record in
                let* () =
                  Result.map_error
                    (fun e -> Printf.sprintf "%s.%s: %s" cls fname e)
                    (typecheck_value t ft v)
                in
                each (Strmap.add fname v acc) rest
          in
          each Strmap.empty decl_fields

let pp ppf t =
  let pp_class name =
    let c = Strmap.find name t.classes in
    Format.fprintf ppf "  %s%s <: %s%s@."
      (if c.abstract then "abstract " else "")
      name c.parent
      (if c.fields = [] then ""
       else
         " { "
         ^ String.concat "; "
             (List.map
                (fun (f, ft) -> f ^ ": " ^ Ftype.to_string ft)
                c.fields)
         ^ " }")
  in
  Format.fprintf ppf "schema:@.";
  List.iter pp_class (all_classes t);
  List.iter
    (fun r -> Format.fprintf ppf "  rule: %s: %s -> %s@." r.edge r.src r.dst)
    t.rules
