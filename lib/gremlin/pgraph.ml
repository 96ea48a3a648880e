module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap

type element = {
  id : int;
  label : string;
  props : Value.t Strmap.t;
  endpoints : (int * int) option;
}

let rec same_chars a b i n = i = n || (a.[i] = b.[i] && same_chars a b (i + 1) n)

(* Hash of a label's first segment (up to the first ':'), computed in
   place. *)
let rec segment_hash label i h =
  if i = String.length label || label.[i] = ':' then h land max_int
  else segment_hash label (i + 1) ((h * 31) + Char.code label.[i])

(* One label's elements, with per-kind counts kept at mutation time. *)
type group = {
  g_label : string;
  mutable g_ids : int list;
  mutable g_vertices : int;
  mutable g_edges : int;
}

type t = {
  mutable next_id : int;
  elements : (int, element) Hashtbl.t;
  adj_out : (int, int list) Hashtbl.t;
  adj_in : (int, int list) Hashtbl.t;
  (* Label index: first segment -> one group per label, so a prefix scan
     or count visits the labels under the prefix's first segment, not
     their elements. Keyed by the segment's hash, so a lookup allocates
     nothing; a collision only adds groups that the prefix test
     rejects. *)
  by_first_segment : (int, group list) Hashtbl.t;
  mutable vertex_total : int;
  mutable edge_total : int;
}

let create () =
  {
    next_id = 1;
    elements = Hashtbl.create 4096;
    adj_out = Hashtbl.create 4096;
    adj_in = Hashtbl.create 4096;
    by_first_segment = Hashtbl.create 64;
    vertex_total = 0;
    edge_total = 0;
  }

let segment_groups t label =
  match Hashtbl.find t.by_first_segment (segment_hash label 0 0) with
  | groups -> groups
  | exception Not_found -> []

(* Add [d] (+1 or -1) to the counts of [e]'s kind, in its label group
   and in the totals. *)
let count t g e d =
  if e.endpoints = None then begin
    g.g_vertices <- g.g_vertices + d;
    t.vertex_total <- t.vertex_total + d
  end
  else begin
    g.g_edges <- g.g_edges + d;
    t.edge_total <- t.edge_total + d
  end

let register t e =
  Hashtbl.replace t.elements e.id e;
  let groups = segment_groups t e.label in
  let g =
    match List.find_opt (fun g -> String.equal g.g_label e.label) groups with
    | Some g -> g
    | None ->
        let g = { g_label = e.label; g_ids = []; g_vertices = 0; g_edges = 0 } in
        Hashtbl.replace t.by_first_segment (segment_hash e.label 0 0) (g :: groups);
        g
  in
  g.g_ids <- e.id :: g.g_ids;
  count t g e 1

let take_id t = function
  | Some id ->
      if Hashtbl.mem t.elements id then
        invalid_arg (Printf.sprintf "Pgraph: id %d already in use" id)
      else begin
        if id >= t.next_id then t.next_id <- id + 1;
        id
      end
  | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id

let add_vertex t ?id ~label props =
  let id = take_id t id in
  register t { id; label; props; endpoints = None };
  id

let add_edge t ?id ~label ~src ~dst props =
  (match (Hashtbl.find_opt t.elements src, Hashtbl.find_opt t.elements dst) with
  | Some { endpoints = None; _ }, Some { endpoints = None; _ } -> ()
  | _ -> invalid_arg "Pgraph.add_edge: endpoints must be existing vertices");
  let id = take_id t id in
  register t { id; label; props; endpoints = Some (src, dst) };
  let push tbl k v =
    let existing = match Hashtbl.find_opt tbl k with Some l -> l | None -> [] in
    Hashtbl.replace tbl k (v :: existing)
  in
  push t.adj_out src id;
  push t.adj_in dst id;
  id

let set_props t id props =
  match Hashtbl.find_opt t.elements id with
  | None -> raise Not_found
  | Some e ->
      let merged = Strmap.fold Strmap.add props e.props in
      Hashtbl.replace t.elements id { e with props = merged }

let unregister t id =
  match Hashtbl.find_opt t.elements id with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.elements id;
      let g =
        List.find (fun g -> String.equal g.g_label e.label)
          (segment_groups t e.label)
      in
      g.g_ids <- List.filter (fun x -> x <> id) g.g_ids;
      count t g e (-1);
      (match e.endpoints with
      | Some (s, d) ->
          let strip tbl k =
            match Hashtbl.find_opt tbl k with
            | Some l -> Hashtbl.replace tbl k (List.filter (fun x -> x <> id) l)
            | None -> ()
          in
          strip t.adj_out s;
          strip t.adj_in d
      | None -> ())

let rec remove t id =
  match Hashtbl.find_opt t.elements id with
  | None -> ()
  | Some { endpoints = Some _; _ } -> unregister t id
  | Some { endpoints = None; _ } ->
      let incident =
        (match Hashtbl.find_opt t.adj_out id with Some l -> l | None -> [])
        @ (match Hashtbl.find_opt t.adj_in id with Some l -> l | None -> [])
      in
      List.iter (remove t) incident;
      Hashtbl.remove t.adj_out id;
      Hashtbl.remove t.adj_in id;
      unregister t id

let element t id = Hashtbl.find_opt t.elements id
let is_vertex e = e.endpoints = None

let all_elements t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.elements []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let vertices t = List.filter is_vertex (all_elements t)
let edges t = List.filter (fun e -> not (is_vertex e)) (all_elements t)

(* Prefix on whole segments: "Node:VM" matches "Node:VM" and
   "Node:VM:X" but not "Node:VMX". *)
let label_has_prefix ~prefix label =
  let lp = String.length prefix in
  lp <= String.length label
  && same_chars prefix label 0 lp
  && (String.length label = lp || label.[lp] = ':')

let by_label_prefix t prefix ~vertices =
  List.fold_left
    (fun acc g ->
      if label_has_prefix ~prefix g.g_label then
        List.fold_left
          (fun acc id ->
            let e = Hashtbl.find t.elements id in
            if is_vertex e = vertices then e :: acc else acc)
          acc g.g_ids
      else acc)
    [] (segment_groups t prefix)
  |> List.sort (fun a b -> Int.compare a.id b.id)

let vertices_by_label_prefix t prefix = by_label_prefix t prefix ~vertices:true
let edges_by_label_prefix t prefix = by_label_prefix t prefix ~vertices:false

let rec count_matching ~prefix ~vertices n = function
  | [] -> n
  | g :: rest ->
      let n =
        if not (label_has_prefix ~prefix g.g_label) then n
        else if vertices then n + g.g_vertices
        else n + g.g_edges
      in
      count_matching ~prefix ~vertices n rest

let label_prefix_count t ~vertices prefix =
  count_matching ~prefix ~vertices 0 (segment_groups t prefix)

let incident t tbl id =
  match Hashtbl.find_opt tbl id with
  | Some ids ->
      List.filter_map (Hashtbl.find_opt t.elements) ids
      |> List.sort (fun a b -> Int.compare a.id b.id)
  | None -> []

let out_edges t id = incident t t.adj_out id
let in_edges t id = incident t t.adj_in id

let vertex_count t = t.vertex_total
let edge_count t = t.edge_total
