(* A reference evaluator for RPEs, linked only by tests. It shares no
   evaluation code with lib/query: no NFA, no anchors, no backends, no
   caches, no Domain pool. It reads a store's version lists, builds the
   graph visible under a time constraint as an explicit edge list, and
   enumerates simple pathways (Path.well_formed: start and end on a
   node, alternate node/edge, no element twice) with a direct recursive
   matcher over [Rpe.norm].

   The matcher implements the paper's junction rule literally: between
   two concatenated sub-RPEs, and between repetition copies, either
   nothing or exactly one unmatched element; a pathway may also start
   and end with one unmatched element (the implicit endpoints of edge
   atoms). A {0,n} block may be skipped entirely, in which case the
   junctions on either side of it both apply.

   Temporal semantics. Under Snapshot and At an element is seen in the
   single version the constraint admits, and pathways carry no
   validity. Under Range an element is seen in every version that
   overlaps the window. One run (a way of matching the pathway)
   consumes each element either by an atom, which holds over the
   versions that satisfy it, or as unmatched, which holds over all its
   versions; the run holds at the instants where all of its elements
   hold, unclipped by the window. The pathway's validity is the union
   over its runs, and it qualifies when that set overlaps the window. *)

module Store = Nepal_store.Graph_store
module Entity = Nepal_store.Entity
module Schema = Nepal_schema.Schema
module Rpe = Nepal_rpe.Rpe
module Time_constraint = Nepal_temporal.Time_constraint
module Interval = Nepal_temporal.Interval
module Interval_set = Nepal_temporal.Interval_set
module Intset = Nepal_util.Intset
module Path = Nepal_query.Path

(* An element with the versions the time constraint admits, oldest
   first (never empty). *)
type elem = { uid : int; is_node : bool; seen : Entity.t list }

type graph = {
  sch : Schema.t;
  tc : Time_constraint.t;
  elems : (int, elem) Hashtbl.t;
  nodes : elem list;  (** in uid order *)
  out : (int, elem list) Hashtbl.t;  (** node uid -> visible out-edges *)
}

let graph store ~tc =
  let elems = Hashtbl.create 64 and out = Hashtbl.create 64 in
  for uid = Store.count_entities store downto 1 do
    let seen =
      List.filter
        (fun (v : Entity.t) -> Time_constraint.restrict tc v.period <> None)
        (Store.versions store uid)
    in
    match seen with
    | [] -> ()
    | v :: _ -> Hashtbl.replace elems uid { uid; is_node = Entity.is_node v; seen }
  done;
  Hashtbl.iter
    (fun _ e ->
      match e.seen with
      | v :: _ when not e.is_node ->
          let src = Entity.src v in
          if Hashtbl.mem elems src then
            Hashtbl.replace out src
              (e :: Option.value ~default:[] (Hashtbl.find_opt out src))
      | _ -> ())
    elems;
  let nodes =
    Hashtbl.fold (fun _ e acc -> if e.is_node then e :: acc else acc) elems []
    |> List.sort (fun a b -> Int.compare a.uid b.uid)
  in
  { sch = Store.schema store; tc; elems; nodes; out }

let range g = match g.tc with Time_constraint.Range _ -> true | _ -> false

(* The instants at which the versions satisfying [ok] hold; [None] when
   none does. Outside Range the validity is not tracked, so a match is
   [Some Interval_set.empty]. *)
let holds g e ok =
  match List.filter ok e.seen with
  | [] -> None
  | vs when range g ->
      Some
        (Interval_set.of_list (List.map (fun (v : Entity.t) -> v.period) vs))
  | _ -> Some Interval_set.empty

let atom_holds g (a : Rpe.atom) e =
  let kind_ok =
    match Rpe.atom_kind g.sch a with
    | Some Schema.Node_kind -> e.is_node
    | Some Schema.Edge_kind -> not e.is_node
    | None -> false
  in
  if not kind_ok then None
  else
    holds g e (fun (v : Entity.t) ->
        Rpe.atom_matches g.sch a ~cls:v.cls ~fields:v.fields)

let exists_holds g e = holds g e (fun _ -> true)

(* A partial run: the elements so far (last first), their uids, and the
   instants at which all of them hold ([None] before the first). *)
type run = { rev : elem list; visited : Intset.t; valid : Interval_set.t option }

let empty_run = { rev = []; visited = Intset.empty; valid = None }

(* The elements that may extend a run: any node to start, then along
   edge direction (node -> out-edge -> its target), never revisiting. *)
let next g ~cap r =
  if List.length r.rev >= cap then []
  else
    let cands =
      match r.rev with
      | [] -> g.nodes
      | e :: _ when e.is_node ->
          Option.value ~default:[] (Hashtbl.find_opt g.out e.uid)
      | e :: _ -> (
          match Hashtbl.find_opt g.elems (Entity.dst (List.hd e.seen)) with
          | Some n -> [ n ]
          | None -> [])
    in
    List.filter (fun e -> not (Intset.mem e.uid r.visited)) cands

let consume r e set =
  {
    rev = e :: r.rev;
    visited = Intset.add e.uid r.visited;
    valid =
      (match r.valid with None -> Some set | Some v -> Some (Interval_set.inter v set));
  }

(* [m g ~cap r run k] calls [k] with every extension of [run] by a
   sequence of elements that [r] matches. *)
let rec m g ~cap (r : Rpe.norm) run k =
  match r with
  | Rpe.N_atom a ->
      List.iter
        (fun e -> Option.iter (fun s -> k (consume run e s)) (atom_holds g a e))
        (next g ~cap run)
  | Rpe.N_alt rs -> List.iter (fun r -> m g ~cap r run k) rs
  | Rpe.N_seq rs -> seq g ~cap rs run k
  | Rpe.N_rep (r, i, j) ->
      if i = 0 then k run;
      let rec copy c run =
        m g ~cap r run (fun run ->
            if c >= max i 1 then k run;
            if c < j then junction g ~cap run (copy (c + 1)))
      in
      if j >= 1 then copy 1 run

and seq g ~cap rs run k =
  match rs with
  | [] -> k run
  | [ r ] -> m g ~cap r run k
  | r :: rest ->
      m g ~cap r run (fun run ->
          junction g ~cap run (fun run -> seq g ~cap rest run k))

(* Nothing, or exactly one unmatched element. *)
and junction g ~cap run k =
  k run;
  List.iter
    (fun e -> Option.iter (fun s -> k (consume run e s)) (exists_holds g e))
    (next g ~cap run)

(* The pathways [norm] matches under [tc], sorted by uid sequence, each
   with its validity under Range. [max_length] caps the element count
   as the engine does (default: the RPE's own maximum, at most 64). *)
let find store ~tc ?max_length norm =
  let g = graph store ~tc in
  let cap =
    match max_length with
    | Some n -> min n 64
    | None -> min (Rpe.max_length norm) 64
  in
  let found : (int list, Interval_set.t option) Hashtbl.t = Hashtbl.create 64 in
  let window =
    match tc with
    | Time_constraint.Range (w0, w1) ->
        Some (Interval_set.singleton (Interval.between w0 w1))
    | _ -> None
  in
  junction g ~cap empty_run (fun run ->
      m g ~cap norm run (fun run ->
          junction g ~cap run (fun run ->
              match run.rev with
              | last :: _ when last.is_node ->
                  let key = List.rev_map (fun e -> e.uid) run.rev in
                  let valid = if window = None then None else run.valid in
                  let prev = Hashtbl.find_opt found key in
                  Hashtbl.replace found key
                    (match (prev, valid) with
                    | Some (Some a), Some b -> Some (Interval_set.union a b)
                    | _ -> valid)
              | _ -> ())));
  Hashtbl.fold
    (fun key valid acc ->
      match (window, valid) with
      | Some w, Some v when not (Interval_set.overlaps v w) -> acc
      | _ -> (key, valid) :: acc)
    found []
  |> List.sort compare

(* Canonical comparable form of a pathway list: uid sequences with the
   validity rendered, sorted. *)
let render_valid = function
  | None -> ""
  | Some s ->
      let b = Buffer.create 32 in
      Interval_set.add_to_buffer b s;
      Buffer.contents b

let canon l = List.sort compare (List.map (fun (k, v) -> (k, render_valid v)) l)

let of_paths paths =
  canon (List.map (fun (p : Path.t) -> (Path.key p, p.Path.valid)) paths)

let find_canon store ~tc ?max_length norm = canon (find store ~tc ?max_length norm)

(* -- driving the engine on the same question ------------------------ *)

(* A single-pathway query for [rpe] under [tc]: its rows are the
   pathways [find] returns. *)
let query_text tc rpe =
  let ts = Nepal_temporal.Time_point.to_string in
  let prefix =
    match tc with
    | Time_constraint.Snapshot -> ""
    | Time_constraint.At t -> Printf.sprintf "AT '%s' " (ts t)
    | Time_constraint.Range (a, b) -> Printf.sprintf "AT '%s' : '%s' " (ts a) (ts b)
  in
  Printf.sprintf "%sRetrieve P From PATHS P Where P MATCHES %s" prefix rpe

(* The pathways bound in a query result, in [canon] form. *)
let of_result = function
  | Nepal_engine.Engine.Rows { rows; _ } ->
      of_paths
        (List.concat_map
           (fun (r : Nepal_engine.Engine.row) ->
             List.map snd (Nepal_util.Strmap.bindings r.Nepal_engine.Engine.paths))
           rows)
  | Nepal_engine.Engine.Table _ -> invalid_arg "Reference.of_result: a table"

(* One line per pathway, for failure messages. *)
let show l =
  String.concat "\n"
    (List.map
       (fun (k, v) ->
         Printf.sprintf "  [%s] %s" (String.concat "," (List.map string_of_int k)) v)
       l)
