module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Time_point = Nepal_temporal.Time_point

type comparison = Eq | Neq | Lt | Lte | Gt | Gte

type pstep =
  | V
  | E
  | V_ids of int list
  | E_ids of int list
  | Has_label of string
  | Has of string * comparison * Value.t
  | Has_period_at of Time_point.t
  | Has_period_overlaps of Time_point.t * Time_point.t
  | Has_period_current
  | Out_e
  | In_e
  | Both_e
  | Out_v
  | In_v
  | Other_v
  | Simple_path
  | Union of pstep list list
  | Repeat of pstep list * int * int
  | Dedup
  | Limit of int

type traverser = { here : int; path : int list }

let fresh id = { here = id; path = [ id ] }
let step_to t id = { here = id; path = t.path @ [ id ] }

let compare_ok op a b =
  if a = Value.Null || b = Value.Null then false
  else
    let c = Value.compare a b in
    match op with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Lte -> c <= 0
    | Gt -> c > 0
    | Gte -> c >= 0

let period_of (e : Pgraph.element) =
  match Strmap.find_opt "sys_period" e.props with
  | Some (Value.List [ Value.Time s; Value.Null ]) ->
      Some (Nepal_temporal.Interval.from s)
  | Some (Value.List [ Value.Time s; Value.Time e' ])
    when Time_point.compare s e' < 0 ->
      Some (Nepal_temporal.Interval.between s e')
  | _ -> None

let rec apply g (trs : traverser list) (step : pstep) : traverser list =
  let with_elem f =
    List.filter
      (fun t ->
        match Pgraph.element g t.here with Some e -> f t e | None -> false)
      trs
  in
  match step with
  | V -> List.map (fun (e : Pgraph.element) -> fresh e.id) (Pgraph.vertices g)
  | E -> List.map (fun (e : Pgraph.element) -> fresh e.id) (Pgraph.edges g)
  | V_ids ids | E_ids ids -> List.map fresh ids
  | Has_label prefix -> with_elem (fun _ e -> Pgraph.label_has_prefix ~prefix e.label)
  | Has (prop, op, v) ->
      with_elem (fun _ e ->
          compare_ok op (Strmap.find_opt_or prop ~default:Value.Null e.props) v)
  | Has_period_at tp ->
      with_elem (fun _ e ->
          match period_of e with
          | Some iv -> Nepal_temporal.Interval.contains iv tp
          | None -> false)
  | Has_period_overlaps (a, b) ->
      with_elem (fun _ e ->
          match period_of e with
          | Some iv ->
              Nepal_temporal.Interval.overlaps iv (Nepal_temporal.Interval.between a b)
          | None -> false)
  | Has_period_current ->
      with_elem (fun _ e ->
          match period_of e with
          | Some iv -> Nepal_temporal.Interval.is_current iv
          | None -> false)
  | Out_e ->
      List.concat_map
        (fun t ->
          List.map (fun (e : Pgraph.element) -> step_to t e.id) (Pgraph.out_edges g t.here))
        trs
  | In_e ->
      List.concat_map
        (fun t ->
          List.map (fun (e : Pgraph.element) -> step_to t e.id) (Pgraph.in_edges g t.here))
        trs
  | Both_e ->
      List.concat_map
        (fun t ->
          List.map
            (fun (e : Pgraph.element) -> step_to t e.id)
            (Pgraph.out_edges g t.here @ Pgraph.in_edges g t.here))
        trs
  | Out_v ->
      List.filter_map
        (fun t ->
          match Pgraph.element g t.here with
          | Some { endpoints = Some (s, _); _ } -> Some (step_to t s)
          | _ -> None)
        trs
  | In_v ->
      List.filter_map
        (fun t ->
          match Pgraph.element g t.here with
          | Some { endpoints = Some (_, d); _ } -> Some (step_to t d)
          | _ -> None)
        trs
  | Other_v ->
      List.filter_map
        (fun t ->
          match Pgraph.element g t.here with
          | Some { endpoints = Some (s, d); _ } -> (
              (* The endpoint we did not arrive from. *)
              match List.rev t.path with
              | _edge :: prev :: _ ->
                  if prev = s then Some (step_to t d)
                  else if prev = d then Some (step_to t s)
                  else None
              | _ -> Some (step_to t d))
          | _ -> None)
        trs
  | Simple_path ->
      List.filter
        (fun t -> List.length (List.sort_uniq Int.compare t.path) = List.length t.path)
        trs
  | Union branches ->
      List.concat_map (fun body -> List.fold_left (apply g) trs body) branches
  | Repeat (body, i, j) ->
      let rec go k current emitted =
        if k > j || current = [] then emitted
        else
          let next = List.fold_left (apply g) current body in
          let emitted = if k >= i then emitted @ next else emitted in
          go (k + 1) next emitted
      in
      let base = if i = 0 then trs else [] in
      base @ go 1 trs []
  | Dedup ->
      let seen = Hashtbl.create 64 in
      List.filter
        (fun t ->
          if Hashtbl.mem seen t.here then false
          else begin
            Hashtbl.replace seen t.here ();
            true
          end)
        trs
  | Limit n -> List.filteri (fun i _ -> i < n) trs

(* A traversal that opens with V()/E().hasLabel(p) starts from the
   label index: the same id-ordered traversers the step fold yields,
   without materializing the whole graph. *)
let run g ?(sources = []) steps =
  let fresh_all = List.map (fun (e : Pgraph.element) -> fresh e.id) in
  match steps with
  | V :: Has_label p :: rest ->
      List.fold_left (apply g) (fresh_all (Pgraph.vertices_by_label_prefix g p)) rest
  | E :: Has_label p :: rest ->
      List.fold_left (apply g) (fresh_all (Pgraph.edges_by_label_prefix g p)) rest
  | _ -> List.fold_left (apply g) sources steps

let results g trs = List.filter_map (fun t -> Pgraph.element g t.here) trs

let paths g trs =
  List.map (fun t -> List.filter_map (Pgraph.element g) t.path) trs

(* -- Gremlin text rendering ----------------------------------------- *)

let comparison_gremlin = function
  | Eq -> "eq"
  | Neq -> "neq"
  | Lt -> "lt"
  | Lte -> "lte"
  | Gt -> "gt"
  | Gte -> "gte"

let value_gremlin = function
  | Value.Str s -> Printf.sprintf "'%s'" s
  | Value.Time t -> Printf.sprintf "'%s'" (Time_point.to_string t)
  | Value.Ip ip -> Printf.sprintf "'%s'" (Value.ip_to_string ip)
  | v -> Value.to_string v

let rec step_gremlin = function
  | V -> "V()"
  | E -> "E()"
  | V_ids ids ->
      Printf.sprintf "V(%s)" (String.concat ", " (List.map string_of_int ids))
  | E_ids ids ->
      Printf.sprintf "E(%s)" (String.concat ", " (List.map string_of_int ids))
  | Has_label prefix -> Printf.sprintf "hasLabel(startingWith('%s'))" prefix
  | Has (p, Eq, v) -> Printf.sprintf "has('%s', %s)" p (value_gremlin v)
  | Has (p, op, v) ->
      Printf.sprintf "has('%s', %s(%s))" p (comparison_gremlin op) (value_gremlin v)
  | Has_period_at tp ->
      Printf.sprintf "has('sys_period', containing('%s'))" (Time_point.to_string tp)
  | Has_period_overlaps (a, b) ->
      Printf.sprintf "has('sys_period', overlapping('%s','%s'))"
        (Time_point.to_string a) (Time_point.to_string b)
  | Has_period_current -> "has('sys_period', current())"
  | Out_e -> "outE()"
  | In_e -> "inE()"
  | Both_e -> "bothE()"
  | Out_v -> "outV()"
  | In_v -> "inV()"
  | Other_v -> "otherV()"
  | Simple_path -> "simplePath()"
  | Union branches ->
      Printf.sprintf "union(%s)"
        (String.concat ", " (List.map body_gremlin branches))
  | Repeat (body, i, j) ->
      Printf.sprintf "repeat(%s).times(%d..%d).emit()" (body_gremlin body) i j
  | Dedup -> "dedup()"
  | Limit n -> Printf.sprintf "limit(%d)" n

and body_gremlin body = String.concat "." (List.map step_gremlin body)

let to_gremlin steps = "g." ^ body_gremlin steps
