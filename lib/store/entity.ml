module Strmap = Nepal_util.Strmap
module Value = Nepal_schema.Value
module Interval = Nepal_temporal.Interval

type uid = int

type t = {
  uid : uid;
  cls : string;
  fields : Value.t Strmap.t;
  period : Interval.t;
  endpoints : (uid * uid) option;
  elem : Element.t;
}

let make ~uid ~cls ~fields ~period ~endpoints =
  let elem = { Element.uid; cls; fields; is_node = endpoints = None } in
  { uid; cls; fields; period; endpoints; elem }

let is_edge t = t.endpoints <> None
let is_node t = t.endpoints = None

let src t =
  match t.endpoints with
  | Some (s, _) -> s
  | None -> invalid_arg "Entity.src: not an edge"

let dst t =
  match t.endpoints with
  | Some (_, d) -> d
  | None -> invalid_arg "Entity.dst: not an edge"

let field t name = Strmap.find_opt_or name ~default:Value.Null t.fields

let pp ppf t =
  let endpoints =
    match t.endpoints with
    | Some (s, d) -> Printf.sprintf " %d->%d" s d
    | None -> ""
  in
  Format.fprintf ppf "#%d:%s%s %s %s" t.uid t.cls endpoints
    (String.concat ","
       (List.map
          (fun (k, v) -> k ^ "=" ^ Value.to_string v)
          (Strmap.bindings t.fields)))
    (Interval.to_string t.period)
