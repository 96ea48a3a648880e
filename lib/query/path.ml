module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap
module Interval_set = Nepal_temporal.Interval_set

type element = Nepal_store.Element.t = {
  uid : int;
  cls : string;
  fields : Value.t Strmap.t;
  is_node : bool;
}

type t = { elements : element list; valid : Interval_set.t option }

let well_formed t =
  match t.elements with
  | [] -> false
  | first :: _ ->
      let rec alternates expect_node = function
        | [] -> true
        | e :: rest -> e.is_node = expect_node && alternates (not expect_node) rest
      in
      let last = List.nth t.elements (List.length t.elements - 1) in
      first.is_node && last.is_node && alternates true t.elements

let source t =
  match t.elements with
  | e :: _ -> e
  | [] -> invalid_arg "Path.source: empty pathway"

let target t =
  let rec last = function
    | [ e ] -> e
    | _ :: tl -> last tl
    | [] -> invalid_arg "Path.target: empty pathway"
  in
  last t.elements

let edges t = List.filter (fun e -> not e.is_node) t.elements
let nodes t = List.filter (fun e -> e.is_node) t.elements

let length t =
  let rec hops n = function
    | [] -> n
    | e :: tl -> hops (if e.is_node then n else n + 1) tl
  in
  hops 0 t.elements

let key t = List.map (fun e -> e.uid) t.elements

let rec mem_uid u = function
  | [] -> false
  | e :: tl -> e.uid = u || mem_uid u tl

let field e name = Strmap.find_opt_or name ~default:Value.Null e.fields

(* The element lists are walked in place: these run per candidate pair
   in joins and per comparison in sorts, so they must not allocate. *)
let compare a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs, y :: ys ->
        let c = Int.compare x.uid y.uid in
        if c <> 0 then c else go xs ys
  in
  go a.elements b.elements

let equal a b = compare a b = 0

let hash t =
  let rec go h = function
    | [] -> h
    | e :: tl -> go ((h * 0x100000001b3) lxor e.uid) tl
  in
  let h = go 0x1f3d5b79 t.elements * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let add_element b e =
  Buffer.add_string b (if e.is_node then "(" else "-[");
  Buffer.add_string b e.cls;
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int e.uid);
  Buffer.add_string b (if e.is_node then ")" else "]->")

let add_to_buffer b t =
  List.iter (add_element b) t.elements;
  match t.valid with
  | None -> ()
  | Some v ->
      Buffer.add_string b " valid ";
      Interval_set.add_to_buffer b v

let to_string t =
  let b = Buffer.create 128 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
