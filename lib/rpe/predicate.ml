module Value = Nepal_schema.Value
module Ftype = Nepal_schema.Ftype
module Schema = Nepal_schema.Schema
module Strmap = Nepal_util.Strmap

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of string list * comparison * Value.t
  | And of t * t
  | Or of t * t
  | Not of t

let conj = function
  | [] -> True
  | first :: rest -> List.fold_left (fun acc p -> And (acc, p)) first rest

let rec field_path fields = function
  | [] -> Value.Null
  | [ f ] -> Strmap.find_opt_or f ~default:Value.Null fields
  | f :: rest -> (
      match Strmap.find f fields with
      | Value.Data (_, inner) -> field_path inner rest
      | _ -> Value.Null
      | exception Not_found -> Value.Null)

let apply_comparison op (a : Value.t) (b : Value.t) =
  (* Comparisons involving Null are never true, including <>. *)
  if Value.equal a Value.Null || Value.equal b Value.Null then false
  else
    let c = Value.compare a b in
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

let rec eval t fields =
  match t with
  | True -> true
  | Cmp (path, op, lit) -> apply_comparison op (field_path fields path) lit
  | And (a, b) -> eval a fields && eval b fields
  | Or (a, b) -> eval a fields || eval b fields
  | Not a -> not (eval a fields)

let ( let* ) = Result.bind

let rec path_type schema (ft : Ftype.t) = function
  | [] -> Ok ft
  | f :: rest -> (
      match ft with
      | Ftype.T_data dname -> (
          match Schema.data_type_fields schema dname with
          | None -> Error (Printf.sprintf "unknown data type %S" dname)
          | Some fields -> (
              match List.assoc_opt f fields with
              | Some ft' -> path_type schema ft' rest
              | None ->
                  Error (Printf.sprintf "data type %S has no field %S" dname f)))
      | _ ->
          Error
            (Printf.sprintf "cannot access field %S of non-composite type %s" f
               (Ftype.to_string ft)))

let literal_compatible (ft : Ftype.t) (v : Value.t) =
  match (ft, v) with
  | _, Value.Null -> true
  | Ftype.T_int, Value.Int _
  | Ftype.T_float, (Value.Float _ | Value.Int _)
  | Ftype.T_bool, Value.Bool _
  | Ftype.T_string, Value.Str _
  | Ftype.T_ip, Value.Ip _
  | Ftype.T_time, Value.Time _ ->
      true
  | (Ftype.T_list _ | Ftype.T_set _ | Ftype.T_map _ | Ftype.T_data _), _ -> false
  | _, _ -> false

let typecheck schema ~cls t =
  let rec check = function
    | True -> Ok ()
    | And (a, b) | Or (a, b) ->
        let* () = check a in
        check b
    | Not a -> check a
    | Cmp (path, _, lit) -> (
        match path with
        | [] -> Error "empty field path"
        | head :: rest -> (
            match Schema.field_type schema cls head with
            | None ->
                Error
                  (Printf.sprintf "class %S has no field %S (atoms are strongly typed)"
                     cls head)
            | Some ft ->
                let* leaf = path_type schema ft rest in
                if literal_compatible leaf lit then Ok ()
                else
                  Error
                    (Printf.sprintf "field %s of class %S has type %s, incompatible with %s"
                       (String.concat "." path) cls (Ftype.to_string leaf)
                       (Value.to_string lit))))
  in
  check t

let coerce_literal (ft : Ftype.t) (v : Value.t) =
  match (ft, v) with
  | Ftype.T_time, Value.Str s -> (
      match Nepal_temporal.Time_point.of_string s with
      | Ok t -> Ok (Value.Time t)
      | Error e -> Error e)
  | Ftype.T_ip, Value.Str s -> (
      match Value.ip_of_string s with
      | Ok ip -> Ok (Value.Ip ip)
      | Error e -> Error e)
  | Ftype.T_float, Value.Int i -> Ok (Value.Float (float_of_int i))
  | _ -> Ok v

let coerce schema ~cls t =
  let rec rewrite = function
    | True -> Ok True
    | And (a, b) ->
        let* a = rewrite a in
        let* b = rewrite b in
        Ok (And (a, b))
    | Or (a, b) ->
        let* a = rewrite a in
        let* b = rewrite b in
        Ok (Or (a, b))
    | Not a ->
        let* a = rewrite a in
        Ok (Not a)
    | Cmp (path, op, lit) -> (
        match path with
        | [] -> Error "empty field path"
        | head :: rest -> (
            match Schema.field_type schema cls head with
            | None -> Ok (Cmp (path, op, lit)) (* typecheck reports this *)
            | Some ft -> (
                match path_type schema ft rest with
                | Error _ -> Ok (Cmp (path, op, lit))
                | Ok leaf ->
                    let* lit = coerce_literal leaf lit in
                    Ok (Cmp (path, op, lit)))))
  in
  let* rewritten = rewrite t in
  let* () = typecheck schema ~cls rewritten in
  Ok rewritten

let rec equality_lookups = function
  | Cmp ([ f ], Eq, v) -> [ (f, v) ]
  | And (a, b) -> equality_lookups a @ equality_lookups b
  | True | Cmp _ | Or _ | Not _ -> []

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Literals render in the query-language's own syntax: single-quoted
   strings (with '' escaping), so that printed predicates re-parse. *)
let literal_to_string = function
  | Value.Str s ->
      let escaped =
        String.concat "''" (String.split_on_char '\'' s)
      in
      "'" ^ escaped ^ "'"
  | Value.Time t -> "'" ^ Nepal_temporal.Time_point.to_string t ^ "'"
  | Value.Ip ip -> "'" ^ Value.ip_to_string ip ^ "'"
  | v -> Value.to_string v

let rec to_string = function
  | True -> ""
  | Cmp (path, op, v) ->
      Printf.sprintf "%s%s%s" (String.concat "." path) (comparison_to_string op)
        (literal_to_string v)
  | And (a, b) -> binder ", " a b
  | Or (a, b) -> "(" ^ binder " or " a b ^ ")"
  | Not a -> "not (" ^ to_string a ^ ")"

and binder sep a b =
  match (to_string a, to_string b) with
  | "", s | s, "" -> s
  | sa, sb -> sa ^ sep ^ sb

let pp ppf t = Format.pp_print_string ppf (to_string t)

let rec equal a b =
  match (a, b) with
  | True, True -> true
  | Cmp (p, o, v), Cmp (p', o', v') -> p = p' && o = o' && Value.equal v v'
  | And (x, y), And (x', y') | Or (x, y), Or (x', y') -> equal x x' && equal y y'
  | Not x, Not x' -> equal x x'
  | (True | Cmp _ | And _ | Or _ | Not _), _ -> false
