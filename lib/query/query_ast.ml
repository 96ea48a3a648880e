(** Abstract syntax of the Nepal query language (Section 3.4):

    {v
    AT '2017-02-15 10:00:00'
    Retrieve P
    From PATHS P, PATHS Q(@'2017-02-15 11:00')
    Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)
      And source(P) = source(Q)
      And NOT EXISTS (Retrieve R From PATHS R Where ...)
    v} *)

module Value = Nepal_schema.Value
module Time_point = Nepal_temporal.Time_point
module Rpe = Nepal_rpe.Rpe
module Predicate = Nepal_rpe.Predicate

type path_fun = Source | Target

type agg_kind = Count | Min | Max | Sum | Avg

type scalar =
  | Node_of of path_fun * string          (** [source(P)] — node identity *)
  | Field_of of path_fun * string * string list  (** [source(P).name] *)
  | Length_of of string                   (** [length(P)] — hop count *)
  | Lit of Value.t
  | Aggregate of agg_kind * scalar option
      (** [count(P)], [min(length(P))], … — legal only in [Select]
          items, where plain items become the (implicit) grouping key.
          The paper lists aggregation on pathway sets as future work. *)

type tc_spec =
  | At_point of Time_point.t
  | At_range of Time_point.t * Time_point.t

type range_var = {
  var_name : string;
  var_tc : tc_spec option;
  var_span : Nepal_rpe.Span.t;
      (** Position of the variable in the From clause (dummy when the
          query was built programmatically). *)
}

type select_item = { item : scalar; alias : string option }

type mode =
  | Retrieve of string list      (** pathway results *)
  | Select of select_item list   (** post-processed scalar results *)

type condition =
  | Matches of string * Rpe.t
  | Cmp of scalar * Predicate.comparison * scalar
  | And of condition * condition
  | Or of condition * condition
  | Not of condition
  | Exists of query
  | Not_exists of query

and query = {
  q_at : tc_spec option;
  mode : mode;
  vars : range_var list;
  where_ : condition;
}

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | c -> [ c ]

(* MATCHES anywhere below [c]; only a top-level conjunct may hold one. *)
let rec mentions_matches = function
  | Matches _ -> true
  | And (a, b) | Or (a, b) -> mentions_matches a || mentions_matches b
  | Not c -> mentions_matches c
  | Cmp _ | Exists _ | Not_exists _ -> false

(* The top-level conjuncts of a Where clause by the role they play in
   evaluation. The engine plans and seeds from it; the analyzer checks
   the same classification (NPL014, NPL018). Each list is in reverse
   conjunct order. *)
type classified = {
  matches : (string * Rpe.t) list;
  joins : (path_fun * string * path_fun * string) list;
      (** source/target equality between two distinct variables *)
  anchors_from_lit : (path_fun * string * Value.t) list;
      (** node function pinned to a literal uid (from correlation
          substitution) *)
  filters : condition list;
}

let classify conds =
  List.fold_left
    (fun acc c ->
      match c with
      | Matches (v, r) -> { acc with matches = (v, r) :: acc.matches }
      | Cmp (Node_of (f1, v1), Predicate.Eq, Node_of (f2, v2)) when v1 <> v2 ->
          { acc with joins = (f1, v1, f2, v2) :: acc.joins }
      | Cmp (Node_of (f, v), Predicate.Eq, Lit lit)
      | Cmp (Lit lit, Predicate.Eq, Node_of (f, v)) ->
          { acc with anchors_from_lit = (f, v, lit) :: acc.anchors_from_lit }
      | c -> { acc with filters = c :: acc.filters })
    { matches = []; joins = []; anchors_from_lit = []; filters = [] }
    conds

let path_fun_to_string = function Source -> "source" | Target -> "target"

let agg_kind_to_string = function
  | Count -> "count"
  | Min -> "min"
  | Max -> "max"
  | Sum -> "sum"
  | Avg -> "avg"

let rec scalar_to_string = function
  | Node_of (f, v) -> Printf.sprintf "%s(%s)" (path_fun_to_string f) v
  | Field_of (f, v, path) ->
      Printf.sprintf "%s(%s).%s" (path_fun_to_string f) v (String.concat "." path)
  | Length_of v -> Printf.sprintf "length(%s)" v
  | Lit (Value.Str s) -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Lit (Value.Time t) -> "'" ^ Time_point.to_string t ^ "'"
  | Lit v -> Value.to_string v
  | Aggregate (k, None) -> Printf.sprintf "%s(*)" (agg_kind_to_string k)
  | Aggregate (k, Some inner) ->
      Printf.sprintf "%s(%s)" (agg_kind_to_string k) (scalar_to_string inner)

let tc_spec_to_string = function
  | At_point t -> Printf.sprintf "'%s'" (Time_point.to_string t)
  | At_range (a, b) ->
      Printf.sprintf "'%s' : '%s'" (Time_point.to_string a) (Time_point.to_string b)

let rec condition_to_string = function
  | Matches (v, r) -> Printf.sprintf "%s MATCHES %s" v (Rpe.to_string r)
  | Cmp (a, op, b) ->
      Printf.sprintf "%s %s %s" (scalar_to_string a)
        (Predicate.comparison_to_string op)
        (scalar_to_string b)
  | And (a, b) ->
      Printf.sprintf "%s And %s" (condition_to_string a) (condition_to_string b)
  | Or (a, b) ->
      Printf.sprintf "(%s Or %s)" (condition_to_string a) (condition_to_string b)
  | Not c -> Printf.sprintf "Not (%s)" (condition_to_string c)
  | Exists q -> Printf.sprintf "EXISTS (%s)" (to_string q)
  | Not_exists q -> Printf.sprintf "NOT EXISTS (%s)" (to_string q)

and to_string q =
  let buf = Buffer.create 128 in
  (match q.q_at with
  | Some tc -> Buffer.add_string buf (Printf.sprintf "AT %s " (tc_spec_to_string tc))
  | None -> ());
  (match q.mode with
  | Retrieve vars ->
      Buffer.add_string buf ("Retrieve " ^ String.concat ", " vars)
  | Select items ->
      Buffer.add_string buf
        ("Select "
        ^ String.concat ", "
            (List.map
               (fun { item; alias } ->
                 scalar_to_string item
                 ^ match alias with Some a -> " AS " ^ a | None -> "")
               items)));
  Buffer.add_string buf " From ";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun { var_name; var_tc; _ } ->
            "PATHS " ^ var_name
            ^ match var_tc with
              | Some tc -> Printf.sprintf "(@%s)" (tc_spec_to_string tc)
              | None -> "")
          q.vars));
  Buffer.add_string buf (" Where " ^ condition_to_string q.where_);
  Buffer.contents buf
