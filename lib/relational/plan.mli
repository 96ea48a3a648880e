(** Physical query plans and their interpreter.

    The Nepal query translator emits these plans (Select, Extend and
    Union operators become scans, hash joins and unions); [to_sql]
    renders the equivalent PostgreSQL, which is what the paper's code
    generator would ship to a real server. *)

module Value = Nepal_schema.Value

type rowset = { cols : string array; rows : Value.t array list }

type agg =
  | Count
  | First of string
  | Iset_union of string  (** union of encoded interval sets *)
  | Min of string
  | Max of string
  | Sum of string

type t =
  | Scan of { table : string; only : bool }
      (** [only] suppresses INHERITS children (Postgres [ONLY t]). *)
  | Values of { cols : string list; rows : Value.t array list }
  | Filter of t * Expr.t
  | Project of t * (string * Expr.t) list
  | Rename of t * string  (** prefix every column with ["p."] *)
  | Hash_join of { left : t; right : t; left_key : Expr.t; right_key : Expr.t;
                   residual : Expr.t }
  | Union_all of t list
  | Distinct of t
  | Aggregate of { input : t; group_by : string list; aggs : (string * agg) list }
  | Sort of t * (Expr.t * [ `Asc | `Desc ]) list
  | Limit of t * int

val run : Database.t -> t -> (rowset, string) result
val run_exn : Database.t -> t -> rowset

val create_temp : Database.t -> t -> (string, string) result
(** [CREATE TEMP TABLE <fresh> AS <plan>]; returns the table name. *)

val to_sql : t -> string

val column_value : rowset -> Value.t array -> string -> Value.t
(** Lookup by column name; [Null] when absent. The first column of that
    name wins, as in plan evaluation. Scans [cols] in place and
    allocates nothing, so it is cheap enough to call per cell. *)

val rowset_count : rowset -> int
