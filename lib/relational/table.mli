(** Heap tables of the mini relational engine.

    A table has named columns and dynamically-typed rows (the Nepal
    layer above enforces typing). Tables support single-parent
    [INHERITS] in the Postgres style: a child has all parent columns
    (possibly plus its own), and scanning the parent includes children
    unless the scan says [ONLY]. *)

module Value = Nepal_schema.Value

type t = {
  name : string;
  parent : string option;
  cols : string array;
  mutable rows : Value.t array list;  (** in insertion order, reversed *)
  mutable version_ : int;  (** use {!version} *)
}

val make : ?parent:string -> name:string -> string list -> t
(** [make ~name cols] — [cols] gives the column names in order. *)

val col_index : t -> string -> int option
val insert : t -> (string * Value.t) list -> (unit, string) result
(** Unspecified columns become [Null]; unknown columns are an error. *)

val insert_row : t -> Value.t array -> (unit, string) result
(** Positional insert; arity-checked. *)

val row_count : t -> int

val version : t -> int
(** Mutation counter — bumped by every write; lets the join cache
    detect staleness. *)


val rows_in_order : t -> Value.t array list
val clear : t -> unit
val delete_where : t -> (Value.t array -> bool) -> int
(** Returns the number of rows removed. *)

val update_where :
  t -> (Value.t array -> bool) -> (Value.t array -> Value.t array) -> int
