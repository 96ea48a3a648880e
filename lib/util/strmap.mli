(** Ordered string maps, used throughout the system for field
    records. *)

include Map.S with type key = string

val of_list : (string * 'a) list -> 'a t
(** Later bindings win. *)

val keys : 'a t -> string list
(** In increasing order. *)

val find_opt_or : string -> default:'a -> 'a t -> 'a
(** The binding of the key, or [default]. Allocation-free: predicate
    evaluation calls it per field comparison. *)
