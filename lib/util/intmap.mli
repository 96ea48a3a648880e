(** Ordered maps keyed by integers. *)

include Map.S with type key = int
