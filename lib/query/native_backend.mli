(** Backend executing directly against the native temporal graph store
    — the reference implementation the other targets are tested
    against. Every read path is pure, so it is [parallel_safe]; it is
    reached through {!Connect.native}. *)

include Backend_intf.S with type t = Nepal_store.Graph_store.t
