(** Persistent integer sets, used for pathway cycle pruning (partials
    extend one element at a time, so siblings share the whole parent
    set) and for the analyzer's class-state frontiers. *)

include Set.S with type elt = int
