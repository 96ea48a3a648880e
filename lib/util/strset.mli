(** Ordered string sets, used for class-name sets (analysis end
    classes, monitor relevance filters). *)

include Set.S with type elt = string
