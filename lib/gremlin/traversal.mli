(** A small Gremlin-style traversal machine.

    Traversals are step lists interpreted over a {!Pgraph.t}; each
    traverser carries the pathway walked so far, which makes Nepal's
    path-valued results natural. [to_gremlin] renders the Gremlin text
    the paper's code generator would send to a real TinkerPop server. *)

module Value = Nepal_schema.Value

type comparison = Eq | Neq | Lt | Lte | Gt | Gte

type pstep =
  | V                              (** start from all vertices *)
  | E                              (** start from all edges *)
  | V_ids of int list              (** start from given vertices (channel input) *)
  | E_ids of int list
  | Has_label of string            (** label-prefix concept match *)
  | Has of string * comparison * Value.t
  | Has_period_at of Nepal_temporal.Time_point.t
      (** sys_period contains the instant *)
  | Has_period_overlaps of Nepal_temporal.Time_point.t * Nepal_temporal.Time_point.t
  | Has_period_current
  | Out_e                          (** vertex -> outgoing edges *)
  | In_e                           (** vertex -> incoming edges *)
  | Both_e
  | Out_v                          (** edge -> source vertex *)
  | In_v                           (** edge -> target vertex *)
  | Other_v                        (** edge -> the endpoint not just visited *)
  | Simple_path                    (** discard traversers that revisit an element *)
  | Union of pstep list list
  | Repeat of pstep list * int * int
      (** [Repeat (body, i, j)]: emit after every k-th completion with
          [i <= k <= j] — the paper's ExtendBlock loop unrolling *)
  | Dedup
  | Limit of int

type traverser = {
  here : int;                      (** current element id *)
  path : int list;                 (** ids walked, oldest first *)
}

val apply : Pgraph.t -> traverser list -> pstep -> traverser list
(** One step over the current traversers. *)

val run :
  Pgraph.t -> ?sources:traverser list -> pstep list -> traverser list
(** [sources] feeds an already-materialized frontier into the traversal
    (the "channel" mechanism of Section 5.2); when absent the step list
    must begin with [V], [E], [V_ids] or [E_ids]. Equal to
    [List.fold_left (apply g) sources steps]; a leading
    [V]/[E] + [Has_label p] pair starts from the label index instead of
    the whole graph. *)

val results : Pgraph.t -> traverser list -> Pgraph.element list
(** Resolve final positions. *)

val paths : Pgraph.t -> traverser list -> Pgraph.element list list

val to_gremlin : pstep list -> string
