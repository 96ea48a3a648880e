(** Packaging of backends into first-class connections: each function
    wraps one backend value as the {!Backend_intf.conn} that the
    evaluator, the planner and the engine take. *)

val native : Nepal_store.Graph_store.t -> Backend_intf.conn
val relational : Relational_backend.t -> Backend_intf.conn
val gremlin : Gremlin_backend.t -> Backend_intf.conn
