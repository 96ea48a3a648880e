(** Cached build sides of hash joins, keyed by the SQL text of the
    build plan and invalidated by table version counters: the engine's
    analog of a maintained index. {!Plan} reads and fills it. *)

type entry = {
  deps : (string * int) list;
      (** Each table the build side reads, with its version at build
          time; the entry is stale once any differs. *)
  buckets : (int, (Nepal_schema.Value.t * Nepal_schema.Value.t array) list) Hashtbl.t;
      (** Join-key hash -> (key, row) pairs. *)
  cols : string array;  (** Column names of the cached rows. *)
}

type t = (string, entry) Hashtbl.t
(** Build-plan SQL text and join key -> entry. *)

val create : unit -> t
