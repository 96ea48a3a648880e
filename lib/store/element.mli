(** The element a query sees: one entity version's identity, class and
    fields. The store builds one per version at mutation time and hands
    out that same value on every read, so reads allocate none.
    [Path.element] re-exports this type. *)

type t = {
  uid : int;
  cls : string;  (** concrete class name *)
  fields : Nepal_schema.Value.t Nepal_util.Strmap.t;
  is_node : bool;
}
