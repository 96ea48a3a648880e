module Value = Nepal_schema.Value
module Strmap = Nepal_util.Strmap

type t = {
  uid : int;
  cls : string;
  fields : Value.t Strmap.t;
  is_node : bool;
}
