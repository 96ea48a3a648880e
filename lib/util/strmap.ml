(* Ordered string maps used throughout the system for field records. *)

include Map.Make (String)

let of_list l = List.fold_left (fun m (k, v) -> add k v m) empty l

let keys m = List.map fst (bindings m)

let find_opt_or k ~default m =
  match find k m with v -> v | exception Not_found -> default
