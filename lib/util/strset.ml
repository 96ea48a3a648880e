include Set.Make (String)
