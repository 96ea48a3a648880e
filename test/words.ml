(* Allocation counting for the tests' word gates, linked only by tests.
   Minor and direct-to-major allocations alike, read from the live
   counters (Gc.quick_stat is only refreshed by collections). The
   counts are exact when nothing allocates on another domain. *)

(* Words allocated so far by this domain. *)
let now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words allocated while [f] runs, and its result. *)
let during f =
  let w0 = now () in
  let r = f () in
  (now () -. w0, r)
