(* Process-wide observability registry: named monotonic counters and
   duration histograms. The store, the RPE evaluator and the query
   backends register into it so that one snapshot shows where work went.

   Counters are single [Atomic.t] cells — incrementing one from a
   parallel walk domain is a few nanoseconds and never contends on the
   registry lock, which is taken only to create or enumerate
   instruments.

   Histograms are log-linear: every power-of-two octave is divided into
   [sub_buckets] linear sub-buckets, so a recorded value lands in a
   bucket whose width is at most 1/sub_buckets of its magnitude
   (relative quantile error <= ~12.5% at sub_buckets = 4). That is what
   lets one always-on histogram answer p50/p95/p99 questions without
   keeping samples. Observation is a bucket increment plus running
   count/sum/min/max under a per-histogram mutex; histograms are
   observed on coordinating threads only, so the lock is uncontended in
   practice. Nothing is ever reported unless someone calls [snapshot],
   so an unread registry costs only the bumps. *)

type counter = { c_name : string; cell : int Atomic.t }

(* Bucket layout: octaves [e_min, e_max) of seconds, 4 linear
   sub-buckets per octave, plus an underflow bucket (index 0, values
   below 2^e_min including <= 0) and an overflow bucket (last index,
   values >= 2^e_max). 2^-30 s ~ 1 ns; 2^10 s ~ 17 min — wide enough
   for every duration this system records. *)
let sub_buckets = 4
let e_min = -30
let e_max = 10
let n_buckets = ((e_max - e_min) * sub_buckets) + 2

(* Index of the bucket [v] falls into. *)
let bucket_index v =
  if v <= 0. then 0
  else
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1): octave o = e - 1, v in [2^o, 2^(o+1)) *)
    let o = e - 1 in
    if o < e_min then 0
    else if o >= e_max then n_buckets - 1
    else
      let s = int_of_float ((m -. 0.5) *. 2. *. float_of_int sub_buckets) in
      let s = if s < 0 then 0 else if s >= sub_buckets then sub_buckets - 1 else s in
      ((o - e_min) * sub_buckets) + s + 1

(* Inclusive upper bound of bucket [i] ([infinity] for the overflow
   bucket) — the OpenMetrics [le] label and the quantile interpolation
   grid. *)
let bucket_upper i =
  if i <= 0 then Float.ldexp 1. e_min
  else if i >= n_buckets - 1 then infinity
  else
    let o = (i - 1) / sub_buckets and s = (i - 1) mod sub_buckets in
    Float.ldexp (0.5 +. (float_of_int (s + 1) /. (2. *. float_of_int sub_buckets)))
      (e_min + o + 1)

let bucket_lower i = if i <= 0 then 0. else bucket_upper (i - 1)

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  buckets : int array;
  mutable h_count : int [@guarded_by "h_lock"];
  mutable h_sum : float [@guarded_by "h_lock"];
  mutable h_min : float [@guarded_by "h_lock"];
  mutable h_max : float [@guarded_by "h_lock"];
}

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

(* Gauges are callbacks, not cells: the registry samples them at
   snapshot time, so a gauge always reports the live value (heap words,
   pool occupancy, active watches) with zero bookkeeping on the hot
   path. Callbacks must not call back into the registry — they run
   under the registry lock. *)
let gauges : (string, unit -> float) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          Hashtbl.replace counters name c;
          c)

(* A histogram value not in the registry: per-statement latency tables
   and bench-local measurements use these so they can share the bucket
   layout and quantile math without polluting the global snapshot. *)
let unregistered_histogram name =
  {
    h_name = name;
    h_lock = Mutex.create ();
    buckets = Array.make n_buckets 0;
    h_count = 0;
    h_sum = 0.;
    h_min = infinity;
    h_max = neg_infinity;
  }

let histogram name =
  with_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = unregistered_histogram name in
          Hashtbl.replace histograms name h;
          h)

let register_gauge name read = with_lock (fun () -> Hashtbl.replace gauges name read)

let gauge_value name =
  with_lock (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some read -> ( try Some (read ()) with _ -> None)
      | None -> None)

let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let counter_value c = Atomic.get c.cell
let counter_name c = c.c_name

let observe h v =
  Mutex.lock h.h_lock;
  h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  Mutex.unlock h.h_lock

(* Time [f] and record the elapsed seconds whatever the outcome. *)
let time h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

let histogram_name h = h.h_name
let histogram_count h = h.h_count

(* Estimate the [q]-quantile by linear interpolation within the bucket
   holding the target rank; exact min/max clamp the two ends, so small
   histograms degrade gracefully. Assumes [h_lock] is held. *)
let quantile_locked h q =
  if h.h_count = 0 then nan
  else begin
    let rank = q *. float_of_int h.h_count in
    let i = ref 0 and cum = ref 0. in
    while !i < n_buckets - 1 && !cum +. float_of_int h.buckets.(!i) < rank do
      cum := !cum +. float_of_int h.buckets.(!i);
      Stdlib.incr i
    done;
    let in_bucket = float_of_int h.buckets.(!i) in
    let lo = bucket_lower !i and hi = bucket_upper !i in
    let v =
      if Float.is_finite hi && in_bucket > 0. then
        lo +. ((hi -. lo) *. ((rank -. !cum) /. in_bucket))
      else h.h_max
    in
    Float.min h.h_max (Float.max h.h_min v)
  end

let quantile h q =
  Mutex.lock h.h_lock;
  let v = quantile_locked h q in
  Mutex.unlock h.h_lock;
  v

type histogram_stats = {
  name : string;
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : (float * int) list;  (* (inclusive upper bound, count), non-empty only *)
}

let stats_of h =
  Mutex.lock h.h_lock;
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (bucket_upper i, h.buckets.(i)) :: !buckets
  done;
  let s =
    {
      name = h.h_name;
      count = h.h_count;
      sum = h.h_sum;
      min = h.h_min;
      max = h.h_max;
      p50 = quantile_locked h 0.50;
      p95 = quantile_locked h 0.95;
      p99 = quantile_locked h 0.99;
      buckets = !buckets;
    }
  in
  Mutex.unlock h.h_lock;
  s

(* Quantiles of only the observations recorded *between* two snapshots
   of the same histogram. Registered histograms are cumulative forever,
   which makes their quantiles sticky — one slow burst dominates p99 for
   the rest of the process. Differencing the bucket counts recovers a
   windowed view: per-interval quantiles that rise during an incident
   and fall when it ends (the benchmark harness reads per-run tails this
   way). The bounds in [stats.buckets] are exact [bucket_upper] values,
   so the grid index is recovered by equality scan (162 buckets). *)
let quantiles_of_delta ?prev (cur : histogram_stats) =
  let arr = Array.make n_buckets 0 in
  let fill sign buckets =
    List.iter
      (fun (bound, c) ->
        let i = ref 0 in
        while !i < n_buckets - 1 && bucket_upper !i <> bound do
          Stdlib.incr i
        done;
        arr.(!i) <- arr.(!i) + (sign * c))
      buckets
  in
  fill 1 cur.buckets;
  (* a reset between snapshots makes counts shrink: treat [prev] as
     empty rather than producing negative buckets *)
  (match prev with
  | Some p when p.count <= cur.count -> fill (-1) p.buckets
  | Some _ | None -> ());
  let n = Array.fold_left ( + ) 0 arr in
  if n <= 0 then None
  else begin
    let quant q =
      let rank = q *. float_of_int n in
      let i = ref 0 and cum = ref 0. in
      while !i < n_buckets - 1 && !cum +. float_of_int arr.(!i) < rank do
        cum := !cum +. float_of_int arr.(!i);
        Stdlib.incr i
      done;
      let in_bucket = float_of_int arr.(!i) in
      let lo = bucket_lower !i and hi = bucket_upper !i in
      let v =
        if Float.is_finite hi && in_bucket > 0. then
          lo +. ((hi -. lo) *. ((rank -. !cum) /. in_bucket))
        else cur.max
      in
      (* the delta's own min/max are unknown; the cumulative envelope
         still bounds every delta observation *)
      Float.min cur.max (Float.max cur.min v)
    in
    Some (quant 0.50, quant 0.95, quant 0.99)
  end

type snapshot = {
  counter_values : (string * int) list;    (* sorted by name *)
  gauge_values : (string * float) list;    (* sorted by name; sampled now *)
  histogram_values : histogram_stats list; (* sorted by name *)
}

(* A failing gauge callback is dropped from the snapshot, but never
   silently: the failure is counted and its message retained. *)
let m_gauge_errors = counter "metrics.gauge_read_errors"
let last_gauge_error = Atomic.make ""

let note_gauge_error name exn =
  incr m_gauge_errors;
  Atomic.set last_gauge_error (name ^ ": " ^ Printexc.to_string exn)

let snapshot () =
  with_lock (fun () ->
      let cs =
        Hashtbl.fold
          (fun name c acc -> (name, Atomic.get c.cell) :: acc)
          counters []
      in
      let gs =
        Hashtbl.fold
          (fun name read acc ->
            match read () with
            | v -> (name, v) :: acc
            | exception exn ->
                note_gauge_error name exn;
                acc)
          gauges []
      in
      let hs = Hashtbl.fold (fun _ h acc -> stats_of h :: acc) histograms [] in
      {
        counter_values = List.sort compare cs;
        gauge_values = List.sort compare gs;
        histogram_values =
          List.sort (fun a b -> compare a.name b.name) hs;
      })

let reset_histogram h =
  Mutex.lock h.h_lock;
  Array.fill h.buckets 0 n_buckets 0;
  h.h_count <- 0;
  h.h_sum <- 0.;
  h.h_min <- infinity;
  h.h_max <- neg_infinity;
  Mutex.unlock h.h_lock

(* Zero every instrument (handles stay valid; tests and bench sections
   use this to scope what they measure). *)
let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter (fun _ h -> reset_histogram h) histograms)

(* Observability state outside this registry (the statement-statistics
   table, event-sampling counters) registers a hook so [reset_all]
   restores a pristine process for test isolation. *)
let reset_hooks : (unit -> unit) list ref = ref []
[@@guarded_by "registry_lock"]
let on_reset f = reset_hooks := f :: !reset_hooks

let reset_all () =
  reset ();
  List.iter (fun f -> f ()) !reset_hooks

let pp ppf () =
  let s = snapshot () in
  List.iter
    (fun (name, v) ->
      if v <> 0 then Format.fprintf ppf "%-42s %d@." name v)
    s.counter_values;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-42s %g (gauge)@." name v)
    s.gauge_values;
  List.iter
    (fun h ->
      if h.count > 0 then
        Format.fprintf ppf
          "%-42s n=%d sum=%.6fs avg=%.6fs min=%.6fs p50=%.6fs p95=%.6fs p99=%.6fs max=%.6fs@."
          h.name h.count h.sum (h.sum /. float_of_int h.count) h.min h.p50
          h.p95 h.p99 h.max)
    s.histogram_values

(* -- OpenMetrics exposition format ---------------------------------- *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; dots in registry names become
   underscores and everything is prefixed with the application name. *)
let metric_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "nepal_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let le_repr bound =
  if bound = infinity then "+Inf" else Printf.sprintf "%.9g" bound

(* Render the whole registry in the OpenMetrics text exposition format
   (one # TYPE block per metric family, counters with a _total sample,
   histograms with cumulative _bucket series plus _sum/_count, and the
   mandatory # EOF terminator). This is what [nepal serve
   --metrics-port] serves. *)
let render_openmetrics () =
  let s = snapshot () in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" m v))
    s.counter_values;
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" m);
      Buffer.add_string b (Printf.sprintf "%s %s\n" m (float_repr v)))
    s.gauge_values;
  List.iter
    (fun (h : histogram_stats) ->
      let m = metric_name h.name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
      let cum = ref 0 in
      List.iter
        (fun (bound, n) ->
          cum := !cum + n;
          if bound <> infinity then
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (le_repr bound) !cum))
        h.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" m
           (float_repr (if h.count = 0 then 0. else h.sum)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" m h.count))
    s.histogram_values;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* Runtime gauges every process gets for free: OCaml heap occupancy and
   collection counts ([Gc.quick_stat] is a few loads, safe under the
   registry lock). Registered at module initialization so the
   OpenMetrics endpoint always includes them. *)
let () =
  register_gauge "gc.heap_words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words);
  register_gauge "gc.major_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections);
  register_gauge "gc.minor_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.minor_collections)
