(* The Nepal benchmark's workloads: topology set-up, instance
   selection, the closed-loop measured phase, the churn writer and
   watcher, and the layer-by-layer traced replay. Everything goes
   through public entry points of the facade: the wire server and
   client, [Nepal.query_on], [Server.with_write] and the per-layer
   functions the traced replay calls one at a time. *)

module Nepal = Core.Nepal
module V = Nepal.Virt_service
module L = Nepal.Legacy
module Server = Nepal.Server
module Client = Nepal.Server_client
module Metrics = Nepal.Metrics
module Prng = Nepal.Prng
module Tp = Nepal.Time_point
module Jsonp = Nepal_util.Jsonp

let now = Unix.gettimeofday
let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ---- workloads ------------------------------------------------------ *)

type workload = Virt_read | Legacy_read | Virt_churn | Virt_targets

let workloads =
  [
    ("virt-read", Virt_read);
    ("legacy-read", Legacy_read);
    ("virt-churn", Virt_churn);
    ("virt-targets", Virt_targets);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type backend = Native | Relational | Gremlin

let backend_name = function
  | Native -> "native"
  | Relational -> "relational"
  | Gremlin -> "gremlin"

type form = Snap | At | Range

let form_name = function Snap -> "snapshot" | At -> "at" | Range -> "range"

type spec = {
  workload : workload;
  clients : int;  (** closed-loop callers (connections for the wire) *)
  per_family : (string * int) list;
      (** stratified instances per family; the weights place the p50
          and tail ranks inside one family's latency band *)
  forms : form list;
  backends : backend list;
  tail_pct : int;  (** the fixed percentile behind query_tail_ms *)
  setup_reps : int;  (** cold set-ups behind the setup_s median *)
  reads_per_write : int;
      (** 0 for read-only workloads; otherwise writes land well apart
          compared with the monitor's 50 ms debounce, so the monitor's
          work per write does not depend on the machine's speed *)
  virt_scale : (int * int) option;
      (** (VNFs, servers) for a reduced virtualized topology (tests);
          [None] keeps the generator's defaults *)
}

let all_forms = [ Snap; At; Range ]

let spec_of ~nproc workload =
  let base =
    {
      workload;
      clients = 1;
      per_family = [];
      forms = all_forms;
      backends = [ Native ];
      tail_pct = 95;
      setup_reps = 5;
      reads_per_write = 0;
      virt_scale = None;
    }
  in
  let table1 = [ ("top-down", 4); ("bottom-up", 5); ("vm-vm", 5); ("host-host", 8) ] in
  match workload with
  | Virt_read -> { base with clients = max 1 nproc; per_family = table1; tail_pct = 96 }
  | Legacy_read ->
      {
        base with
        per_family = [ ("service", 6); ("reverse", 6); ("top-down", 8); ("bottom-up", 6) ];
        forms = [ Snap ];
        tail_pct = 90;
        setup_reps = 3;
      }
  | Virt_churn -> { base with per_family = table1; tail_pct = 96; reads_per_write = 24 }
  | Virt_targets ->
      {
        base with
        per_family = [ ("top-down", 2); ("bottom-up", 2); ("vm-vm", 2); ("host-host", 2) ];
        backends = [ Relational; Gremlin ];
      }

let is_wire spec = spec.workload <> Virt_targets

(* ---- topology and instances ---------------------------------------- *)

type topo = Virt of V.t | Legacy of L.t

let store_of = function Virt t -> t.V.store | Legacy t -> t.L.store

(* The topology is the generators' default network (fixed seeds), as
   the paper measures one network: --seed sets the pass order and the
   churn writes, never the graph itself. 60k legacy nodes make a store
   far larger than the last-level cache. *)
let legacy_nodes = 60_000

let build_topology spec =
  match spec.workload with
  | Legacy_read ->
      let t = L.generate ~nodes:legacy_nodes L.Flat in
      L.simulate_history ~days:60 t;
      Legacy t
  | Virt_read | Virt_churn | Virt_targets ->
      let t =
        match spec.virt_scale with
        | None -> V.generate ()
        | Some (vnf_count, server_count) -> V.generate ~vnf_count ~server_count ()
      in
      V.simulate_history t;
      Virt t

type item = { text : string; family : string; form : form; backend : backend }

let label it =
  Printf.sprintf "%s/%s/%s" it.family (form_name it.form) (backend_name it.backend)

(* Candidate pools per family, drawn from a fixed stream: the instance
   set is the same for every seed, which only orders the passes and
   drives the churn writes. Small populations are taken whole; the
   others draw [pool_factor] candidates per instance. *)
let pool_factor = 6

let instances spec family = Option.value ~default:0 (List.assoc_opt family spec.per_family)

let family_pools spec topo =
  let rng = Prng.create 2018 in
  let draw_for family f = List.init (pool_factor * instances spec family) (fun _ -> f ()) in
  match topo with
  | Virt t ->
      let container () = V.sample_container_id rng t in
      let server () = V.sample_server_id rng t in
      [
        ( "top-down",
          Array.to_list (Array.map (fun id -> V.q_top_down ~vnf_id:id) t.V.vnf_ids) );
        ( "bottom-up",
          Array.to_list
            (Array.map (fun id -> V.q_bottom_up ~server_id:id) t.V.server_ids) );
        ( "vm-vm",
          draw_for "vm-vm" (fun () ->
              let a = container () in
              V.q_vm_vm ~a ~b:(container ())) );
        ( "host-host",
          draw_for "host-host" (fun () ->
              let a = server () in
              V.q_host_host ~hops:4 ~a ~b:(server ())) );
      ]
  | Legacy t ->
      [
        ("service", draw_for "service" (fun () -> L.q_service_path t ~src:(L.sample_source rng t)));
        ("reverse", draw_for "reverse" (fun () -> L.q_reverse_path t ~sink:(L.sample_sink rng t)));
        ("top-down", draw_for "top-down" (fun () -> L.q_top_down t ~src:(L.sample_top rng t)));
        ("bottom-up", draw_for "bottom-up" (fun () -> L.q_bottom_up t ~dst:(L.sample_physical rng t)));
      ]

let render result = Format.asprintf "%a" Nepal.Engine.pp_result result

(* A query through the facade: (path count, rendered text). *)
let in_process conn text =
  match Nepal.query_on conn text with
  | Ok r -> Ok (Nepal.Engine.result_count r, render r)
  | Error e -> Error e

let answer r = Result.map (fun (count, text) -> Stats.answer_of ~count ~text) r
let eval_answer conn text = answer (in_process conn text)

(* Stratified choice: drop empty answers (as the paper does), order the
   rest by path count, cut into [n] equal strata and take each
   stratum's middle. The chosen set spans the family's cost
   distribution in fixed proportions, so no seed sets the cost. *)
let stratify ~n scored =
  let a = Array.of_list (List.sort compare scored) in
  let m = Array.length a in
  if m < n then
    failwith (Printf.sprintf "only %d non-empty candidates for %d strata" m n);
  List.init n (fun k ->
      let lo = k * m / n and hi = (k + 1) * m / n in
      snd a.((lo + hi) / 2))

let with_form topo form base =
  let store = store_of topo in
  let clock = Tp.to_string (Nepal.Graph_store.clock store) in
  match (form, topo) with
  | Snap, _ -> base
  | At, _ -> Printf.sprintf "AT '%s' %s" clock base
  | Range, Virt t ->
      Printf.sprintf "AT '%s' : '%s' %s" (Tp.to_string t.V.born) clock base
  | Range, Legacy _ -> invalid_arg "legacy-read has no range form"

(* One pass: every chosen instance in every form on every backend,
   exactly once. [expect] receives the native in-process answer of each
   distinct query text. *)
let select_items spec topo ~expect =
  let conn = Nepal.native_conn (store_of topo) in
  let families = family_pools spec topo in
  List.concat_map
    (fun (family, pool) ->
      let n = instances spec family in
      if n = 0 then []
      else
      let scored =
        List.filter_map
          (fun base ->
            match eval_answer conn base with
            | Ok a when a.Stats.count > 0 -> Some (a.Stats.count, base)
            | Ok _ -> None
            | Error e -> failwith (e ^ " in: " ^ base))
          (List.sort_uniq compare pool)
      in
      List.concat_map
        (fun base ->
          List.concat_map
            (fun form ->
              let text = with_form topo form base in
              expect text (ok_or text (eval_answer conn text));
              List.map (fun backend -> { text; family; form; backend }) spec.backends)
            spec.forms)
        (stratify ~n scored))
    families
  |> Array.of_list

(* Standing queries for the churn watcher: the snapshot bottom-up and
   VM-VM instances, whose answers VM migrations and link retirements
   change. *)
let watch_texts items =
  Array.to_list items
  |> List.filter (fun it ->
         it.form = Snap && (it.family = "bottom-up" || it.family = "vm-vm"))
  |> List.map (fun it -> it.text)

(* ---- the churn writer ---------------------------------------------- *)

(* Writes are due at fixed points of the read sequence (after every
   [reads_per_write]-th read); a snapshot or range read first waits
   until every due write has committed, so the store version behind it
   is exactly the number of writes due before it. AT reads pin the
   set-up clock, before any churn timestamp, so they never wait and run
   beside the writes. *)
type churn = {
  c_lock : Mutex.t;
  c_cond : Condition.t;
  c_topo : V.t;
  c_rng : Prng.t;
  c_base : Tp.t;
  c_every : int;
  mutable c_reads : int;
  mutable c_due : int;
  mutable c_done : int;
  mutable c_stop : bool;  (** the writer thread drains and exits *)
  mutable c_watch_stop : bool;  (** the watcher thread exits *)
  c_due_at : float Queue.t;
  mutable c_write_lat : float list;  (** due -> with_write returned *)
  mutable c_inside : float list;  (** time inside the write callback *)
  c_commits : (string, float) Hashtbl.t;  (** churn clock -> commit wall *)
  mutable c_lags : float list;  (** commit -> alert read by the watcher *)
  mutable c_log : (int * string * Stats.answer) list;
      (** version-dependent reads, newest first: (version, query, reply) *)
}

let churn_rng_seed seed = (seed * 104729) + 7

let new_churn topo ~seed ~every =
  match topo with
  | Legacy _ -> invalid_arg "churn needs the virtualized topology"
  | Virt t ->
      {
        c_lock = Mutex.create ();
        c_cond = Condition.create ();
        c_topo = t;
        c_rng = Prng.create (churn_rng_seed seed);
        c_base = Nepal.Graph_store.clock t.V.store;
        c_every = every;
        c_reads = 0;
        c_due = 0;
        c_done = 0;
        c_stop = false;
        c_watch_stop = false;
        c_due_at = Queue.create ();
        c_write_lat = [];
        c_inside = [];
        c_commits = Hashtbl.create 256;
        c_lags = [];
        c_log = [];
      }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Churn step [j]: one minute apart, strictly after the set-up clock.
   The replay check applies the same steps with the same rng. *)
let churn_at base j = Tp.add_seconds base (60. *. float_of_int (j + 1))

let churn_step ~rng ~base t j =
  V.churn_step ~rng ~at:(churn_at base j) ~scale_tag:(100_000 + j) t

(* Apply the next due write through [apply] (the server's write lock)
   and publish its commit. Called by the writer thread, or inline by
   the single-threaded replays. *)
let commit_next ch ~apply ~due_at =
  let j = ch.c_done in
  let inside = ref 0. in
  apply (fun () ->
      let t0 = now () in
      churn_step ~rng:ch.c_rng ~base:ch.c_base ch.c_topo j;
      inside := now () -. t0);
  let t_done = now () in
  locked ch.c_lock (fun () ->
      ch.c_write_lat <- (t_done -. due_at) :: ch.c_write_lat;
      ch.c_inside <- !inside :: ch.c_inside;
      Hashtbl.replace ch.c_commits (Tp.to_string (churn_at ch.c_base j)) t_done;
      ch.c_done <- j + 1;
      Condition.broadcast ch.c_cond)

let writer_loop ch ~apply =
  let rec next () =
    let job =
      locked ch.c_lock (fun () ->
          while ch.c_due = ch.c_done && not ch.c_stop do
            Condition.wait ch.c_cond ch.c_lock
          done;
          if ch.c_due = ch.c_done then None else Some (Queue.pop ch.c_due_at))
    in
    match job with
    | None -> ()
    | Some due_at ->
        commit_next ch ~apply ~due_at;
        next ()
  in
  next ()

let wait_writes ch =
  locked ch.c_lock (fun () ->
      while ch.c_done < ch.c_due do
        Condition.wait ch.c_cond ch.c_lock
      done;
      ch.c_done)

(* Count one read; every [c_every]-th read makes a write due. Returns
   true when it did. *)
let after_read ch =
  locked ch.c_lock (fun () ->
      ch.c_reads <- ch.c_reads + 1;
      if ch.c_reads mod ch.c_every = 0 then begin
        ch.c_due <- ch.c_due + 1;
        Queue.push (now ()) ch.c_due_at;
        Condition.broadcast ch.c_cond;
        true
      end
      else false)

let log_snapshot ch version text answer =
  locked ch.c_lock (fun () -> ch.c_log <- (version, text, answer) :: ch.c_log)

let watcher_loop ch client =
  while not (locked ch.c_lock (fun () -> ch.c_watch_stop)) do
    match Client.next_event ~timeout_s:0.05 client with
    | Some frame when Jsonp.string_field "event" frame = Some "alert" -> (
        let t = now () in
        match Jsonp.string_field "at" frame with
        | Some at ->
            locked ch.c_lock (fun () ->
                match Hashtbl.find_opt ch.c_commits at with
                | Some commit -> ch.c_lags <- (t -. commit) :: ch.c_lags
                | None -> ())
        | None -> ())
    | Some _ | None -> ()
  done

(* Single-threaded replay of the same seed: rebuild the topology,
   apply the writes in order and compare every logged read with a
   fresh in-process evaluation at its version. *)
let replay_check spec ~seed ~checker ch =
  match build_topology spec with
  | Legacy _ -> ()
  | Virt t ->
      let rng = Prng.create (churn_rng_seed seed) in
      let conn = Nepal.native_conn t.V.store in
      let applied = ref 0 in
      let memo = Hashtbl.create 256 in
      List.iter
        (fun (version, text, got) ->
          while !applied < version do
            churn_step ~rng ~base:ch.c_base t !applied;
            incr applied
          done;
          let want =
            match Hashtbl.find_opt memo (version, text) with
            | Some a -> a
            | None ->
                let a = eval_answer conn text in
                Hashtbl.replace memo (version, text) a;
                a
          in
          match want with
          | Ok w when w = got -> ()
          | Ok w ->
              Stats.record_failure checker
                (Printf.sprintf "churn version %d: count %d, replay %d in: %s"
                   version got.Stats.count w.Stats.count text)
          | Error e -> Stats.record_failure checker ("replay error " ^ e))
        (List.rev ch.c_log)

(* ---- set-up --------------------------------------------------------- *)

type env = {
  spec : spec;
  topo : topo;
  server : Server.t option;
  clients : Client.t array;
  watcher : Client.t option;
  conns : (backend * Nepal.Backend.conn) list;
      (** in-process connections ([virt-targets]) *)
  phases : (string * float) list;  (** set-up sub-phases, seconds *)
}

(* One query through the workload's entry point, as caller [i]:
   (path count, rendered text). *)
let call env i it =
  if is_wire env.spec then
    Result.map
      (fun r -> (r.Server.qr_count, r.Server.qr_text))
      (Client.query env.clients.(i) it.text)
  else in_process (List.assoc it.backend env.conns) it.text

let callers env = if is_wire env.spec then Array.length env.clients else 1

let run_threads n f =
  let threads = List.init n (fun i -> Thread.create f i) in
  List.iter Thread.join threads

(* From nothing to ready for the first measured query: topology,
   server, connections and standing watches (or the mirrors), then one
   warm-up pass over every distinct query, dealt round-robin to the
   callers and run concurrently. *)
let setup spec ~checker ~items =
  let t0 = now () in
  let topo = build_topology spec in
  let t1 = now () in
  let store = store_of topo in
  let env =
    if is_wire spec then begin
      let config = { Server.default_config with port = 0 } in
      let server = ok_or "server start" (Server.start ~config store) in
      let port = Server.port server in
      let connect () = ok_or "connect" (Client.connect ~port ()) in
      let clients = Array.init spec.clients (fun _ -> connect ()) in
      let watcher =
        if spec.reads_per_write > 0 then begin
          let w = connect () in
          List.iter (fun q -> ignore (ok_or "watch" (Client.watch w q))) (watch_texts items);
          Some w
        end
        else None
      in
      { spec; topo; server = Some server; clients; watcher; conns = []; phases = [] }
    end
    else
      let db = Nepal.of_store store in
      let conns =
        [
          (Relational, Nepal.relational_conn (ok_or "relational" (Nepal.to_relational db)));
          (Gremlin, Nepal.gremlin_conn (ok_or "gremlin" (Nepal.to_gremlin db)));
        ]
      in
      { spec; topo; server = None; clients = [||]; watcher = None; conns; phases = [] }
  in
  let t2 = now () in
  let n = callers env in
  run_threads n (fun i ->
      Array.iteri
        (fun k it ->
          if k mod n = i then ignore (Stats.verify checker it.text (answer (call env i it)) : bool))
        items);
  let t3 = now () in
  {
    env with
    phases =
      [
        ("total", t3 -. t0);
        ("topology", t1 -. t0);
        ((if is_wire spec then "server" else "mirror"), t2 -. t1);
        ("warmup", t3 -. t2);
      ];
  }

let teardown env =
  Array.iter Client.close env.clients;
  Option.iter Client.close env.watcher;
  Option.iter Server.stop env.server

(* ---- the measured phase ----------------------------------------------- *)

type sample = { s_item : int; s_lat : float }

(* One round: every caller runs one whole shuffled pass; the last to
   finish closes the round, so a round's mix is exact and its wall and
   CPU time belong to it alone. *)
type round = {
  r_dur : float;
  r_answered : int;
  r_cpu : float;  (** process user+sys seconds *)
  r_lats : float array;  (** correct answers' latencies, ascending *)
}

type measured = {
  rounds : round list;  (** oldest first *)
  samples : sample list;  (** correct answers only *)
  attempted : int;
  mix_ok : bool;  (** every caller ran whole passes, one per round *)
  words : float;
  minor_gcs : int;
  major_gcs : int;
  writes : int;
  roundtrips : int;  (** backend reads, all connections *)
  live_words : int;  (** live major heap after warm-up, before the phase *)
  steal_share : float;
  cpu_share : float;
}

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host steal from /proc/stat: (steal, total) jiffies of the "cpu"
   line; zeros where the file is missing. *)
let proc_stat () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
        let v = List.map float_of_string fields in
        let total = List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < 8) v) in
        let steal = match List.nth_opt v 7 with Some s -> s | None -> 0. in
        (steal, total)
    | _ -> (0., 0.)
  with Sys_error _ | End_of_file | Failure _ -> (0., 0.)

let shuffled rng n =
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  order

let under_write_lock env f =
  match env.server with
  | Some srv -> Server.with_write srv (fun _store -> f ())
  | None -> f ()

let commit_inline ch ~apply =
  let due_at = locked ch.c_lock (fun () -> Queue.pop ch.c_due_at) in
  commit_next ch ~apply ~due_at

(* Check one reply. A version-dependent churn read is logged with its
   store version for the replay check instead of being compared now. *)
let check_reply ~checker ~churn ~version text reply =
  match (churn, version) with
  | Some ch, Some v -> (
      match reply with
      | Ok a ->
          log_snapshot ch v text a;
          true
      | Error e ->
          Stats.record_failure checker (e ^ " in: " ^ text);
          false)
  | _ -> Stats.verify checker text reply

(* Snapshot and range answers depend on the store version (a range
   answer carries each path's maximal validity, which later writes
   close); AT answers at the set-up clock do not. *)
let snapshot_version churn it =
  match churn with
  | Some ch when it.form <> At -> Some (wait_writes ch)
  | _ -> None

let roundtrip_counters =
  List.map
    (fun b -> Metrics.counter (Printf.sprintf "backend.%s.roundtrips" (backend_name b)))
    [ Native; Relational; Gremlin ]

let total_roundtrips () =
  List.fold_left (fun acc c -> acc + Metrics.counter_value c) 0 roundtrip_counters

let run_measured env ~items ~checker ~churn ~seconds ~seed =
  let callers = callers env in
  let n = Array.length items in
  (* Latency covers the call only; the digest check comes after. *)
  let ask i k =
    let it = items.(k) in
    let version = snapshot_version churn it in
    let t0 = now () in
    let reply = call env i it in
    let lat = now () -. t0 in
    Option.iter (fun ch -> ignore (after_read ch : bool)) churn;
    if check_reply ~checker ~churn ~version it.text (answer reply) then Some lat else None
  in
  (* Live heap of the warmed system, before any measured write: the
     memory its caches and stores hold, independent of run length. *)
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let writes0 = match churn with Some ch -> ch.c_done | None -> 0 in
  let writer =
    Option.map
      (fun ch -> Thread.create (fun () -> writer_loop ch ~apply:(under_write_lock env)) ())
      churn
  in
  let steal0, jiffies0 = proc_stat () in
  let words0 = alloc_words () in
  let gc0 = Gc.quick_stat () and rt0 = total_roundtrips () in
  (* Per-caller state is written by its caller during a pass and read
     by the round closer while every caller waits at the barrier. *)
  let lats = Array.make callers [] and answered = Array.make callers 0 in
  let attempted = Array.make callers 0 and passes = Array.make callers 0 in
  let samples = Array.make callers [] in
  (* Enough rounds that at least 10 samples lie beyond the tail rank. *)
  let per_round = float_of_int (n * callers) *. float_of_int (100 - env.spec.tail_pct) /. 100. in
  let min_rounds = int_of_float (Float.ceil (11. /. per_round)) in
  let lock = Mutex.create () and cond = Condition.create () in
  let arrived = ref 0 and generation = ref 0 and stop = ref false in
  let t0 = now () and cpu0 = cpu_seconds () in
  let deadline = t0 +. seconds in
  let rounds = ref [] and r_t0 = ref t0 and r_cpu0 = ref cpu0 in
  let close_round () =
    let t = now () and c = cpu_seconds () in
    let r_lats = Array.of_list (List.concat (Array.to_list lats)) in
    Array.sort Float.compare r_lats;
    rounds :=
      {
        r_dur = t -. !r_t0;
        r_answered = Array.fold_left ( + ) 0 answered;
        r_cpu = c -. !r_cpu0;
        r_lats;
      }
      :: !rounds;
    Array.fill lats 0 callers [];
    Array.fill answered 0 callers 0;
    r_t0 := t;
    r_cpu0 := c;
    if t >= deadline && List.length !rounds >= min_rounds then stop := true
  in
  run_threads callers (fun i ->
      let rng = Prng.create ((seed * 7919) + 101 + (31 * i)) in
      let continue = ref true in
      while !continue do
        Array.iter
          (fun k ->
            attempted.(i) <- attempted.(i) + 1;
            match ask i k with
            | Some lat ->
                answered.(i) <- answered.(i) + 1;
                lats.(i) <- lat :: lats.(i);
                samples.(i) <- { s_item = k; s_lat = lat } :: samples.(i)
            | None -> ())
          (shuffled rng n);
        passes.(i) <- passes.(i) + 1;
        locked lock (fun () ->
            incr arrived;
            if !arrived = callers then begin
              close_round ();
              arrived := 0;
              incr generation;
              Condition.broadcast cond
            end
            else begin
              let g = !generation in
              while !generation = g do
                Condition.wait cond lock
              done
            end;
            continue := not !stop)
      done);
  (match (churn, writer) with
  | Some ch, Some th ->
      locked ch.c_lock (fun () ->
          ch.c_stop <- true;
          Condition.broadcast ch.c_cond);
      Thread.join th
  | _ -> ());
  let elapsed = now () -. t0 in
  let cpu_s = cpu_seconds () -. cpu0 and words = alloc_words () -. words0 in
  let gc1 = Gc.quick_stat () in
  let steal1, jiffies1 = proc_stat () in
  let nproc = Domain.recommended_domain_count () in
  let rounds = List.rev !rounds in
  {
    rounds;
    samples = List.concat (Array.to_list samples);
    attempted = Array.fold_left ( + ) 0 attempted;
    mix_ok =
      Array.for_all (fun p -> p = List.length rounds) passes
      && Array.for_all2 (fun a p -> a = p * n) attempted passes;
    words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    writes = (match churn with Some ch -> ch.c_done - writes0 | None -> 0);
    roundtrips = total_roundtrips () - rt0;
    live_words;
    steal_share =
      (if jiffies1 > jiffies0 then (steal1 -. steal0) /. (jiffies1 -. jiffies0) else 0.);
    cpu_share = cpu_s /. (elapsed *. float_of_int nproc);
  }

(* ---- the traced replay ---------------------------------------------- *)

(* Sums keyed by layer name; [n] counts replayed queries per key. *)
type acc = (string, float * int) Hashtbl.t

(* One traced layer call: [sp_trace] numbers the replayed query, whose
   root span is named "query"; layer spans are its children. *)
type span = {
  sp_trace : int;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_label : string;  (** family/form/backend, on the root span *)
}

let add (acc : acc) key v =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt acc key) in
  Hashtbl.replace acc key (s +. v, n + 1)

let mean (acc : acc) key =
  match Hashtbl.find_opt acc key with Some (s, n) when n > 0 -> s /. float_of_int n | _ -> 0.

(* Frame and decode a result exactly as a session and its client
   would; the decoded frame must carry the count and text. *)
let encode id ~count ~text = Nepal.Wire.query_result ~id:(Nepal.Event_log.Int id) ~count ~text ()

let decode frame =
  let j = ok_or "decode" (Jsonp.parse frame) in
  match (Jsonp.int_field "count" j, Jsonp.string_field "text" j) with
  | Some count, Some text -> (count, text)
  | _ -> failwith "decode: frame without count/text"

let untraced_query conn ~id text =
  let t0 = now () in
  let r = ok_or "query" (Nepal.query_on conn text) in
  let decoded = decode (encode id ~count:(Nepal.Engine.result_count r) ~text:(render r)) in
  (now () -. t0, decoded)

(* The same request, one layer at a time, with timestamps and
   allocation readings only at the call boundaries. [Engine.run]
   re-plans internally (a plan-cache hit after warm-up), so eval is
   run minus the separately timed plan. *)
let traced_query (acc : acc) spans conn ~id ~label text =
  let t0 = now () in
  let q = ok_or "parse" (Nepal.Query_parser.parse text) in
  let t1 = now () in
  ignore (Nepal.Analysis.analyze ~schema:(Nepal.Backend.conn_schema conn) q);
  let t2 = now () in
  let w2 = alloc_words () in
  ignore (ok_or "plan" (Nepal.Engine.plan ~conn q));
  let t3 = now () in
  let w3 = alloc_words () in
  let rt0 = Nepal.Backend.conn_roundtrips conn in
  let stats = Nepal.Eval_rpe.new_stats () in
  let r = ok_or "run" (Nepal.Engine.run ~conn ~analyze:`Off ~stats q) in
  let t4 = now () in
  let w4 = alloc_words () in
  let rt1 = Nepal.Backend.conn_roundtrips conn in
  let count = Nepal.Engine.result_count r in
  let text_out = render r in
  let t5 = now () in
  let frame = encode id ~count ~text:text_out in
  let t6 = now () in
  let decoded = decode frame in
  let t7 = now () in
  let plan = t3 -. t2 in
  let span sp_name sp_start sp_end =
    { sp_trace = id; sp_name; sp_start; sp_end; sp_label = "" }
  in
  spans :=
    List.rev_append
      [
        { (span "query" t0 t7) with sp_label = label }; span "parse" t0 t1;
        span "analysis" t1 t2; span "plan" t2 t3; span "run" t3 t4;
        span "render" t4 t5; span "encode" t5 t6; span "decode" t6 t7;
      ]
      !spans;
  List.iter
    (fun (k, v) -> add acc k v)
    [
      ("parse", t1 -. t0);
      ("analysis", t2 -. t1);
      ("plan", plan);
      ("eval", t4 -. t3 -. plan);
      ("render", t5 -. t4);
      ("encode", t6 -. t5);
      ("decode", t7 -. t6);
      ("traced", t7 -. t0);
      ("eval_words", w4 -. w3 -. (w3 -. w2));
      ("selects", float_of_int stats.Nepal.Eval_rpe.selects);
      ("extends", float_of_int stats.Nepal.Eval_rpe.extends);
      ("walk_tasks", float_of_int stats.Nepal.Eval_rpe.walk_tasks);
      ("parallel_walks", if stats.Nepal.Eval_rpe.domains_used > 1 then 1. else 0.);
      ("roundtrips", float_of_int (rt1 - rt0));
      ("paths", float_of_int count);
    ];
  decoded

(* Single-threaded in-process replay of the workload's own sequence:
   each query runs untraced (the facade entry a session uses) and
   traced, in alternating order per pass on one warm connection; churn
   writes land at the same fixed points as in the measured phase. *)
let replay env ~items ~checker ~churn ~seconds ~seed (acc : acc) spans =
  let native = lazy (Nepal.native_conn (store_of env.topo)) in
  let conn_of it =
    match it.backend with Native -> Lazy.force native | b -> List.assoc b env.conns
  in
  let rng = Prng.create ((seed * 7919) + 977) in
  let deadline = now () +. seconds in
  let pass = ref 0 in
  while !pass = 0 || now () < deadline do
    Array.iteri
      (fun i k ->
        let it = items.(k) in
        let conn = conn_of it in
        let version = snapshot_version churn it in
        let id = (!pass * 100_000) + i in
        let untraced () =
          match untraced_query conn ~id it.text with
          | dt, decoded ->
              add acc "untraced" dt;
              add acc ("untraced." ^ backend_name it.backend) dt;
              Ok decoded
          | exception Failure e -> Error e
        in
        let traced () =
          match traced_query acc spans conn ~id ~label:(label it) it.text with
          | a -> Ok a
          | exception Failure e -> Error e
        in
        let first, second = if !pass mod 2 = 0 then (untraced, traced) else (traced, untraced) in
        List.iter
          (fun run ->
            ignore (check_reply ~checker ~churn ~version it.text (answer (run ())) : bool))
          [ first; second ];
        match churn with
        | Some ch -> if after_read ch then commit_inline ch ~apply:(under_write_lock env)
        | None -> ())
      (shuffled rng (Array.length items));
    incr pass
  done;
  !pass

(* The traced run's spans as JSON lines, microseconds from the first. *)
let write_spans path spans =
  let spans = List.rev spans in
  let origin = match spans with s :: _ -> s.sp_start | [] -> 0. in
  let us t = (t -. origin) *. 1e6 in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"trace\": %d, \"span\": %S, \"parent\": %s, \"start_us\": %.1f, \"end_us\": %.1f%s}\n"
            s.sp_trace s.sp_name
            (if s.sp_name = "query" then "null" else "\"query\"")
            (us s.sp_start) (us s.sp_end)
            (if s.sp_label = "" then "" else Printf.sprintf ", \"label\": %S" s.sp_label))
        spans)

(* ---- registry deltas -------------------------------------------------- *)

let hist_names =
  [
    "server.query_seconds"; "executor.queue_seconds"; "outbox.dwell_seconds";
    "rwlock.read_wait_seconds"; "rwlock.write_wait_seconds"; "monitor.eval_seconds";
  ]

let counter_names =
  [
    "planner.cache_hit"; "planner.cache_miss"; "backend.pcache.hits";
    "backend.pcache.misses"; "backend.pcache.invalidations"; "store.cdc_published";
    "monitor.evaluations"; "monitor.skipped";
  ]

type registry = {
  hists : (string * Metrics.histogram_stats) list;
  counters : (string * int) list;
}

let registry () =
  {
    hists = List.map (fun n -> (n, Metrics.stats_of (Metrics.histogram n))) hist_names;
    counters =
      List.map (fun n -> (n, Metrics.counter_value (Metrics.counter n))) counter_names;
  }

let counter_delta ~before ~after name =
  List.assoc name after.counters - List.assoc name before.counters

(* (p50 seconds, observations) of one histogram between two readings. *)
let hist_delta ~before ~after name =
  let prev = List.assoc name before.hists and cur = List.assoc name after.hists in
  let n = cur.Metrics.count - prev.Metrics.count in
  match Metrics.quantiles_of_delta ~prev cur with
  | Some (p50, _, _) when n > 0 -> (p50, n)
  | _ -> (0., 0)
