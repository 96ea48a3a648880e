(* Policy tables for the concurrency linter: which resolved call paths
   are lock gates, blocking primitives, or store mutations; which
   modules implement the locking primitives themselves (and so are
   exempt from LNT003 — Mutex.lock and Condition.wait are their
   trade); which modules are covered by the shared-state rule; the
   explicit LNT003 allowlist for interactive CLI paths and tools/
   binaries; and the frozen-grandfather list.

   Freeze discipline: an entry names (code, module, function) plus a
   rationale and suppresses matching diagnostics. The list is FROZEN —
   new code fixes its violations instead of adding entries — and it is
   self-cleaning: under [--gate] an entry that matches nothing is
   itself an error, so stale entries cannot linger after the code they
   excused is fixed. *)

(* -- call-path classification ----------------------------------------- *)

(* Matched against the *suffix* of an alias-expanded call path, so
   [Rwlock.read], [Nepal_util.Rwlock.read] and a [module R = Rwlock]
   alias all classify identically. *)

type gate =
  | G_read  (* Rwlock.read closure: shared store lock held inside *)
  | G_write (* Rwlock.write / with_write closure: exclusive lock held *)
  | G_mutex (* with_lock / locked / with_state closure: a Mutex held *)
  | G_task  (* Executor.run closure: runs on a worker domain, but the
               caller blocks until it finishes — locks the caller holds
               stay held for deadlock purposes *)
  | G_async (* Thread.create / Domain.spawn / Executor.submit closure:
               runs later on another thread; the spawner's locks are
               NOT held inside *)

let gate_of_path path =
  match List.rev path with
  | "read" :: "Rwlock" :: _ -> Some G_read
  | "write" :: "Rwlock" :: _ -> Some G_write
  | "with_write" :: _ -> Some G_write
  | "with_lock" :: _ | "locked" :: _ | "with_state" :: _ -> Some G_mutex
  | "run" :: "Executor" :: _ -> Some G_task
  | "submit" :: "Executor" :: _ -> Some G_async
  | "create" :: "Thread" :: _ | "spawn" :: "Domain" :: _ -> Some G_async
  | _ -> None

(* Acquisition primitives for LNT002: entering one of these while the
   Rwlock is already held on the same thread deadlocks under writer
   preference (a waiting writer blocks the new reader; the writer in
   turn waits for the held read section to exit). *)
let rwlock_acquire_path path =
  match List.rev path with
  | "read" :: "Rwlock" :: _ | "write" :: "Rwlock" :: _ -> true
  | "with_write" :: _ -> true
  | _ -> false

(* Blocking primitives for LNT003: calls that can park the calling
   thread for an unbounded time (socket I/O, sleeps, joins, lock
   acquisition, condition waits, and Executor.run, which blocks the
   caller until a worker domain has run the task). *)
let blocking_path path =
  match List.rev path with
  | ("sleep" | "sleepf" | "read" | "write" | "single_write" | "connect"
    | "accept" | "select" | "recv" | "send")
    :: "Unix" :: _ ->
      true
  | ("delay" | "join") :: "Thread" :: _ -> true
  | "join" :: "Domain" :: _ -> true
  | "lock" :: "Mutex" :: _ -> true
  | "wait" :: "Condition" :: _ -> true
  | "run" :: "Executor" :: _ -> true
  | _ -> false

(* Graph_store mutation primitives for LNT001: reaching one of these
   without passing through Server.with_write / Rwlock.write means a
   store mutation can race concurrent readers. *)
let store_mutation_path path =
  match List.rev path with
  | ("insert_node" | "insert_edge" | "update" | "delete" | "create_index")
    :: "Graph_store" :: _ ->
      true
  | _ -> false

(* Callees treated as non-blocking despite taking internal mutexes, and
   through which may-block does NOT propagate. Every entry carries its
   justification; matched as a path suffix ([module] or
   [module; func]). *)
let non_blocking_overrides =
  [
    ([ "Metrics" ], "bounded critical sections, no condition waits");
    ([ "Env" ], "bounded critical sections, no condition waits");
    ([ "Event_log" ], "bounded critical sections; sink writes are local file I/O");
    ([ "Prng" ], "pure state update");
    ([ "Graph_store" ], "CDC ring drops at capacity instead of blocking");
    ( [ "Domain_pool"; "run" ],
      "fork-join over CPU-bound walk tasks; joins bounded compute, not \
       external events" );
  ]

let is_non_blocking_override path =
  let rev = List.rev path in
  List.exists
    (fun (entry, _) ->
      match entry with
      | [ m ] -> List.mem m path (* any call into that module *)
      | _ ->
          let rs = List.rev entry in
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: a', y :: b' -> x = y && is_prefix a' b'
            | _ -> false
          in
          is_prefix rs rev)
    non_blocking_overrides

(* -- scopes ------------------------------------------------------------ *)

(* LNT001 is scoped to the server stack: the directories whose code
   runs concurrently against the shared store and must route mutations
   through the write lock. Loaders and the CLI mutate stores they
   privately own before publishing them. *)
let lnt001_dirs = [ "lib/server/"; "lib/monitor/" ]

(* Modules whose values are shared across threads/domains: every
   [mutable] record field and top-level [ref] in them must be
   [Atomic.t] or carry a [@guarded_by "..."] annotation naming the
   lock (or single-owner discipline) that protects it. Modules that
   spawn threads/domains are included automatically; this list adds
   the ones that are shared without spawning anything themselves. *)
let shared_state_modules =
  [
    "Server"; "Outbox"; "Client"; "Http_metrics"; "Monitor"; "Rwlock";
    "Domain_pool"; "Metrics"; "Env"; "Event_log"; "Graph_store";
  ]

(* Modules that implement the locking/queueing primitives: direct
   Mutex.lock / Condition.wait is their job, so LNT003 does not apply
   inside them — it applies to their callers. *)
let lock_impl_modules =
  [
    "Rwlock"; "Outbox"; "Domain_pool"; "Metrics"; "Env"; "Event_log";
  ]

(* The polymorphic-comparison rules keep their original scope: the hot
   query layers, where a sneaky structural compare on paths or values
   is both a correctness and a performance bug. *)
let poly_compare_dirs = [ "lib/engine/"; "lib/query/"; "lib/rpe/" ]

(* -- LNT003 allowlist -------------------------------------------------- *)

(* Interactive CLI paths and tools/ binaries block on purpose —
   [events tail --follow], [watch] and [top] sleep between polls. They are
   excluded from LNT003 by explicit module-level entries rather than by
   skipping their files, so any future lib/ code moved into these
   directories stays covered unless it is deliberately listed here. *)
let lnt003_allowlist =
  [
    ( "Nepal_cli",
      "interactive CLI: events/watch/top polling loops sleep by design; \
       no shared lock is held across them" );
    ("Style_check", "build-time tool, single-threaded file walker");
    ("Concur_lint", "build-time tool, single-threaded analyzer");
  ]

let lnt003_allowed modname = List.mem_assoc modname lnt003_allowlist

(* -- frozen grandfather list ------------------------------------------- *)

type freeze = {
  fz_code : string;
  fz_module : string;        (* file module name, e.g. "Server" *)
  fz_func : string option;   (* None = anywhere in the module *)
  fz_reason : string;
}

(* FROZEN. Do not add entries for new code — fix the violation. Each
   entry documents why the pre-existing site is deliberate. *)
let frozen =
  [
    (* LNT003: the query path evaluates under the read lock *inside*
       executor tasks by design — that is what spreads per-session
       evaluation across worker domains while the store stays
       mutation-consistent. The block is bounded by writer hold times,
       which E14 keeps under observation via rwlock.*_wait_seconds. *)
    {
      fz_code = "LNT003";
      fz_module = "Server";
      fz_func = Some "handle_query";
      fz_reason =
        "executor tasks acquire the store read lock by design; bounded by \
         writer hold times (rwlock.write_wait histograms)";
    };
    (* LNT003: the documented lock hierarchy is mon_lock before rw —
       both sites below take them in that order and nothing takes them
       in the other, so the nested acquisition cannot deadlock. *)
    {
      fz_code = "LNT003";
      fz_module = "Server";
      fz_func = Some "handle_watch";
      fz_reason =
        "lock hierarchy mon_lock \xe2\x89\xba rw, acquired in order everywhere \
         (DESIGN.md \xc2\xa714)";
    };
    {
      fz_code = "LNT003";
      fz_module = "Server";
      fz_func = Some "pump_loop";
      fz_reason =
        "lock hierarchy mon_lock \xe2\x89\xba rw, acquired in order everywhere \
         (DESIGN.md \xc2\xa714)";
    };
    (* LNT003: the client's serialization lock IS the request pipeline:
       one outstanding exchange per connection, blocking on the socket
       under it is the documented contract. *)
    {
      fz_code = "LNT003";
      fz_module = "Client";
      fz_func = None;
      fz_reason =
        "per-connection serialization lock: blocking socket I/O under it is \
         the one-outstanding-request contract";
    };
    (* LNT011 (migrated from tools/style_check.ml, list frozen there
       since PR 4): pre-rule polymorphic [compare] on float sort keys. *)
    {
      fz_code = "LNT011";
      fz_module = "Trace";
      fz_func = None;
      fz_reason = "pre-rule polymorphic compare on float sort keys";
    };
    {
      fz_code = "LNT011";
      fz_module = "Stat_statements";
      fz_func = None;
      fz_reason = "pre-rule polymorphic compare on float sort keys";
    };
    (* LNT013 (migrated): pre-rule List.nth call sites over short,
       bounded lists. *)
    {
      fz_code = "LNT013";
      fz_module = "Schema";
      fz_func = None;
      fz_reason = "pre-rule List.nth over short bounded lists";
    };
    {
      fz_code = "LNT013";
      fz_module = "Prng";
      fz_func = None;
      fz_reason = "pre-rule List.nth over short bounded lists";
    };
    {
      fz_code = "LNT013";
      fz_module = "Path";
      fz_func = None;
      fz_reason = "pre-rule List.nth over short bounded lists";
    };
    {
      fz_code = "LNT013";
      fz_module = "Gremlin_backend";
      fz_func = None;
      fz_reason = "pre-rule List.nth over short bounded lists";
    };
    {
      fz_code = "LNT013";
      fz_module = "Virt_service";
      fz_func = None;
      fz_reason = "pre-rule List.nth over short bounded lists";
    };
  ]
