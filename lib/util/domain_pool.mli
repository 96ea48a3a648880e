(** A tiny fork-join pool over OCaml 5 domains, and a persistent
    executor over the same domains.

    The pool's occupancy is exported as the registry gauges
    [domain_pool.size] (the configured parallelism) and
    [domain_pool.busy] (workers, calling threads included, currently
    running a task). *)

val default_domains : unit -> int
(** [NEPAL_DOMAINS] when set (at least 1), otherwise the recommended
    domain count capped at 4. *)

val run : ?domains:int -> (unit -> 'a) list -> 'a list
(** Run every thunk using up to [domains] (default
    {!default_domains}) domains, counting the calling one. Work is
    pulled from a shared counter; results come back in input order
    whatever the domain count. Domains are spawned per batch. An
    exception raised by a thunk is re-raised in the caller, with its
    backtrace, after every worker has joined. *)

(** Long-lived worker domains consuming tasks from a locked queue: the
    server submits one coarse task (execute this query) per session at
    a time, so CPU-bound work from many sessions spreads across cores.
    A task may itself call {!run}. The dwell from submission to pickup
    is recorded in the [executor.queue_seconds] histogram. *)
module Executor : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn [domains] (default {!default_domains}) worker domains. *)

  val size : t -> int
  (** The number of worker domains. *)

  val queue_depth : t -> int
  (** Tasks submitted and not yet picked up. *)

  val run : t -> (unit -> 'a) -> ('a, exn) result
  (** Run the thunk on a worker domain and wait for its outcome. After
      {!shutdown} it runs inline in the caller instead. *)

  val shutdown : t -> unit
  (** Stop accepting tasks, let the workers drain and join them. *)
end
