(** Shared-memory parallelism for the compilation hot paths.

    A small task-pool interface with two build-time backends selected by
    the dune rules in this directory:

    - on OCaml 5 ([backend = "domains"]) a pool of persistent worker
      domains executes [parallel_for]/[map] bodies concurrently;
    - on OCaml 4.x ([backend = "seq"]) the same interface runs every
      body inline on the calling thread, so the library still builds and
      behaves identically — just without the wall-clock win.

    {2 Width}

    A pool has one number, its width: how many domains run bodies (the
    [~domains] argument, [gdpc --par-domains N]; always 1 on the seq
    backend).  Callers never branch on it, and bodies are written so
    their results do not depend on it — the width changes the wall
    clock, never an answer.

    {2 Determinism and error contract}

    [map pool ~n f] returns [[| f 0; ...; f (n-1) |]]: results land by
    index, so scheduling order cannot reorder them.  Bodies must not
    touch shared mutable state except through [Lock] (or disjoint array
    slots).  If bodies raise, every index still runs and the exception
    of the {e lowest} index is re-raised — deterministic whatever the
    interleaving.

    Nested calls are safe: a [parallel_for] issued from inside a pool
    body (or on a pool another domain owns) runs inline.  Pools are
    scoped by [with_pool] and torn down before it returns.  Beware that
    on OCaml 5 a process that has {e ever} spawned a domain may never
    call [Unix.fork] again — even after every domain is joined — so any
    [Exec] process pool must be created (forked) before the first
    [with_pool] whose width exceeds 1. *)

type pool

(** ["domains"] or ["seq"]. *)
val backend : string

(** [with_pool ~domains f] runs [f] with a pool of [domains] domains
    (clamped to at least 1): the caller plus [domains - 1] workers.
    Width 1 spawns nothing and runs everything inline.  Worker domains
    are joined before [with_pool] returns, also on exception.  A width
    above the core count is allowed; it only costs wall clock. *)
val with_pool : domains:int -> (pool -> 'a) -> 'a

(** Execution width (worker domains + the caller), >= 1. *)
val size : pool -> int

(** [parallel_for pool ~n body] runs [body i] for [0 <= i < n], work
    shared over the pool's domains.  See the error contract above. *)
val parallel_for : pool -> n:int -> (int -> unit) -> unit

(** [map pool ~n f] is [Array.init n f] with the bodies run in
    parallel; results are positioned by index. *)
val map : pool -> n:int -> (int -> 'a) -> 'a array

(** [true] iff the calling domain is the one the program started on
    (always [true] on the seq backend).  Telemetry uses this to keep
    span recording on the main domain. *)
val is_main_domain : unit -> bool

(** Mutual exclusion that compiles away on the seq backend: a real
    [Mutex.t] under domains, a no-op on OCaml 4.x where no second
    domain can exist.  Not reentrant. *)
module Lock : sig
  type t

  val create : unit -> t
  val with_lock : t -> (unit -> 'a) -> 'a
end
