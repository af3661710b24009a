(** Fixed pool of OCaml 5 domains draining one FIFO job queue.

    The figure grids are flat: every cell is an independent job submitted
    from outside the pool (the main domain, or a farm client thread), so
    a single queue under a mutex, with a condition variable for idle
    workers, is all the scheduling they need.  Jobs start in submission
    order, which the long-pole-first grid ordering relies on.

    A job must not submit to its own pool: with every worker blocked in
    {!Future.await} on jobs queued behind it, a FIFO pool deadlocks.
    {!submit} therefore rejects calls made from the pool's own workers. *)

type t

exception Shut_down
(** Raised by {!Future.await} on the future of a job that never started
    because the pool was shut down with [~drain:false]. *)

val sequential : t
(** The [--jobs 1] escape hatch: no domains, no queue — {!submit} runs
    the thunk inline on the calling domain and returns a resolved future,
    giving exactly the sequential execution order. *)

val create : ?workers:int -> unit -> t
(** Spawn [workers] worker domains (default
    [Domain.recommended_domain_count ()]).  [workers <= 0] returns
    {!sequential}. *)

val parallelism : t -> int
(** Number of worker domains; 1 for {!sequential}. *)

type stats = {
  workers : int;  (** worker domains ({!parallelism}) *)
  queued : int;  (** jobs submitted but not yet started *)
  running : int;  (** jobs currently executing a thunk *)
}

val stats : t -> stats
(** A snapshot of pool load, read under the queue mutex, so [queued] is
    exact at the instant of the call.  {!sequential} reports zero
    gauges. *)

val submit : t -> (unit -> 'a) -> 'a Future.t
(** Queue a job; {!Future.await} its result.  An exception raised by the
    thunk resolves the future with the failure and re-raises at await.
    @raise Invalid_argument after {!shutdown}, or when called from one of
    this pool's own workers. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop and join every worker domain.  With [~drain:true] (the default)
    queued jobs run to completion first; with [~drain:false] jobs that
    have not started are discarded and their futures fail with
    {!Shut_down}, so an await on a never-started job raises cleanly
    instead of deadlocking.  Idempotent, and safe to call from several
    domains at once: exactly one caller performs the join, the others
    block until it completes.  Submitting after shutdown raises
    [Invalid_argument]. *)
