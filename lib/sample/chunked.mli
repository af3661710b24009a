(** Time-parallel simulation: checkpointed chunk parallelism.

    One long trace is split into [chunks] contiguous instruction ranges.
    A sequential functional-warming pass captures a microarchitectural
    checkpoint ({!Cpu_core.warm_checkpoint}) just before each chunk
    boundary; every chunk then restores a private copy, runs [warmup]
    instructions of detailed cold-start warmup and measures exactly its
    own range, all concurrently on an [Exec.Pool].  Per-chunk statistics
    are stitched by summation in chunk index order. *)

type result = {
  chunks : int;  (** chunk count actually used (clamped to the trace) *)
  warmup : int;
  stats : Cpu_stats.t;
      (** stitched statistics; [retired] always sums to the full trace
          length — measured ranges partition the trace exactly *)
  per_chunk : Cpu_stats.t array;
}

val chunk_key : chunk:int -> start:int -> string
(** Journal key under which chunk [chunk]'s checkpoint (captured at
    dynamic index [start]) is recorded. *)

val run :
  ?criticality:Cpu_core.criticality ->
  ?layout:Layout.t ->
  ?pool:Exec.Pool.t ->
  ?journal:Resil.Journal.t ->
  chunks:int ->
  warmup:int ->
  Cpu_config.t ->
  Executor.t ->
  result
(** Deterministic in the pool: chunk results depend only on the trace,
    the config and the (deterministic) checkpoints, and stitch-up order
    is by chunk index — so [--jobs 1], [2] and [8] produce identical
    stitched statistics.  With [journal] supplied, checkpoints are
    recorded under {!chunk_key} and reused on replay (the caller's
    journal signature must pin down the config and trace identity).
    The chunks are submitted to [pool] and awaited, so [run] must not be
    called from a job of that same pool.
    @raise Invalid_argument if [chunks <= 0] or [warmup < 0]. *)
