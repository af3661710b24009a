(** Critical-path filtering of instruction slices (paper Section 3.5).

    A full load slice can exceed the reservation station, leaving the
    scheduler nothing to deprioritise, so CRISP promotes only the
    instructions on (or near) the critical path.  Each dynamic slice
    instance is a DAG rooted at the delinquent load; every node is weighted
    by its execution latency (loads by their AMAT estimate), the aggregated
    path latency through each node is computed, and only nodes whose best
    path reaches at least [theta] of the instance's longest path are kept.
    The kept static pcs of all instances are unioned.

    The instance DAGs are the {!Slicer.t} witnesses: this module folds
    over the slicer's walk instead of repeating it. *)

val filter :
  ?max_instances:int ->
  ?follow_memory:bool ->
  ?theta:float ->
  Executor.t ->
  Deps.t ->
  root_pc:int ->
  latency_of:(int -> int) ->
  bool array
(** [filter trace deps ~root_pc ~latency_of] returns a static membership
    map (indexed by pc) of the critical-path-filtered slice.  [latency_of]
    maps a {e dynamic} instruction index to its latency weight.  [theta]
    defaults to 0.6; the root is always kept.  Equivalent to
    {!filter_slice} on [Slicer.extract ?max_instances ?follow_memory]. *)

val filter_slice :
  ?theta:float ->
  Executor.t ->
  Deps.t ->
  Slicer.t ->
  latency_of:(int -> int) ->
  bool array
(** [filter] on an already extracted slice, reusing its witnesses. *)

val longest_path :
  ?follow_memory:bool ->
  Executor.t ->
  Deps.t ->
  root_idx:int ->
  latency_of:(int -> int) ->
  int
(** Longest latency-weighted dependency path ending at the given dynamic
    root — exposed for tests and diagnostics. *)
