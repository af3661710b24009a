(** Backward slice extraction from a dynamic trace (paper Section 3.3).

    Starting from each sampled dynamic instance of a delinquent load (or
    hard branch), the slicer walks the trace backward along data
    dependencies — through registers {e and through memory} — and stops
    expanding at a static pc already met in this instance (the
    recursive-dependency termination of Figure 3).  Slices of all sampled
    instances are merged, as the paper's tooling does.

    {b The walk}, exactly: an explicit LIFO stack starts with the root
    instance, whose pc is marked seen.  Popping node [i] expands it: its
    producers are met in the order [prod1], [prod2], then [prod_mem]
    (the last only with [follow_memory]); a producer whose pc is not yet
    seen in this instance is marked seen and pushed.  Every pc met
    becomes a slice member, and each pc is expanded at most once per
    instance.

    Under this rule {e which} dynamic instance of a pc gets expanded
    depends on the visit order: two instances of one pc can have
    different producers, and whichever is met first hides the other.
    Another order (e.g. recursive DFS, or youngest instance first) can
    give a different but equally valid slice.  The expanded nodes of each
    instance are recorded as its [witness], so consumers (the
    critical-path filter) and the checker work from the walk's result
    rather than repeating it. *)

type t = {
  root_pc : int;
  pcs : bool array;  (** static membership map, indexed by pc *)
  pc_list : int list;  (** members in increasing pc order, root included *)
  instances : int;  (** dynamic root instances analysed *)
  avg_dynamic_length : float;
      (** mean number of dynamic instructions per instance slice — the
          load slice size of Figure 4 *)
  edges : (int * int) list;
      (** static dependency edges producer -> consumer, sorted *)
  follow_memory : bool;  (** whether [prod_mem] edges were followed *)
  witnesses : int array array;
      (** per sampled instance, in trace order: the dynamic nodes the walk
          expanded, ascending, so the root instance comes last *)
}

val extract :
  ?max_instances:int ->
  ?follow_memory:bool ->
  Executor.t ->
  Deps.t ->
  root_pc:int ->
  t
(** [max_instances] dynamic roots are sampled evenly over the trace
    (default 32): of the root's [total] instances, all when
    [total <= max_instances], else the [k * total / max_instances]-th for
    [k = 0 .. max_instances - 1].  [follow_memory] (default [true])
    enables the dependency-through-memory edges that distinguish CRISP
    from IBDA; disable it for the ablation. *)

val witness : ?follow_memory:bool -> Executor.t -> Deps.t -> root_idx:int -> int array
(** The walk's witness for the single dynamic instance [root_idx]. *)

val size : t -> int
(** Number of static instructions in the merged slice. *)

val pp : Format.formatter -> t -> unit
