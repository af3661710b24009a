(** Independent verification of slice extraction and criticality tagging.

    {!Slicer.extract} and {!Tagger.build} sit between the profiler and
    every CRISP result; a bug in either silently corrupts all figures.
    This pass re-derives their outputs from first principles and diffs:

    {b Slice closure} ({!verify_slice}): check the walk's witnesses
    against an order-free statement of the paper's Section 3.3 rule, using
    only {!Deps.t}.  The witness roots are exactly the evenly sampled root
    instances; each witness is ascending, ends at its root and has at most
    one node per pc; every other node directly produces a node of the same
    witness; every producer of every node has its pc in the witness (no
    unexpanded ancestor); and the members are exactly the root pc plus the
    witness pcs.  Any visit order of the walk passes, so the check does
    not depend on the slicer's LIFO order.  Structural invariants on the
    slice value itself: the root is a member, [pc_list] is the sorted
    enumeration of [pcs], every recorded edge joins two members and
    corresponds to a dependency that actually occurs in the trace, and
    every member reaches the root through the edge list.

    {b Tag budget} ({!verify_tagging}): replay the ratio-guardrail
    admission of paper Section 3.2 over the tagger's slice list —
    recomputing the dynamic ratio from the profiler report at every step —
    and require the recorded dropped flags, the final tag map, the static
    count and the dynamic ratio to all match; additionally every tagged pc
    must belong to some slice (tags never leak outside slice members). *)

type violation = {
  pc : int;  (** offending pc, [-1] when not pc-specific *)
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val verify_slice :
  ?max_instances:int ->
  ?follow_memory:bool ->
  Executor.t ->
  Deps.t ->
  Slicer.t ->
  violation list
(** Pass the same [max_instances] / [follow_memory] the slice was
    extracted with (defaults mirror {!Slicer.extract}).  Empty list =
    verified. *)

val verify_tagging :
  options:Tagger.options -> Profiler.report -> Tagger.t -> violation list
(** Verify a {!Tagger.t} built with [options] against the report it was
    derived from. *)
