(** Generic worklist dataflow over the assembled micro-op CFG.

    The framework underpins crisp-check v2: a {!Cfg} built once per
    program, a direction-polymorphic {!Solver} functor over a {!DOMAIN}
    (join semilattice with a transfer function and optional branch-edge
    refinement), and a small library of concrete domains — value ranges
    ({!Ranges}, an interval lattice with loop-aware widening), reaching
    definitions ({!Reaching}) and liveness ({!Live}) — plus the derived
    per-instruction memory footprint ({!Footprint}).

    Every abstract operation mirrors {!Trace.Executor} semantics exactly
    (native-int wrap-around, logical shift, [x/0 = 0]); qcheck properties
    in [test/test_dataflow.ml] assert that no computed fact is ever
    contradicted by an executor replay. *)

(** {1 Control-flow graph} *)

module Cfg : sig
  type t = {
    code : Program.decoded array;
    succ : int array array;  (** static successors inside [0, n) *)
    pred : int array array;
    reachable : bool array;  (** reachable from pc 0 *)
    order : int array;  (** reverse postorder over the reachable pcs *)
    exits : bool array;  (** pc has an edge that leaves the program *)
    back_edges : (int * int) list;  (** (source, header) DFS back edges *)
  }

  val build : Program.decoded array -> t

  val loop_headers : t -> bool array

  val loops : t -> (int * bool array) list
  (** Natural loop bodies, one per header (back edges sharing a header
      are merged), sorted by body size so the innermost loops come
      first. *)

  val innermost : t -> int -> (int * bool array) option
  (** Smallest natural loop whose body contains the given pc. *)
end

(** {1 The solver} *)

type direction =
  | Forward
  | Backward

(** A join-semilattice abstract domain.  [join] must be monotone and
    [widen ~prev x] (with [prev] ⊑ [x]) must reach a fixed point after
    finitely many applications.  [edge] refines the fact flowing along
    one CFG edge — returning [None] marks the edge statically
    infeasible; it is consulted in {!Forward} mode only. *)
module type DOMAIN = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t

  val widen : prev:t -> t -> t

  val transfer : pc:int -> Program.decoded -> t -> t

  val edge : pc:int -> Program.decoded -> succ:int -> t -> t option
end

type 'fact result = {
  before : 'fact array;
      (** Forward: fact on entry to pc.  Backward: fact at exit of pc. *)
  after : 'fact array;
      (** Forward: fact after pc executes.  Backward: fact on entry. *)
  iterations : int;  (** worklist pops until the fixpoint *)
}

module Solver (D : DOMAIN) : sig
  val solve :
    ?direction:direction ->
    ?widen_delay:int ->
    Cfg.t ->
    init:D.t ->
    entry:D.t ->
    D.t result
  (** Fixpoint by worklist seeded in (reverse) postorder.  [init] is the
      join identity every fact starts from; [entry] flows into pc 0
      (forward) or into every exiting pc (backward).  After a node's
      input fact has changed [widen_delay] times (default 4) further
      growth goes through [D.widen], guaranteeing termination on
      infinite-height lattices. *)
end

(** {1 Intervals} *)

module Interval : sig
  type t = private {
    lo : int;
    hi : int;  (** inclusive; [min_int]/[max_int] double as ∓∞ *)
  }

  val top : t

  val const : int -> t

  val make : int -> int -> t
  (** Clamps so [lo <= hi]. *)

  val is_const : t -> int option

  val mem : int -> t -> bool

  val equal : t -> t -> bool

  val join : t -> t -> t

  val meet : t -> t -> t option

  val widen : prev:t -> t -> t

  val bounded : t -> bool
  (** Neither bound is a ∓∞ sentinel. *)

  val width : t -> int option
  (** [hi - lo + 1] when {!bounded} and representable. *)

  val add : t -> t -> t

  val sub : t -> t -> t

  val mul : t -> t -> t

  val div : t -> t -> t
  (** Executor semantics: division by zero yields 0, so 0 joins the
      quotients whenever the divisor interval contains 0. *)

  val alu : Isa.alu_kind -> t -> t -> t

  val refine :
    Isa.cond -> taken:bool -> t -> t -> (t * t) option
  (** Constrain (lhs, rhs) by the branch outcome; [None] when the
      outcome is infeasible.  Singleton-exact: when both inputs are
      constants the result is [None] exactly when the executor would
      not take that edge. *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Concrete domains} *)

(** Per-register value ranges with branch-edge refinement; the forward
    entry fact comes from {!Ranges.entry_of}.  [Unreached] is the
    bottom element — it survives the fixpoint only on pcs no feasible
    path reaches. *)
module Ranges : sig
  type t =
    | Unreached
    | Env of Interval.t array

  include DOMAIN with type t := t

  val entry_of : (Isa.reg * int) list -> t
  (** Registers start at zero; the declared [reg_init] pairs start at
      their exact value. *)

  val entry_unknown : (Isa.reg * int) list -> t
  (** Like {!entry_of} but declared live-ins are ⊤ — the fact set valid
      for any input binding. *)

  val get : t -> int -> Interval.t option

  val addr_interval : t -> Program.decoded -> Interval.t option
  (** Effective-address interval of a memory op given the fact before
      it; [None] for non-memory ops or unreached facts. *)
end

(** Reaching definitions: per register, the set of pcs whose definition
    may reach this point; [-1] stands for the entry value. *)
module Reaching : sig
  module S : Set.S with type elt = int

  type t = S.t array

  include DOMAIN with type t := t

  val entry : unit -> t

  val init : unit -> t
end

(** Backward liveness over the 64-register file. *)
module Live : sig
  type t = bool array

  include DOMAIN with type t := t

  val init : unit -> t
end

(** {1 Memory footprint} *)

module Footprint : sig
  type t = Interval.t option array
  (** Per-pc effective-address interval; [None] on non-memory ops and
      on pcs no feasible path reaches. *)

  val compute : Cfg.t -> ranges:Ranges.t result -> t

  val may_overlap : Interval.t -> Interval.t -> bool
end
