(** Deterministic, seeded fault injection.

    A {e fault plan} is a set of triggers, each arming one registered
    {e site} — a named point in the pipeline that calls {!hit} (control
    sites) or {!mangle} (data sites) every time execution passes it.
    Sites key their hit counters by [(site, ident)], where [ident]
    identifies the logical unit of work (a grid cell, a memo key); this
    is what makes injection deterministic under a multi-domain pool:
    the Nth hit of a given cell is the same event no matter which domain
    runs the cell or in what global order, so the same seed and plan
    produce the same faults at [--jobs 1], [2] or [8].

    Registered sites (see DESIGN.md "Resilience"):
    - ["pool.job"]       supervised-job thunk entry (hit)
    - ["runner.run"]     Runner.evaluate cache-miss computation (hit)
    - ["memo.lookup"]    Runner memo probe (hit)
    - ["memo.store"]     Runner memo fingerprint store (mangle)
    - ["journal.read"]   journal entry payload on load (mangle)
    - ["journal.write"]  journal entry payload on record (mangle)
    - ["farm.send"]      farm server response send (hit)
    - ["farm.connect"]   farm client connection attempt (hit)

    When no plan is armed every site is a single atomic load — the layer
    costs nothing in production runs. *)

type action =
  | Throw  (** raise {!Injected} at the site *)
  | Stall of float  (** sleep that many seconds at the site *)
  | Corrupt  (** flip bytes of the payload (data sites only; a no-op at
                 control sites) *)

type selector =
  | Any
  | Substring of string  (** fires only for idents containing the string *)
  | Bucket of { modulus : int; residue : int }
      (** fires only for idents whose hash bucket matches — a way for
          seeded random plans to pick a deterministic subset of cells
          without knowing their names *)

type count =
  | Nth of int  (** fire on exactly the nth hit (1-based) of that ident *)
  | From of int  (** fire on the nth hit and every one after *)

type trigger = {
  site : string;
  selector : selector;
  count : count;
  action : action;
}

type t

exception Injected of string
(** Raised by a [Throw] trigger; the payload is the site name. *)

val none : t
val make : trigger list -> t
val triggers : t -> trigger list

val standard_sites : string list

val random : seed:int -> ?stall:float -> unit -> t
(** A deterministic pseudo-random plan over the compute-path sites
    (the farm wire sites are excluded so seeded grid-chaos plans keep
    their historical meaning): one to three triggers with bucket
    selectors, derived entirely from [seed].  [stall] (default 0.5s)
    is the duration used for [Stall] actions. *)

val parse_spec : string -> (trigger, string) result
(** Parse a CLI trigger spec:
    [SITE:ACTION[@SUBSTRING][#N|+N]] where ACTION is [crash], [corrupt]
    or [stall=SECS]; [@S] selects idents containing [S]; [#N] fires on
    exactly the Nth hit and [+N] from the Nth hit onward (default [+1]).
    Examples: ["runner.run:crash+1@mcf"], ["journal.write:corrupt#1"],
    ["runner.run:stall=3@mcf#1"]. *)

val arm : t -> unit
(** Install the plan and reset all hit counters and the fired log. *)

val disarm : unit -> unit
(** Remove the plan.  Counters and the fired log are kept for
    inspection until the next {!arm}. *)

val armed : unit -> bool

val hit : ?ident:string -> string -> unit
(** Count a pass through a control site; raise or stall if a trigger
    matches.  [Corrupt] triggers are ignored at control sites. *)

val mangle : ?ident:string -> string -> string -> string
(** [mangle ~ident site payload] counts a pass through a data site and
    returns [payload], byte-flipped if a [Corrupt] trigger matches
    (deterministically — same input, same corruption).  [Throw]/[Stall]
    triggers behave as at control sites. *)

val hits : ?ident:string -> string -> int
(** Hit counter for [(site, ident)] since the last {!arm}. *)

val fired : unit -> (string * string * action) list
(** [(site, ident, action)] for every trigger firing since the last
    {!arm}, in firing order. *)

val action_to_string : action -> string
