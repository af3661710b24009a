(** The journalled cell store: the one place a figure cell is restored
    from the journal, run under supervision and checkpointed.  Both the
    figure grids ([Experiments]) and the farm daemon ([Farm_server]) go
    through it.

    A cell is a keyed thunk returning a [float array] of a fixed width.
    {!acquire} serves a key from, in order:
    - the in-process memo (a live or completed entry: [Memo_hit]);
    - the journal, when one is installed ([Journal_hit], logged
      [Restored]);
    - a fresh {!Supervise.spawn} on the pool ([Computed]).

    {2 Journal payload}

    A value is journalled as its elements in ["%h"] hexfloat, joined by
    commas, so a 1-element payload is byte-identical to the farm's
    original cell payload.  A NaN whose bits ["%h"] would not reproduce
    is written as [nan:BITS] (the IEEE bits in hex), so every value
    round-trips bit-for-bit.  A validated journal line whose payload does
    not parse to exactly [width] floats came from a foreign writer: it is
    logged [Quarantined] and the cell recomputed, never trusted.

    {2 Settling}

    Handles are multi-awaiter: any number of threads may {!await} one
    handle.  Exactly one of them is elected to drive
    {!Supervise.join} (which is single-consumer); the others block on a
    condition variable and receive the identical result.  The elected
    thread settles the cell once, before any awaiter sees it:
    - success: checkpoint the value; a failed write (injected or real)
      is logged [Quarantined] and only the checkpoint is lost;
    - failure: evict the memo entry, so the next {!acquire} recomputes,
      and log [Degraded] once.  A failed cell is never journalled.

    On a sequential pool the thunk runs inline at spawn, so a [Computed]
    cell is settled (and checkpointed) inside {!acquire}: a process
    killed mid-grid keeps every cell it finished. *)

type source =
  | Computed  (** spawned by this acquire *)
  | Memo_hit  (** a live or completed in-process entry *)
  | Journal_hit  (** restored from the journal *)

type t

type handle

val create :
  ?journal:Journal.t -> width:int -> Exec.Pool.t -> Supervise.policy -> t
(** A store with an empty memo.  [width] is the length of every cell's
    value; journal payloads of any other length are quarantined. *)

val acquire : t -> key:string -> (unit -> float array) -> source * handle
(** The handle for [key], running [thunk] only when neither the memo
    nor the journal has it.  Concurrent acquires of one key share one
    handle and run the thunk at most once.  [key] is also the
    supervision ident and the journal key. *)

val await : handle -> (float array, string) result
(** Block until the cell settles; safe from any number of threads, all
    of which see the same result.  [Error] carries the
    {!Supervise.error_to_string} rendering of the failure. *)

val memo_stats : t -> Exec.Memo.stats

val journal_size : t -> int
(** Validated entries in the journal; 0 without one. *)
