(** The persistent on-disk verdict store behind the charon-serve LRU
    (docs/serving.md).

    A {!Common.Journal}, one solved verdict per line (Protocol's
    outcome encoding, bit-exact witnesses), replayed into memory on
    {!create} under the journal's replay rule — a crash mid-append
    loses at most the final fact.  Domain-safe. *)

type t

val create : path:string -> unit -> t
(** Replay [path] (created if absent) and open it for appending. *)

val find : t -> string -> (Common.Outcome.t * float) option
(** Lookup by verdict-cache key; the float is the original cold run's
    wall seconds.  Counts a store hit. *)

val record : t -> string -> Common.Outcome.t -> cold_wall:float -> unit
(** Append one fact (and flush).  A key already present is skipped —
    verdicts are deterministic facts, not updates.  Callers must only
    record *solved* outcomes (Verified / Refuted). *)

val close : t -> unit
(** Close the journal; idempotent.  [find] keeps working. *)

val path : t -> string

val loaded : t -> int
(** Distinct facts replayed from the journal at {!create}; when a key
    appears on several lines, the first one is kept. *)

type stats = { entries : int; loaded : int; appended : int; hits : int }

val stats : t -> stats
