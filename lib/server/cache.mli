(** The verdict cache behind charon-serve: an LRU hot set over an
    optional persistent {!Store} journal.

    Maps a structural digest of the verification question — network
    weights, input box, target class, δ — to a previously computed
    verdict, so a repeated identical request is answered without paying
    the cold verification.  An LRU miss falls through to the store
    (and promotes on hit), so verdicts survive both eviction and
    daemon restarts.  Domain-safe: [Common.Lru] holds one mutex over
    table and recency list, the store its own.  Hit/miss/eviction
    counts are mirrored into the telemetry counters
    [serve.cache.hits] / [.misses] / [.evictions]; a hit from either
    layer counts as a hit. *)

type t

val create : ?capacity:int -> ?store:Store.t -> unit -> t
(** [capacity] (default 256) is the maximum number of hot entries; the
    least-recently-used entry is evicted on overflow (and remains
    findable in [store], if given).
    @raise Invalid_argument when [capacity < 1]. *)

val key :
  network:string -> box:Domains.Box.t -> target:int -> delta:float -> string
(** Structural cache key.  [network] is the [Nn.Serial] text (floats
    rendered with [%.17g], so weight bits round-trip); the box is
    rendered via [Common.Regionspec.to_box_string] at the same
    precision.  Equal keys imply the same verification question. *)

val get : t -> string -> (Common.Outcome.t * float) option
(** Lookup, refreshing recency — LRU first, then the store.  The float
    is the wall-clock seconds the original cold run took — served back
    to clients as evidence of the saved work. *)

val put : t -> string -> Common.Outcome.t -> cold_wall:float -> unit
(** Insert into the LRU and append to the store.  Callers should only
    store *solved* verdicts ([Verified] / [Refuted]): timeouts and
    unknowns depend on the budget and depth limit of the particular
    run, not the question. *)

val hit_rate : t -> float
(** Hits over total lookups, in [0, 1].  [0.0] before the first
    lookup (never nan — the cold-start division is guarded). *)

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
