(** The subregion proof cache.

    Remembers, across runs and across queries, every sub-box the
    decision procedure has *proved*: an entry means "the property
    (network, target, δ) holds on this exact region", which is
    independent of the budget, depth limit, policy and RNG of the run
    that proved it — so replaying it later is sound.  Refutations,
    timeouts and unknowns are run-relative and are never stored.

    Keys digest the network weights, target class, δ and the bit-exact
    region bounds ([Domains.Partition.key_of_box]); a changed network
    changes the digest, so stale proofs are invalidated structurally
    rather than by flushing.  [Verify.run] consults the cache before
    each abstract-interpretation call and records proved subregions
    (including internal split nodes once both halves are proved), and
    snaps its split cuts onto the canonical partition whenever a cache
    is attached so overlapping queries reach bit-identical subregions.

    Domain-safe; shareable between all scheduler workers.  Lookup/hit
    tallies are mirrored into the telemetry counters
    [proofcache.lookups] / [.hits] / [.records] / [.evictions]. *)

type t

val create : ?capacity:int -> ?persist:string -> unit -> t
(** [capacity] (default 65536) bounds the in-memory LRU.  [persist]
    names a {!Common.Journal} (one [{"v":1,"proved":"<hex>"}] per
    line): existing facts are replayed into the LRU on create, under
    the journal's replay rule, and new facts are appended and flushed
    as they are recorded.
    @raise Invalid_argument when [capacity < 1]. *)

val net_digest : Nn.Network.t -> string
(** Hex of {!Nn.Serial.digest}: the network's structure and the IEEE
    bits of its weights, so two networks share it exactly when both
    are equal.  Compute once per run and pass to [key]. *)

val key :
  net_digest:string ->
  target:int ->
  delta:float ->
  region:Domains.Box.t ->
  string
(** The cache key for one subregion proof fact. *)

val lookup : t -> string -> bool
(** [true] exactly when the fact is cached (a prior run proved this
    region for this network/target/δ).  Refreshes LRU recency and
    counts a lookup, plus a hit when found. *)

val record : t -> string -> unit
(** Insert a proved fact, appending it to the journal (if any) unless
    it was already present. *)

val loaded : t -> int
(** Distinct facts replayed from the journal at [create] time: a fact
    on several lines counts once, and lines that are torn, do not
    decode or do not carry ["v":1] count not at all. *)

val close : t -> unit
(** Close the journal channel (facts already flushed survive).  The
    cache remains usable in memory; further records are not journaled. *)

type stats = {
  entries : int;
  capacity : int;
  lookups : int;
  hits : int;
  evictions : int;
}

val stats : t -> stats
(** Lifetime tallies from the underlying LRU ([lookups = hits +
    misses]); readable from any domain without blocking writers. *)
