(* The subregion proof cache.

   Algorithm 1 re-proves the same sub-boxes over and over across
   overlapping queries; this cache remembers them.  An entry is a
   *proof fact*: "the property (network, target class, delta) holds on
   this exact region".  Only [Verified] is ever stored — a proof is
   independent of the budget, depth limit, policy and RNG that happened
   to produce it, so replaying it later (or for a different query that
   reaches the same subregion) is sound.  Refutations, timeouts and
   unknowns are all run-relative and are never cached here.

   The key digests the network (Nn.Serial.digest: its structure and
   the IEEE bits of its weights, no float rendered as text), the
   target class, delta, and the bit-exact region bounds from
   Domains.Partition.key_of_box.  A changed network changes the digest
   and silently invalidates every entry — no epochs or flush calls.
   Cross-query hits come from Verify splitting on canonical partition
   cuts whenever a cache is attached: interior subregions of
   overlapping root boxes then coincide bit-for-bit.

   Persistence is a Common.Journal: one {"v":1,"proved":"<hex>"}
   object per line, appended (and flushed) as facts are recorded,
   replayed into the LRU on [create] under the journal's replay rule.
   The journal may hold more facts than [capacity]; the last
   [capacity] distinct facts survive the load.

   Domain-safe: the LRU and the journal each have their own lock.
   Hit/lookup tallies live in the LRU's atomics and are mirrored into
   the telemetry counters proofcache.lookups / .hits / .records /
   .evictions. *)

type t = { lru : unit Common.Lru.t; journal : Common.Journal.t option }

let c_lookups = Telemetry.Metrics.counter "proofcache.lookups"

let c_hits = Telemetry.Metrics.counter "proofcache.hits"

let c_records = Telemetry.Metrics.counter "proofcache.records"

let c_evictions = Telemetry.Metrics.counter "proofcache.evictions"

let net_digest net = Digest.to_hex (Nn.Serial.digest net)

let key ~net_digest ~target ~delta ~(region : Domains.Box.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf net_digest;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int target);
  Buffer.add_char buf '\n';
  Buffer.add_int64_le buf (Int64.bits_of_float delta);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Domains.Partition.key_of_box region);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let decode json =
  match Telemetry.Jsonw.member "proved" json with
  | Some (Telemetry.Jsonw.Str k) -> Some (k, ())
  | _ -> None

let create ?(capacity = 65536) ?persist () =
  let lru = Common.Lru.create ~capacity () in
  let journal =
    Option.map
      (fun path ->
        Common.Journal.create ~path ~decode ~replay:(fun k () ->
            ignore (Common.Lru.put lru k ())))
      persist
  in
  { lru; journal }

let loaded t = Option.fold ~none:0 ~some:Common.Journal.loaded t.journal

let lookup t k =
  Telemetry.Metrics.incr c_lookups;
  match Common.Lru.get t.lru k with
  | Some () ->
      Telemetry.Metrics.incr c_hits;
      true
  | None -> false

let record t k =
  (* [mem] first so a warm run does not re-journal facts it just
     loaded; the mem/put race across domains can at worst duplicate a
     line on disk, and replay keeps only the first line per key. *)
  let known = Common.Lru.mem t.lru k in
  if Common.Lru.put t.lru k () then Telemetry.Metrics.incr c_evictions;
  Telemetry.Metrics.incr c_records;
  if not known then
    Option.iter
      (fun j -> Common.Journal.append j [ ("proved", Telemetry.Jsonw.Str k) ])
      t.journal

let close t = Option.iter Common.Journal.close t.journal

type stats = {
  entries : int;
  capacity : int;
  lookups : int;
  hits : int;
  evictions : int;
}

let stats t =
  let s = Common.Lru.stats t.lru in
  {
    entries = s.Common.Lru.size;
    capacity = s.Common.Lru.capacity;
    lookups = s.Common.Lru.hits + s.Common.Lru.misses;
    hits = s.Common.Lru.hits;
    evictions = s.Common.Lru.evictions;
  }
