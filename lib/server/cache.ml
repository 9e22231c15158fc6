(* The verdict cache behind charon-serve.

   Keyed by a structural digest of the full verification question —
   network weights (the Nn.Serial text, which renders every float with
   %.17g and therefore round-trips bit-for-bit), input box, target
   class and δ — so two requests share an entry exactly when they ask
   the same question.  Only *solved* verdicts (Verified / Refuted) are
   worth storing: Timeout depends on the budget that happened to ride
   along, and Unknown on the depth limit, so the scheduler never
   inserts those.

   Two layers since the daemon went multi-tenant: the LRU is the hot
   set, and an optional [Store.t] journal behind it is the system of
   record.  An LRU miss falls through to the store; a store hit is
   promoted back into the LRU, so a verdict computed before a restart
   costs one Hashtbl probe forever after.  Inserts go to both layers.

   Hit/miss accounting lives at this level (atomics, not the LRU's own
   counters) because "hit" means *either* layer answered.  Storage and
   eviction live in Common.Lru (shared with the subregion proof
   cache): intrusive LRU list, one mutex, hit/miss/eviction atomics.
   This wrapper owns the key scheme and mirrors events into the
   serve.cache.* telemetry counters. *)

type t = {
  lru : (Common.Outcome.t * float) Common.Lru.t;
  store : Store.t option;
  hits : int Atomic.t;
  misses : int Atomic.t;
}
[@@race.atomic]

let c_hits = Telemetry.Metrics.counter "serve.cache.hits"

let c_misses = Telemetry.Metrics.counter "serve.cache.misses"

let c_evictions = Telemetry.Metrics.counter "serve.cache.evictions"

let create ?(capacity = 256) ?store () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    lru = Common.Lru.create ~capacity ();
    store;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let key ~network ~(box : Domains.Box.t) ~target ~delta =
  let buf = Buffer.create (String.length network + 64) in
  Buffer.add_string buf network;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Common.Regionspec.to_box_string box);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int target);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "%.17g" delta);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let hit t v =
  Atomic.incr t.hits;
  Telemetry.Metrics.incr c_hits;
  Some v

let get t k =
  match Common.Lru.get t.lru k with
  | Some v -> hit t v
  | None -> (
      match Option.bind t.store (fun s -> Store.find s k) with
      | Some v ->
          (* Promote: the next identical request stays in the hot set. *)
          if Common.Lru.put t.lru k v then Telemetry.Metrics.incr c_evictions;
          hit t v
      | None ->
          Atomic.incr t.misses;
          Telemetry.Metrics.incr c_misses;
          None)

let put t k outcome ~cold_wall =
  if Common.Lru.put t.lru k (outcome, cold_wall) then
    Telemetry.Metrics.incr c_evictions;
  match t.store with
  | Some s -> Store.record s k outcome ~cold_wall
  | None -> ()

let hit_rate t =
  (* Guard the cold-start division: before the first lookup both
     counters are zero, and 0/0 must read as "no hits yet", not nan. *)
  let h = Atomic.get t.hits and m = Atomic.get t.misses in
  let total = h + m in
  if total = 0 then 0.0 else float_of_int h /. float_of_int total

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  let s = Common.Lru.stats t.lru in
  {
    size = s.Common.Lru.size;
    capacity = s.Common.Lru.capacity;
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = s.Common.Lru.evictions;
  }
