(* Tests for the caching stack introduced with the subregion proof
   cache: the generic LRU (Common.Lru), the canonical split partition
   (Domains.Partition), and the proof cache itself (Charon.Proofcache)
   including its JSONL persistence and its end-to-end behaviour inside
   Verify.run. *)

open Linalg
open Domains

(* ------------------------------------------------------------------ *)
(* Common.Lru *)

let test_lru_rejects_bad_capacity () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Common.Lru.create ~capacity:0 ()))

let test_lru_eviction_order () =
  let t = Common.Lru.create ~capacity:3 () in
  Util.check_true "no eviction below capacity" (not (Common.Lru.put t "a" 1));
  ignore (Common.Lru.put t "b" 2);
  ignore (Common.Lru.put t "c" 3);
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ]
    (Common.Lru.keys t);
  (* Touch "a": it becomes most recent, so "b" is now the LRU victim. *)
  Alcotest.(check (option int)) "get a" (Some 1) (Common.Lru.get t "a");
  Util.check_true "insert at capacity evicts" (Common.Lru.put t "d" 4);
  Alcotest.(check (list string)) "b was evicted" [ "d"; "a"; "c" ]
    (Common.Lru.keys t);
  Alcotest.(check (option int)) "b gone" None (Common.Lru.get t "b");
  Alcotest.(check int) "length" 3 (Common.Lru.length t)

let test_lru_resident_put_never_evicts () =
  let t = Common.Lru.create ~capacity:2 () in
  ignore (Common.Lru.put t "x" 0);
  ignore (Common.Lru.put t "y" 1);
  (* Refreshing a resident key at capacity must not evict anything,
     just update value and recency. *)
  Util.check_true "re-put does not evict" (not (Common.Lru.put t "x" 42));
  Alcotest.(check int) "still full" 2 (Common.Lru.length t);
  Alcotest.(check (list string)) "x refreshed to MRU" [ "x"; "y" ]
    (Common.Lru.keys t);
  Alcotest.(check (option int)) "value updated" (Some 42)
    (Common.Lru.get t "x");
  let s = Common.Lru.stats t in
  Alcotest.(check int) "no evictions" 0 s.Common.Lru.evictions

let test_lru_stats_consistency () =
  let t = Common.Lru.create ~capacity:4 () in
  for i = 0 to 9 do
    ignore (Common.Lru.put t (string_of_int i) i)
  done;
  let hits = ref 0 and misses = ref 0 in
  for i = 0 to 9 do
    match Common.Lru.get t (string_of_int i) with
    | Some v ->
        Alcotest.(check int) "cached value" i v;
        incr hits
    | None -> incr misses
  done;
  let s = Common.Lru.stats t in
  Alcotest.(check int) "hits" !hits s.Common.Lru.hits;
  Alcotest.(check int) "misses" !misses s.Common.Lru.misses;
  Alcotest.(check int) "evictions" 6 s.Common.Lru.evictions;
  Alcotest.(check int) "size" 4 s.Common.Lru.size;
  Alcotest.(check int) "capacity" 4 s.Common.Lru.capacity

let test_lru_concurrent_counters () =
  (* Four domains hammer one table with overlapping key ranges.  The
     structural invariants and the counter bookkeeping must survive:
     size never exceeds capacity, every get is tallied exactly once,
     and evictions = inserts - capacity (no key is ever double-evicted
     or resurrected). *)
  let capacity = 64 in
  let t = Common.Lru.create ~capacity () in
  let per_domain = 2_000 in
  let domains = 4 in
  let worker d () =
    let rng = Rng.create (1000 + d) in
    for i = 1 to per_domain do
      let k = string_of_int (Rng.int rng 200) in
      if i mod 2 = 0 then ignore (Common.Lru.put t k i)
      else ignore (Common.Lru.get t k)
    done
  in
  let spawned =
    List.init domains (fun d -> Stdlib.Domain.spawn (worker d))
  in
  List.iter Stdlib.Domain.join spawned;
  let s = Common.Lru.stats t in
  Alcotest.(check int) "every get tallied"
    (domains * per_domain / 2)
    (s.Common.Lru.hits + s.Common.Lru.misses);
  Util.check_true "size bounded" (s.Common.Lru.size <= capacity);
  Util.check_true "evictions sane"
    (s.Common.Lru.evictions <= domains * per_domain / 2);
  Alcotest.(check int) "keys snapshot agrees with size" s.Common.Lru.size
    (List.length (Common.Lru.keys t))

(* ------------------------------------------------------------------ *)
(* Domains.Partition *)

let test_canonical_cut_basics () =
  Util.check_close ~eps:0.0 "unit interval" 0.5
    (Partition.canonical_cut ~lo:0.0 ~hi:1.0);
  Util.check_close ~eps:0.0 "shifted unit interval snaps to 1" 1.0
    (Partition.canonical_cut ~lo:0.25 ~hi:1.25);
  Util.check_close ~eps:0.0 "negative interval" 0.0
    (Partition.canonical_cut ~lo:(-0.75) ~hi:0.25);
  (* A cut that lands on the zero grid point must be +0.0 bit-exactly,
     never -0.0, or bit-exact keys would split into two. *)
  Alcotest.(check int64) "no negative zero" 0L
    (Int64.bits_of_float (Partition.canonical_cut ~lo:(-1.0) ~hi:0.5));
  Alcotest.check_raises "degenerate interval"
    (Invalid_argument "Partition.canonical_cut: empty interval") (fun () ->
      ignore (Partition.canonical_cut ~lo:1.0 ~hi:1.0))

let test_canonical_cut_properties () =
  (* Randomized contract: the cut is strictly inside, deterministic,
     and — the property the proof cache lives on — every sub-interval
     that still strictly contains the cut agrees on it. *)
  Util.repeat ~seed:2_718 ~count:500 (fun rng _ ->
      let lo = Rng.uniform rng ~lo:(-50.0) ~hi:50.0 in
      let w = 1e-6 +. Rng.float rng 10.0 in
      let hi = lo +. w in
      let cut = Partition.canonical_cut ~lo ~hi in
      Util.check_true "strictly inside" (cut > lo && cut < hi);
      Util.check_close ~eps:0.0 "deterministic" cut
        (Partition.canonical_cut ~lo ~hi);
      (* Shrink toward the cut from both sides; the canonical point of
         the shrunk interval must be the same point. *)
      let lo' = lo +. (0.9 *. (cut -. lo)) in
      let hi' = hi -. (0.9 *. (hi -. cut)) in
      if lo' < cut && cut < hi' then
        Util.check_close ~eps:0.0 "sub-interval agrees" cut
          (Partition.canonical_cut ~lo:lo' ~hi:hi'))

let test_partition_key_bit_exact () =
  let b1 = Box.create ~lo:[| 0.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let b2 = Box.create ~lo:[| 0.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let b3 = Box.create ~lo:[| -0.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  Alcotest.(check string) "equal boxes, equal keys" (Partition.key_of_box b1)
    (Partition.key_of_box b2);
  Util.check_true "-0.0 bound is a different key"
    (not (String.equal (Partition.key_of_box b1) (Partition.key_of_box b3)));
  Alcotest.(check int) "16 bytes per dimension" 32
    (String.length (Partition.key_of_box b1))

let test_partition_same_subregion_via_different_queries () =
  (* The point of the canonical partition: two overlapping root boxes,
     split along canonical cuts, reach the *same* subregion — same
     bounds bit-for-bit, hence the same cache key — through different
     split paths. *)
  let split box dim =
    Box.split box ~dim ~at:(Partition.snap_split box ~dim)
  in
  let base = Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let shifted = Box.create ~lo:[| 0.25; 0.0 |] ~hi:[| 1.25; 1.0 |] in
  (* base:    (0,1)    --cut 0.5--> right half (0.5, 1). *)
  let _, from_base = split base 0 in
  (* shifted: (0.25,1.25) --cut 1--> left (0.25,1) --cut 0.5--> (0.5,1). *)
  let l, _ = split shifted 0 in
  let _, from_shifted = split l 0 in
  Util.check_true "boxes coincide bit-for-bit"
    (Box.equal from_base from_shifted);
  Alcotest.(check string) "and so do their keys"
    (Partition.key_of_box from_base)
    (Partition.key_of_box from_shifted)

(* ------------------------------------------------------------------ *)
(* Charon.Proofcache *)

let xor_net = Nn.Init.xor ()

let mk_key ?(target = 1) ?(delta = 1e-4) net region =
  Charon.Proofcache.key
    ~net_digest:(Charon.Proofcache.net_digest net)
    ~target ~delta ~region

let test_proofcache_keys_separate_facts () =
  let region = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  let other = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.8 |] in
  let k = mk_key xor_net region in
  Util.check_true "target changes the key"
    (not (String.equal k (mk_key ~target:0 xor_net region)));
  Util.check_true "delta changes the key"
    (not (String.equal k (mk_key ~delta:1e-3 xor_net region)));
  Util.check_true "region changes the key"
    (not (String.equal k (mk_key xor_net other)));
  Util.check_true "network changes the key"
    (not (String.equal k (mk_key (Nn.Init.example_2_3 ()) region)));
  Alcotest.(check string) "same fact, same key" k (mk_key xor_net region)

(* The network digest sees structure and weight bits, nothing less:
   a Serial round trip keeps it, and each edit below changes it. *)
let test_net_digest_is_bit_exact () =
  let digest = Charon.Proofcache.net_digest in
  let differs msg x y = Util.check_true msg (not (String.equal (digest x) (digest y))) in
  let affine f =
    Nn.Layer.affine (Mat.init 2 2 f) (Vec.init 2 (fun i -> 0.5 *. float_of_int i))
  in
  let b_entry i j = if i = j then 0.0 else 0.75 in
  let a = affine (fun i j -> float_of_int ((2 * i) + j) -. 1.0) in
  let dense_with ?(b = affine b_entry) () =
    Nn.Network.create ~input_dim:2 [ a; Nn.Layer.Relu; b ]
  in
  let dense = dense_with () in
  let with_b_entry (r, c) v =
    dense_with ~b:(affine (fun i j -> if (i, j) = (r, c) then v else b_entry i j)) ()
  in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let lenet = Nn.Init.lenet_like (Rng.create 5) ~input ~classes:2 in
  List.iter
    (fun net ->
      Alcotest.(check string) "a Serial round trip keeps the digest" (digest net)
        (digest (Nn.Serial.of_string (Nn.Serial.to_string net))))
    [ dense; lenet ];
  Alcotest.(check string) "equal bits, equal digests" (digest dense)
    (digest (with_b_entry (0, 1) 0.75));
  differs "one ULP" dense (with_b_entry (0, 1) (Float.succ 0.75));
  differs "0.0 against -0.0" dense (with_b_entry (0, 0) (-0.0));
  differs "two layers swapped" dense
    (Nn.Network.create ~input_dim:2 [ affine b_entry; Nn.Layer.Relu; a ]);
  let avgpool_for_maxpool = function
    | Nn.Layer.Maxpool p ->
        Nn.Layer.Avgpool
          (Nn.Avgpool.create ~input:p.Nn.Pool.input ~kernel:p.Nn.Pool.kernel
             ~stride:p.Nn.Pool.stride)
    | l -> l
  in
  differs "maxpool against avgpool of the same shape" lenet
    (Nn.Network.create ~input_dim:lenet.Nn.Network.input_dim
       (List.map avgpool_for_maxpool lenet.Nn.Network.layers));
  let conv ~stride ~padding =
    Nn.Network.create ~input_dim:16
      [
        Nn.Layer.Conv
          (Nn.Conv.create ~input ~out_channels:1 ~kernel:2 ~stride ~padding
             ~weights:[| 1.0; -1.0; 0.5; 0.25 |] ~bias:[| 0.0 |]);
      ]
  in
  differs "conv stride" (conv ~stride:1 ~padding:0) (conv ~stride:2 ~padding:0);
  differs "conv padding" (conv ~stride:1 ~padding:0) (conv ~stride:1 ~padding:1)

let test_proofcache_record_lookup_stats () =
  let c = Charon.Proofcache.create ~capacity:8 () in
  let region = Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let k = mk_key xor_net region in
  Util.check_true "miss before record" (not (Charon.Proofcache.lookup c k));
  Charon.Proofcache.record c k;
  Util.check_true "hit after record" (Charon.Proofcache.lookup c k);
  let s = Charon.Proofcache.stats c in
  Alcotest.(check int) "entries" 1 s.Charon.Proofcache.entries;
  Alcotest.(check int) "lookups" 2 s.Charon.Proofcache.lookups;
  Alcotest.(check int) "hits" 1 s.Charon.Proofcache.hits;
  Alcotest.(check int) "evictions" 0 s.Charon.Proofcache.evictions

let with_temp_journal f =
  let path = Filename.temp_file "charon_proofcache" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_proofcache_persistence_roundtrip () =
  with_temp_journal (fun path ->
      let keys =
        List.init 5 (fun i ->
            mk_key xor_net
              (Box.create ~lo:[| 0.0; 0.0 |]
                 ~hi:[| 1.0; float_of_int (i + 1) |]))
      in
      let c = Charon.Proofcache.create ~capacity:64 ~persist:path () in
      Alcotest.(check int) "fresh journal" 0 (Charon.Proofcache.loaded c);
      List.iter (Charon.Proofcache.record c) keys;
      (* Recording an already-present fact must not duplicate it. *)
      List.iter (Charon.Proofcache.record c) keys;
      Charon.Proofcache.close c;
      let c2 = Charon.Proofcache.create ~capacity:64 ~persist:path () in
      Alcotest.(check int) "all facts replayed" 5
        (Charon.Proofcache.loaded c2);
      List.iter
        (fun k -> Util.check_true "replayed fact hits"
            (Charon.Proofcache.lookup c2 k))
        keys;
      Charon.Proofcache.close c2)

let test_proofcache_journal_skips_garbage () =
  with_temp_journal (fun path ->
      let k = mk_key xor_net (Box.create ~lo:[| 0.0 |] ~hi:[| 1.0 |]) in
      let k2 = mk_key xor_net (Box.create ~lo:[| 0.0 |] ~hi:[| 2.0 |]) in
      let k3 = mk_key xor_net (Box.create ~lo:[| 0.0 |] ~hi:[| 3.0 |]) in
      let line v k = Printf.sprintf "{\"v\":%d,\"proved\":\"%s\"}\n" v k in
      let oc = open_out path in
      (* One fact on three lines counts once. *)
      output_string oc (line 1 k);
      output_string oc (line 1 k);
      output_string oc "not json at all\n";
      output_string oc (line 1 k);
      (* A future format is not a proof. *)
      output_string oc (line 2 k2);
      output_string oc "{\"v\":1,\"proved\":\"";
      (* torn final line: no closing quote, no newline *)
      close_out oc;
      let c = Charon.Proofcache.create ~persist:path () in
      Alcotest.(check int) "one distinct intact fact loads" 1
        (Charon.Proofcache.loaded c);
      Alcotest.(check int) "one entry" 1
        (Charon.Proofcache.stats c).Charon.Proofcache.entries;
      Util.check_true "intact fact hits" (Charon.Proofcache.lookup c k);
      Util.check_true "v:2 line not loaded"
        (not (Charon.Proofcache.lookup c k2));
      (* The first fact recorded after the crash must start a line of
         its own, not join the torn fragment and vanish on replay. *)
      Charon.Proofcache.record c k3;
      Charon.Proofcache.close c;
      let c2 = Charon.Proofcache.create ~persist:path () in
      Alcotest.(check int) "the new fact replays too" 2
        (Charon.Proofcache.loaded c2);
      Util.check_true "fact recorded after the torn tail hits"
        (Charon.Proofcache.lookup c2 k3);
      Charon.Proofcache.close c2)

let test_proofcache_warm_rerun_hits_at_root () =
  (* End-to-end: verifying the same property twice against one cache
     must discharge the whole second run from the root fact. *)
  let net = Nn.Init.xor () in
  let region = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  let prop = Common.Property.create ~region ~target:1 () in
  let cache = Charon.Proofcache.create () in
  let go seed =
    Charon.Verify.run ~proofcache:cache ~rng:(Rng.create seed)
      ~policy:Charon.Policy.default net prop
  in
  let cold = go 1 in
  Util.check_true "cold verifies"
    (cold.Charon.Verify.outcome = Common.Outcome.Verified);
  Alcotest.(check int) "cold run has no hits" 0 cold.Charon.Verify.cache_hits;
  (* A different seed must not matter: proved facts are RNG-independent. *)
  let warm = go 2 in
  Util.check_true "warm verifies"
    (warm.Charon.Verify.outcome = Common.Outcome.Verified);
  Alcotest.(check int) "warm run is one root hit" 1
    warm.Charon.Verify.cache_hits;
  Alcotest.(check int) "warm run explores one node" 1 warm.Charon.Verify.nodes;
  Alcotest.(check int) "warm run never analyzes" 0
    warm.Charon.Verify.analyze_calls

(* ------------------------------------------------------------------ *)
(* Server.Cache over Server.Store — the serve verdict layer *)

let test_verdict_cache_cold_hit_rate () =
  (* Regression: hit_rate divided hits by lookups without guarding the
     cold start, handing nan to the stats JSON before the first get. *)
  let c = Server.Cache.create ~capacity:4 () in
  Util.check_close ~eps:0.0 "0.0 before any lookup" 0.0
    (Server.Cache.hit_rate c);
  ignore (Server.Cache.get c "absent");
  Util.check_close ~eps:0.0 "0.0 after a pure miss" 0.0
    (Server.Cache.hit_rate c);
  Server.Cache.put c "k" Common.Outcome.Verified ~cold_wall:0.5;
  ignore (Server.Cache.get c "k");
  Util.check_close ~eps:1e-9 "hits over lookups" 0.5
    (Server.Cache.hit_rate c)

let test_verdict_store_roundtrip_skips_garbage () =
  with_temp_journal (fun path ->
      let witness = [| 0.5; -0.25 |] in
      let s = Server.Store.create ~path () in
      Server.Store.record s "kv" Common.Outcome.Verified ~cold_wall:1.25;
      Server.Store.record s "kr" (Common.Outcome.Refuted witness)
        ~cold_wall:2.0;
      (* Verdicts are facts: re-recording a present key is a no-op. *)
      Server.Store.record s "kv" Common.Outcome.Verified ~cold_wall:9.0;
      Server.Store.close s;
      (* A crashed writer leaves garbage and a torn tail; both must be
         skipped on replay, not poison the restart. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      (* A duplicate line for a present key must not replace the first
         record on replay, nor count as a second fact. *)
      output_string oc
        {|{"v":1,"key":"kv","cold_wall":9.0,"verdict":{"verdict":"verified"}}|};
      output_char oc '\n';
      output_string oc "not json at all\n";
      output_string oc "{\"v\":1,\"key\":\"torn";
      close_out oc;
      let s2 = Server.Store.create ~path () in
      Alcotest.(check int) "both intact facts replayed" 2
        (Server.Store.loaded s2);
      (match Server.Store.find s2 "kv" with
      | Some (Common.Outcome.Verified, w) ->
          Util.check_close ~eps:0.0 "first record's cost wins" 1.25 w
      | _ -> Alcotest.fail "verified fact lost");
      (match Server.Store.find s2 "kr" with
      | Some (Common.Outcome.Refuted x, _) ->
          Alcotest.(check int) "witness dimension" 2 (Array.length x);
          Array.iteri
            (fun i v ->
              Util.check_close ~eps:0.0 "witness bit-exact" witness.(i) v)
            x
      | _ -> Alcotest.fail "refuted fact lost");
      Util.check_true "torn key never loaded"
        (Server.Store.find s2 "torn" = None);
      (* An LRU eviction must fall through to the store: capacity 1,
         two puts, and the evicted verdict still answers. *)
      let c = Server.Cache.create ~capacity:1 ~store:s2 () in
      Server.Cache.put c "a" Common.Outcome.Verified ~cold_wall:0.1;
      Server.Cache.put c "b" Common.Outcome.Verified ~cold_wall:0.2;
      (match Server.Cache.get c "a" with
      | Some (Common.Outcome.Verified, w) ->
          Util.check_close ~eps:0.0 "evicted verdict served from store" 0.1 w
      | _ -> Alcotest.fail "evicted verdict lost");
      Server.Store.close s2;
      (* "a" was the first fact appended after the torn tail: it must
         have started a line of its own and replay after a restart. *)
      let s3 = Server.Store.create ~path () in
      Alcotest.(check int) "facts recorded after the torn tail replay" 4
        (Server.Store.loaded s3);
      (match Server.Store.find s3 "a" with
      | Some (Common.Outcome.Verified, w) ->
          Util.check_close ~eps:0.0 "post-crash fact survives" 0.1 w
      | _ -> Alcotest.fail "fact recorded after the torn tail lost");
      Server.Store.close s3)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Util.case "rejects bad capacity" test_lru_rejects_bad_capacity;
          Util.case "eviction order" test_lru_eviction_order;
          Util.case "resident re-put never evicts"
            test_lru_resident_put_never_evicts;
          Util.case "stats consistency" test_lru_stats_consistency;
          Util.case "concurrent counters" test_lru_concurrent_counters;
        ] );
      ( "partition",
        [
          Util.case "canonical cut basics" test_canonical_cut_basics;
          Util.case "canonical cut properties" test_canonical_cut_properties;
          Util.case "key is bit-exact" test_partition_key_bit_exact;
          Util.case "same subregion via different queries"
            test_partition_same_subregion_via_different_queries;
        ] );
      ( "proofcache",
        [
          Util.case "keys separate facts" test_proofcache_keys_separate_facts;
          Util.case "record/lookup/stats" test_proofcache_record_lookup_stats;
          Util.case "net digest is bit-exact" test_net_digest_is_bit_exact;
          Util.case "persistence roundtrip"
            test_proofcache_persistence_roundtrip;
          Util.case "journal skips garbage" test_proofcache_journal_skips_garbage;
          Util.case "warm rerun hits at root"
            test_proofcache_warm_rerun_hits_at_root;
        ] );
      ( "verdicts",
        [
          Util.case "hit rate guarded at cold start"
            test_verdict_cache_cold_hit_rate;
          Util.case "store roundtrip skips garbage"
            test_verdict_store_roundtrip_skips_garbage;
        ] );
    ]
