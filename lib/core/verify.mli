(** The Charon decision procedure (Algorithm 1).

    Interleaves PGD counterexample search with abstract-interpretation
    proof attempts, splitting the input region under the guidance of a
    verification policy when neither succeeds.  With the δ-relaxed
    counterexample test (Eq. 4) the procedure is sound and δ-complete
    (Theorems 5.2 and 5.4): given enough budget it terminates with either
    a proof or a δ-counterexample. *)

val log_src : Logs.Src.t
(** Logs source ["charon.verify"]: per-node traces at debug level,
    refutations at info level. *)

type strategy =
  | Depth_first
      (** pop the deepest pending region first, the left branch before
          the right: Algorithm 1's recursion order *)
  | Best_first
      (** pop the pending region with the smallest parent PGD value
          first (closest to violating the property); an
          anytime-flavoured extension useful when hunting
          counterexamples *)

type config = {
  delta : float;
      (** δ of Eq. 4; refute as soon as [F(xstar) <= delta].  Must be
          positive for the termination guarantee. *)
  max_depth : int;  (** recursion-depth safety limit *)
  pgd : Optim.Pgd.config;  (** counterexample-search configuration *)
  use_cex_search : bool;
      (** when false, skip PGD entirely (the RQ2 ablation); only the
          region center is checked as a candidate counterexample *)
  strategy : strategy;
}

val default_config : config
(** δ = 1e-4, depth 60, default PGD with early stop at δ, depth-first. *)

type report = {
  outcome : Common.Outcome.t;
  elapsed : float;  (** seconds *)
  nodes : int;  (** recursion-tree nodes explored *)
  analyze_calls : int;  (** abstract-interpretation attempts *)
  pgd_calls : int;
  transformer_calls : int;  (** total abstract layer applications *)
  peak_depth : int;
  workers : int;  (** worker domains used for the region search *)
  domains_used : (Domains.Domain.spec * int) list;
      (** how often the policy chose each abstract domain *)
  cache_lookups : int;
      (** proof-cache consultations this run (0 without [?proofcache]) *)
  cache_hits : int;
      (** subtrees discharged from the proof cache without an analyze
          call *)
  kernel_fanouts : int;
      (** always 0: kernels run on the region worker's own domain.  Kept
          only because the benchmark's per-layer report reads it. *)
}

val run :
  ?config:config ->
  ?budget:Common.Budget.t ->
  ?workers:int ->
  ?cancel:Parallel.Cancel.t ->
  ?on_progress:(nodes:int -> depth:int -> unit) ->
  ?proofcache:Proofcache.t ->
  rng:Linalg.Rng.t ->
  policy:Policy.t ->
  Nn.Network.t ->
  Common.Property.t ->
  report
(** Verify or refute the property.  [Refuted x] guarantees
    [F(x) <= delta] with [x] in the input region (δ-completeness);
    [Verified] guarantees the property holds (soundness).  [Timeout] is
    returned only for genuine resource exhaustion — the step/wall
    budget ran out or the run was cancelled.  [Unknown] means a
    precision limit was hit with budget to spare: the region cannot be
    split further (a zero-width dimension), or the split depth reached
    [config.max_depth], yet the abstract proof still fails.

    [proofcache] attaches a subregion proof cache: before each abstract
    proof attempt the region's fact is looked up (a hit discharges the
    whole subtree), every proved region — including internal split
    nodes once both halves are proved — is recorded, and split cuts
    snap onto the canonical partition ([Domains.Partition]) so
    overlapping queries reach bit-identical subregions.  Without it the
    search is bit-identical to earlier releases, PGD-guided cuts and
    all.

    The search is one loop over a priority worklist of regions, popped
    in [config.strategy] order and drained by [workers] (default 1)
    OCaml domains; one worker runs the same loop inline on the calling
    domain.  The first [Refuted]/[Timeout]/[Unknown] answer settles the
    run and cancels outstanding work — except that a [Refuted x] found
    while the run winds down replaces a settled [Timeout]/[Unknown]
    ({!Common.Outcome.settle}) — while [Verified] requires the
    worklist to drain empty.  One worker draws every region's PGD
    samples from [rng] in pop order; with more, each work item carries
    an RNG split off its parent's, so a fixed (seed, workers) pair
    reproduces the same search tree regardless of scheduling.  Each
    region is processed entirely on the worker that popped it, so the
    run computes on at most [workers] domains.  Raises
    [Invalid_argument] when [workers < 1].

    [cancel] is a cooperative external stop: the token is polled once
    per region, and a run that observes it abandons the search and
    returns [Timeout] (the caller that asked for cancellation is the
    one who can tell the difference).  [on_progress] is invoked once
    per explored region with the running node count and the region's
    depth; it may be called concurrently from every worker domain, so
    the callback must be domain-safe (the serving layer stores the
    numbers in atomics).  Both hooks default to off and cost nothing
    when absent. *)

(** {1 Resumable subtree verification}

    The unit of work of a charon-dverify shard: verify the subtree
    rooted at one sub-box of a property, with the ability to stop
    between regions and hand the unexplored frontier back to the
    coordinator (for budget escalation or work-stealing). *)

type subtree_outcome =
  | Subtree_proved  (** every region of the subtree was proved *)
  | Subtree_refuted of Linalg.Vec.t
      (** counterexample found; [F(x) <= delta] *)
  | Subtree_unknown
      (** a region hit a precision limit (depth cap or zero-width
          split); refining harder will not help *)
  | Subtree_yielded
      (** stopped early — budget exhausted, [yield] asked, or [cancel]
          fired; the undecided regions are in [frontier] *)

type subtree_report = {
  subtree_outcome : subtree_outcome;
  frontier : (Domains.Box.t * int) list;
      (** unexplored [(region, absolute depth)] pairs in pop order
          (left-most first under [Depth_first]); non-empty only for
          [Subtree_yielded].  Re-running each entry (at its recorded
          depth) completes the original obligation — nothing is dropped
          by stopping early. *)
  subtree_nodes : int;
  subtree_analyze_calls : int;
  subtree_pgd_calls : int;
  subtree_transformer_calls : int;
  subtree_cache_lookups : int;
  subtree_cache_hits : int;
  subtree_elapsed : float;  (** seconds *)
}

val run_subtree :
  ?config:config ->
  ?budget:Common.Budget.t ->
  ?cancel:Parallel.Cancel.t ->
  ?yield:(unit -> bool) ->
  ?proofcache:Proofcache.t ->
  ?root_depth:int ->
  rng:Linalg.Rng.t ->
  policy:Policy.t ->
  Nn.Network.t ->
  Common.Property.t ->
  subtree_report
(** The {!run} search loop at one worker, with a stop hook, over the
    subtree rooted at [prop.region], entering the recursion at
    [root_depth] (default 0): regions count against [config.max_depth]
    from there, and with [?proofcache] the split cuts snap onto the
    canonical partition, so a shard started at the depth that produced
    its sub-box explores bit-identical regions (with bit-identical cache
    keys) to a single-process run that descended to it.

    The stop hook is polled once per popped region, *before* the region
    is processed: [yield] returning [true], [budget] exhaustion or
    [cancel] ends the loop with the pending regions — the popped one
    first — in [frontier], so a shard interrupted for any reason loses
    no proof obligation.  Raises [Invalid_argument] when [root_depth]
    is negative. *)
