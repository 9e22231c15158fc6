open Domains

let log_src = Logs.Src.create "charon.verify" ~doc:"Charon's decision procedure"

module Log = (val Logs.src_log log_src)

type strategy = Depth_first | Best_first

type config = {
  delta : float;
  max_depth : int;
  pgd : Optim.Pgd.config;
  use_cex_search : bool;
  strategy : strategy;
}

let default_config =
  {
    delta = 1e-4;
    max_depth = 60;
    pgd = { Optim.Pgd.default_config with early_stop = Some 1e-4 };
    use_cex_search = true;
    strategy = Depth_first;
  }

type report = {
  outcome : Common.Outcome.t;
  elapsed : float;
  nodes : int;
  analyze_calls : int;
  pgd_calls : int;
  transformer_calls : int;
  peak_depth : int;
  workers : int;
  domains_used : (Domain.spec * int) list;
  cache_lookups : int;
  cache_hits : int;
  kernel_fanouts : int;
}

(* Counters are shared by every worker domain, so the integer ones are
   atomics and the per-domain-spec histogram hides behind a mutex.  In
   the sequential (workers = 1) case the atomics are uncontended and the
   numbers are bit-for-bit what the old mutable-record code produced.
   The atomics are updated with fetch_and_add / [atomic_max] only. *)
type counters = {
  nodes : int Atomic.t;
  analyze_calls : int Atomic.t;
  pgd_calls : int Atomic.t;
  transformer_calls : int Atomic.t;
  peak_depth : int Atomic.t;
  cache_lookups : int Atomic.t;
  cache_hits : int Atomic.t;
  domains_mutex : Mutex.t;
  domains : (Domain.spec, int) Hashtbl.t;
}
[@@race.guarded_by "domains_mutex"]

let fresh_counters () =
  {
    nodes = Atomic.make 0;
    analyze_calls = Atomic.make 0;
    pgd_calls = Atomic.make 0;
    transformer_calls = Atomic.make 0;
    peak_depth = Atomic.make 0;
    cache_lookups = Atomic.make 0;
    cache_hits = Atomic.make 0;
    domains_mutex = Mutex.create ();
    domains = Hashtbl.create 8;
  }

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Telemetry instruments (no-ops unless the CLI/bench enabled them). *)
let c_regions = Telemetry.Metrics.counter "verify.regions"

let c_splits = Telemetry.Metrics.counter "verify.splits"

let c_refuted = Telemetry.Metrics.counter "verify.refuted_regions"

let c_proved = Telemetry.Metrics.counter "verify.proved_regions"

let c_unsplittable = Telemetry.Metrics.counter "verify.unsplittable_regions"

let c_pgd = Telemetry.Metrics.counter "verify.pgd_calls"

let c_analyze = Telemetry.Metrics.counter "verify.analyze_calls"

let h_region_depth = Telemetry.Metrics.histogram "verify.region_depth"

(* Parent-completion links for the proof cache.  Every split region
   gets a node holding its own cache key and a countdown of unproved
   children; when a child is proved (directly, or by a cache hit that
   covers its whole subtree) it decrements the parent, and the worker
   that brings a node to zero records the parent's region as Verified
   and continues upward.  This is what lets a warm re-run of the same
   query hit at (or near) the root instead of re-walking the frontier:
   internal regions become cached facts, not just leaves.

   Each node is decremented exactly once per child (a region is popped
   and processed by exactly one worker), so [pending] reaching zero is
   a sound "both halves proved" signal even under parallel drains.
   Abandoned subtrees (budget, cancel, refutation) simply leave the
   countdown above zero and nothing is recorded. *)
type pnode = {
  pkey : string;
  pending : int Atomic.t;
  parent : pnode option;
}
[@@race.atomic]

let rec subtree_proved cache = function
  | None -> ()
  | Some n ->
      if Atomic.fetch_and_add n.pending (-1) = 1 then begin
        Proofcache.record cache n.pkey;
        subtree_proved cache n.parent
      end

(* A unit of work: one sub-region of the input, the split depth that
   produced it, its RNG stream, and its proof-cache parent link.  With
   several workers each item carries a stream split off its parent's at
   push time, so the search tree is a pure function of the root seed,
   whichever worker processes which region.  One worker pops regions in
   a fixed order, and every item shares the caller's stream. *)
type item = {
  region : Box.t;
  depth : int;
  rng : Linalg.Rng.t;
  pnode : pnode option;
}

(* Everything one region step needs, bundled so [run] and the
   distributed subtree entry point ([run_subtree], charon-dverify's
   worker loop) share one search loop and one implementation of the
   PGD / analyze / split pipeline. *)
type ctx = {
  cfg : config;
  budget : Common.Budget.t;
  ctrs : counters;
  ext_cancelled : unit -> bool;
  progress : (nodes:int -> depth:int -> unit) option;
  cpc : (Proofcache.t * string) option;  (* cache, network digest *)
  policy : Policy.t;
  net : Nn.Network.t;
  prop : Common.Property.t;
  objective : Optim.Objective.t;
  pgd_config : Optim.Pgd.config;
}

let make_ctx ~config ~budget ~cancel ~on_progress ~proofcache ~policy net
    (prop : Common.Property.t) =
  if config.delta <= 0.0 then
    invalid_arg "Verify.run: delta must be positive";
  let ext_cancelled () =
    match cancel with
    | Some c -> Parallel.Cancel.cancelled c
    | None -> false
  in
  (* The network digest is the expensive part of a cache key; compute
     it once per run.  [cpc = None] keeps every cache branch below dead
     and the search bit-identical to an uncached run (including the
     PGD-guided, un-snapped split cuts). *)
  let cpc =
    Option.map (fun cache -> (cache, Proofcache.net_digest net)) proofcache
  in
  let objective = Optim.Objective.create net ~k:prop.Common.Property.target in
  let pgd_config =
    { config.pgd with Optim.Pgd.early_stop = Some config.delta }
  in
  {
    cfg = config;
    budget;
    ctrs = fresh_counters ();
    ext_cancelled;
    progress = on_progress;
    cpc;
    policy;
    net;
    prop;
    objective;
    pgd_config;
  }

let region_key ctx region =
  Option.map
    (fun (cache, dg) ->
      ( cache,
        Proofcache.key ~net_digest:dg ~target:ctx.prop.Common.Property.target
          ~delta:ctx.cfg.delta ~region ))
    ctx.cpc

let search_candidate ctx ~rng region =
  if ctx.cfg.use_cex_search then begin
    Atomic.incr ctx.ctrs.pgd_calls;
    Telemetry.Metrics.incr c_pgd;
    Optim.Pgd.minimize ~config:ctx.pgd_config ~rng ctx.objective region
  end
  else begin
    let c = Box.center region in
    (c, Optim.Objective.value ctx.objective c)
  end

(* Process one region of the worklist: PGD counterexample search
   (lines 2-4), a proof attempt with the policy's domain (lines 5-7),
   and on failure a policy-guided split (lines 8-12).  Returns the
   sub-regions still to be proven. *)
let process ctx ~rng ~pnode region depth :
    (Common.Outcome.t, (Box.t * int * float) list * pnode option) Either.t =
  let counters = ctx.ctrs in
  Atomic.incr counters.nodes;
  atomic_max counters.peak_depth depth;
  Telemetry.Metrics.incr c_regions;
  Telemetry.Metrics.observe h_region_depth depth;
  (match ctx.progress with
  | Some f -> f ~nodes:(Atomic.get counters.nodes) ~depth
  | None -> ());
  let sp = Telemetry.Span.enter "verify.region" in
  (* Attributes for the region span, filled in as the region is
     processed.  The thunks passed to [Span.exit] run only when a
     trace file is attached, so the refs cost two words per region
     and zero formatting work otherwise. *)
  let sp_fstar = ref nan in
  let sp_domain = ref "" in
  let sp_split = ref None in
  let sp_outcome = ref "unknown" in
  let finish_span result =
    Telemetry.Span.exit sp
      ~attrs:(fun () ->
        let base =
          [
            ("depth", Telemetry.Jsonw.Int depth);
            ("outcome", Telemetry.Jsonw.Str !sp_outcome);
          ]
        in
        let base =
          if Float.is_nan !sp_fstar then base
          else ("fstar", Telemetry.Jsonw.Float !sp_fstar) :: base
        in
        let base =
          if String.equal !sp_domain "" then base
          else ("domain", Telemetry.Jsonw.Str !sp_domain) :: base
        in
        match !sp_split with
        | None -> base
        | Some (dim, at) ->
            ("split_dim", Telemetry.Jsonw.Int dim)
            :: ("split_at", Telemetry.Jsonw.Float at)
            :: base);
    result
  in
  if Common.Budget.exhausted ctx.budget || ctx.ext_cancelled () then begin
    sp_outcome := "timeout";
    finish_span (Either.Left Common.Outcome.Timeout)
  end
  else if depth > ctx.cfg.max_depth then begin
    (* The depth cap is a precision limit, not resource exhaustion:
       there may be plenty of budget left, we are just refusing to
       refine further — the same contract as the unsplittable branch
       below, so the answer is Unknown, not Timeout. *)
    sp_outcome := "depth_limit";
    finish_span (Either.Left Common.Outcome.Unknown)
  end
  else begin
    let pkey = region_key ctx region in
    let cached =
      match pkey with
      | None -> false
      | Some (cache, k) ->
          Atomic.incr counters.cache_lookups;
          let hit = Proofcache.lookup cache k in
          if hit then Atomic.incr counters.cache_hits;
          hit
    in
    if cached then begin
      (* A prior run proved this exact (network, target, delta,
         region) fact; the whole subtree is discharged without PGD or
         an analyze call. *)
      (match pkey with
      | Some (cache, _) -> subtree_proved cache pnode
      | None -> ());
      sp_outcome := "cached";
      finish_span (Either.Right ([], None))
    end
    else begin
      let xstar, fstar = search_candidate ctx ~rng region in
      sp_fstar := fstar;
      Log.debug (fun m ->
          m "node %d depth %d region %a: F(x*) = %g"
            (Atomic.get counters.nodes)
            depth Box.pp region fstar);
      if fstar <= ctx.cfg.delta then begin
        Log.info (fun m ->
            m "refuted at depth %d with F = %g <= delta = %g" depth fstar
              ctx.cfg.delta);
        Telemetry.Metrics.incr c_refuted;
        sp_outcome := "refuted";
        finish_span (Either.Left (Common.Outcome.Refuted xstar))
      end
      else begin
        let input =
          {
            Features.net = ctx.net;
            region;
            target = ctx.prop.Common.Property.target;
            xstar;
            fstar;
          }
        in
        let spec = Policy.choose_domain ctx.policy input in
        if Telemetry.tracing () then
          sp_domain := Format.asprintf "%a" Domain.pp spec;
        Mutex.lock counters.domains_mutex;
        Hashtbl.replace counters.domains spec
          (1 + Option.value ~default:0 (Hashtbl.find_opt counters.domains spec));
        Mutex.unlock counters.domains_mutex;
        let stats = Absint.Analyzer.fresh_stats () in
        Atomic.incr counters.analyze_calls;
        Telemetry.Metrics.incr c_analyze;
        let verdict =
          Absint.Analyzer.analyze ~stats ~budget:ctx.budget ctx.net region
            ~k:ctx.prop.Common.Property.target spec
        in
        ignore
          (Atomic.fetch_and_add counters.transformer_calls
             stats.Absint.Analyzer.transformer_calls);
        Common.Budget.spend ctx.budget stats.Absint.Analyzer.transformer_calls;
        Log.debug (fun m ->
            m "domain %a -> %s" Domain.pp spec
              (match verdict with
              | Absint.Analyzer.Verified -> "verified"
              | Absint.Analyzer.Unknown -> "unknown"));
        match verdict with
        | Absint.Analyzer.Verified ->
            Telemetry.Metrics.incr c_proved;
            (match pkey with
            | Some (cache, k) ->
                Proofcache.record cache k;
                subtree_proved cache pnode
            | None -> ());
            sp_outcome := "proved";
            finish_span (Either.Right ([], None))
        | Absint.Analyzer.Unknown ->
            let dim, at = Policy.choose_split ctx.policy input in
            if Box.width region dim <= 0.0 then begin
              (* An unsplittable (zero-width) dimension is a precision
                 failure, not resource exhaustion: budget and depth may
                 both have headroom, we just cannot refine further. *)
              Telemetry.Metrics.incr c_unsplittable;
              sp_outcome := "unsplittable";
              finish_span (Either.Left Common.Outcome.Unknown)
            end
            else begin
              (* With a proof cache attached the cut snaps onto the
                 canonical partition, so the same subregions reappear
                 across overlapping queries; without one, the policy's
                 PGD-guided cut is used untouched. *)
              let at =
                match ctx.cpc with
                | Some _ -> Partition.snap_split region ~dim
                | None -> at
              in
              let left, right = Box.split region ~dim ~at in
              Telemetry.Metrics.incr c_splits;
              sp_outcome := "split";
              sp_split := Some (dim, at);
              let child_pnode =
                match pkey with
                | Some (_, k) ->
                    Some { pkey = k; pending = Atomic.make 2; parent = pnode }
                | None -> None
              in
              finish_span
                (Either.Right
                   ( [ (left, depth + 1, fstar); (right, depth + 1, fstar) ],
                     child_pnode ))
            end
      end
    end
  end

(* The search loop: Algorithm 1's recursion as a priority worklist
   that [workers] domains drain ([Parallel.Pool.run] runs one worker
   inline on the caller's domain).  Depth-first pops the deepest region
   first; siblings share a depth and the left one is pushed first, so
   one worker visits regions in the recursion's left-first order.
   Best-first pops the region whose parent's PGD value is smallest.

   A [Refuted]/[Timeout]/[Unknown] answer from any worker settles the
   result ([Common.Outcome.settle]) and cancels outstanding work;
   [Verified] requires the queue to drain empty, because every
   sub-region carries part of the proof obligation.  [stop] is polled
   once per popped region, before it is processed: when it fires, the
   loop settles [Timeout] and leaves the region undecided, as it does a
   region whose processing ran out of budget.  After a [Timeout] the
   second component is the unexplored frontier, the undecided region
   first and then the queue in pop order.  It is exact at one worker;
   with more, regions that other workers had in flight are missing. *)
let search ctx ~workers ~rng ~stop region ~depth =
  let queue = Parallel.Wqueue.create () in
  let cancel = Parallel.Cancel.create () in
  let result = Atomic.make None in
  let rec settle outcome =
    let cur = Atomic.get result in
    if Atomic.compare_and_set result cur (Common.Outcome.settle cur outcome)
    then begin
      if Option.is_none cur then begin
        Parallel.Cancel.cancel cancel;
        Parallel.Wqueue.close queue
      end
    end
    else settle outcome
  in
  let undecided = Atomic.make None in
  let give_up it =
    Atomic.set undecided (Some it);
    settle Common.Outcome.Timeout
  in
  let priority ~depth ~fstar =
    match ctx.cfg.strategy with
    | Depth_first -> -.float_of_int depth
    | Best_first -> fstar
  in
  let item_rng parent =
    if workers = 1 then parent else Linalg.Rng.split parent
  in
  Parallel.Wqueue.push queue ~priority:0.0
    { region; depth; rng = item_rng rng; pnode = None };
  let worker id =
    let my_tasks = ref 0 in
    let rec loop () =
      match Parallel.Wqueue.pop queue with
      | None -> ()
      | Some it ->
          incr my_tasks;
          if Parallel.Cancel.cancelled cancel then ()
          else if stop () then give_up it
          else begin
            match
              process ctx ~rng:it.rng ~pnode:it.pnode it.region it.depth
            with
            | Either.Left Common.Outcome.Timeout -> give_up it
            | Either.Left outcome -> settle outcome
            | Either.Right (children, child_pnode) ->
                List.iter
                  (fun (r, d, fstar) ->
                    Parallel.Wqueue.push queue
                      ~priority:(priority ~depth:d ~fstar)
                      {
                        region = r;
                        depth = d;
                        rng = item_rng it.rng;
                        pnode = child_pnode;
                      })
                  children
          end;
          Parallel.Wqueue.finish queue;
          loop ()
    in
    loop ();
    if Telemetry.tracing () then
      Telemetry.Trace.instant "verify.worker"
        ~attrs:
          [
            ("worker", Telemetry.Jsonw.Int id);
            ("tasks", Telemetry.Jsonw.Int !my_tasks);
          ]
  in
  Parallel.Pool.run ~workers worker;
  match Atomic.get result with
  | None -> (Common.Outcome.Verified, [])
  | Some Common.Outcome.Timeout ->
      ( Common.Outcome.Timeout,
        Option.to_list (Atomic.get undecided) @ Parallel.Wqueue.leftovers queue
      )
  | Some outcome -> (outcome, [])

let run ?(config = default_config) ?(budget = Common.Budget.unlimited ())
    ?(workers = 1) ?cancel ?on_progress ?proofcache ~rng ~policy net
    (prop : Common.Property.t) =
  if workers < 1 then invalid_arg "Verify.run: workers must be at least 1";
  let started = Unix.gettimeofday () in
  let ctx =
    make_ctx ~config ~budget ~cancel ~on_progress ~proofcache ~policy net prop
  in
  let counters = ctx.ctrs in
  let outcome =
    Telemetry.Span.wrap "verify.run"
      ~attrs:(fun () ->
        [
          ("workers", Telemetry.Jsonw.Int workers);
          ("nodes", Telemetry.Jsonw.Int (Atomic.get counters.nodes));
          ("strategy",
           Telemetry.Jsonw.Str
             (match config.strategy with
             | Depth_first -> "depth_first"
             | Best_first -> "best_first"));
        ])
      (fun () ->
        fst
          (search ctx ~workers ~rng
             ~stop:(fun () -> false)
             prop.Common.Property.region ~depth:0))
  in
  {
    outcome;
    elapsed = Unix.gettimeofday () -. started;
    nodes = Atomic.get counters.nodes;
    analyze_calls = Atomic.get counters.analyze_calls;
    pgd_calls = Atomic.get counters.pgd_calls;
    transformer_calls = Atomic.get counters.transformer_calls;
    peak_depth = Atomic.get counters.peak_depth;
    workers;
    domains_used =
      (* Workers have all joined, so the lock is uncontended — it is
         taken anyway to keep the guard discipline machine-checkable. *)
      (Mutex.lock counters.domains_mutex;
       let used =
         Hashtbl.fold (fun spec n acc -> (spec, n) :: acc) counters.domains []
       in
       Mutex.unlock counters.domains_mutex;
       used);
    cache_lookups = Atomic.get counters.cache_lookups;
    cache_hits = Atomic.get counters.cache_hits;
    kernel_fanouts = 0;
  }

(* ------------------------------------------------------------------ *)
(* Resumable subtree verification (charon-dverify's worker unit).

   One shard of a distributed split-and-conquer run verifies a subtree
   rooted at some sub-box of the original property, entering the
   recursion at the depth that produced the sub-box so depth caps and
   canonical-partition keys line up with a single-process run.  It is
   the search loop at one worker, with a stop hook for the budget
   (per-shard, escalated by the coordinator across re-deals) and a
   cooperative [yield] (the coordinator's work-stealing request).
   Stopping early is not an answer — the unexplored frontier travels
   back to the caller so no region's proof obligation is ever
   dropped. *)

type subtree_outcome =
  | Subtree_proved
  | Subtree_refuted of Linalg.Vec.t
  | Subtree_unknown
  | Subtree_yielded

type subtree_report = {
  subtree_outcome : subtree_outcome;
  frontier : (Box.t * int) list;
  subtree_nodes : int;
  subtree_analyze_calls : int;
  subtree_pgd_calls : int;
  subtree_transformer_calls : int;
  subtree_cache_lookups : int;
  subtree_cache_hits : int;
  subtree_elapsed : float;
}

let run_subtree ?(config = default_config)
    ?(budget = Common.Budget.unlimited ()) ?cancel ?(yield = fun () -> false)
    ?proofcache ?(root_depth = 0) ~rng ~policy net
    (prop : Common.Property.t) =
  if root_depth < 0 then
    invalid_arg "Verify.run_subtree: root_depth must be non-negative";
  let started = Unix.gettimeofday () in
  let ctx =
    make_ctx ~config ~budget ~cancel ~on_progress:None ~proofcache ~policy net
      prop
  in
  let stop () =
    yield () || Common.Budget.exhausted ctx.budget || ctx.ext_cancelled ()
  in
  let outcome, unexplored =
    search ctx ~workers:1 ~rng ~stop prop.Common.Property.region
      ~depth:root_depth
  in
  let c = ctx.ctrs in
  {
    subtree_outcome =
      (match outcome with
      | Common.Outcome.Verified -> Subtree_proved
      | Common.Outcome.Refuted x -> Subtree_refuted x
      | Common.Outcome.Unknown -> Subtree_unknown
      | Common.Outcome.Timeout -> Subtree_yielded);
    frontier = List.map (fun it -> (it.region, it.depth)) unexplored;
    subtree_nodes = Atomic.get c.nodes;
    subtree_analyze_calls = Atomic.get c.analyze_calls;
    subtree_pgd_calls = Atomic.get c.pgd_calls;
    subtree_transformer_calls = Atomic.get c.transformer_calls;
    subtree_cache_lookups = Atomic.get c.cache_lookups;
    subtree_cache_hits = Atomic.get c.cache_hits;
    subtree_elapsed = Unix.gettimeofday () -. started;
  }
