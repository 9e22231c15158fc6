(** The charon-serve job scheduler: a job table, a priority-aged
    fair-share queue of *runs* (one execution per distinct verification
    question — duplicate submits coalesce onto the in-flight run as
    followers), and a pool of worker domains draining it through
    [Charon.Verify.run] with per-run budgets and cooperative
    cancellation, fronted by the {!Cache} verdict cache (an LRU hot
    set over an optional persistent {!Store}).

    All entry points return the wire-ready JSON response the daemon
    writes back, so the accept loop stays a thin dispatcher.  Every
    function is safe to call from any domain. *)

type t

val create :
  ?workers:int ->
  ?cache_capacity:int ->
  ?proofcache_capacity:int ->
  ?proofcache_persist:string ->
  ?store_path:string ->
  ?queue_capacity:int ->
  ?tenants:Tenant.t ->
  unit ->
  t
(** Start the pool ([workers], default 4, worker domains inside one
    supervisor domain), an empty verdict cache, and one subregion proof
    cache ([Charon.Proofcache], capacity [proofcache_capacity], default
    65536) shared by every run the pool executes — overlapping queries
    from different clients reuse each other's subregion proofs.
    [proofcache_persist] names the proof cache's JSONL journal;
    [store_path] names the persistent *verdict* store's journal (solved
    verdicts are replayed from it on create and appended as runs solve
    new ones, so restarts answer old questions from disk).
    [queue_capacity] (default 256) bounds the run queue — submits
    beyond it get a retryable code=["busy"] reject.
    [tenants] seeds the per-tenant accounting in config order.
    Returns immediately.
    @raise Invalid_argument when [workers < 1] or
    [queue_capacity < 1]. *)

val submit : ?tenant:Tenant.tenant -> t -> Protocol.job_spec -> Telemetry.Jsonw.t
(** Enqueue a job for [tenant] (default {!Tenant.anonymous}) — or
    answer synchronously when the verdict cache hits (the response's
    [cache.hit] is [true] and [cache.cold_wall_seconds] reports what
    the cold run cost), or attach to an identical in-flight run (the
    response's [coalesced] is [true]; the job settles when that run
    does).  The response carries the job [id] used by {!status} and
    {!cancel}.  Refusals are structured rejects: code=["quota"] when
    the tenant's outstanding-jobs quota is reached (retryable once one
    settles), code=["busy"] when the run queue is full (retryable with
    backoff), code=["shutting_down"] after {!shutdown}. *)

val status : t -> id:int -> since:int -> Telemetry.Jsonw.t
(** Snapshot of one job: state, progress (nodes explored, peak split
    depth — updated live by the running worker), verdict when done,
    and the status events with sequence number at least [since]
    (queued → running → verdict/cancelled/failed).  Poll with
    [since = next_seq] of the previous response to stream events
    without duplicates. *)

val cancel : t -> int -> Telemetry.Jsonw.t
(** Cancel a job.  A job sharing its run with other attachments
    detaches and settles immediately — the run (and everyone else
    riding it) is untouched.  The sole attachment of a queued run
    settles immediately and kills the run; the sole attachment of an
    executing run has the run's token flagged and stops at the
    verifier's next region poll.  Terminal jobs are returned
    unchanged. *)

val stats : t -> Telemetry.Jsonw.t
(** Queue depth/capacity (total and per tenant), queued and in-flight
    (claimed-by-a-worker, so never above [workers]) and peak in-flight
    run counts, per-state tallies, the coalescing block (questions in
    flight now and at peak, and followers attached — the sum of the
    tenants' [coalesced] counts), the per-tenant
    accounting blocks (accepted/rejected/coalesced counts and
    queue-age mean/p95/max), verdict-cache, persistent-store and
    proof-cache statistics (each with a hit rate), and the non-zero
    telemetry counters. *)

val shutdown : t -> unit
(** Close the queue, cancel every queued and running run, join the
    pool — no worker domain outlives this call — and close the proof
    cache and verdict store journals.  Idempotent. *)

val workers : t -> int
