(** charon-dverify coordinator: shard one hard verification across N
    worker processes over the [Protocol.Dist] session (message grammar
    and policies: docs/serving.md, "Distributed split-and-conquer").

    The coordinator cuts the input box into canonical initial splits
    ({!Domains.Partition} cuts, so shard results keep canonical
    proof-cache keys), deals them to spawned worker processes, each of
    which works on its split until it is decided, steals unexplored
    splits back from busy shards when a worker sits idle, broadcasts
    cancel the moment any shard refutes, and — the crash-safety core —
    re-queues a dead worker's outstanding split so a SIGKILLed worker
    never loses a verdict.  [Verified] is returned only when every
    split has been explicitly proved.  Its events (worker messages,
    deaths, timer ticks) arrive on one {!Jobq} mailbox. *)

type config = {
  workers : int;  (** worker processes to spawn *)
  initial_splits : int;
      (** lower bound on initial canonical splits; [0] means
          [4 * workers] *)
  trace_dir : string option;
      (** write [worker-N.jsonl] telemetry traces here (and point each
          worker's [CHARON_WORKER_TRACE] at its file) *)
  proofcache_persist : string option;
      (** shared proof-cache journal path handed to every worker, so
          shard facts land in one reusable cache *)
  crash_injection : (int * int) option;
      (** [(i, k)]: initial worker [i] runs with
          [CHARON_DVERIFY_CRASH_AFTER=k] (test/CI hook; replacements
          never inherit it) *)
}

val default_config : workers:int -> config
(** 4x[workers] initial splits, no traces, no shared cache, no crash
    injection.  Raises [Invalid_argument] when [workers < 1]. *)

type stats = {
  initial_splits : int;
  dealt : int;  (** splits handed to workers (incl. re-deals) *)
  stolen : int;  (** frontier entries reclaimed by steal requests *)
  reassigned : int;  (** outstanding splits re-queued off dead workers *)
  escalated : int;
      (** always 0: splits come back only when stolen (kept for
          readers of the old stats) *)
  worker_deaths : int;
      (** pre-verdict EOFs/kills observed (handshake rejects and
          orderly post-verdict drain exits not included) *)
  respawns : int;
  handshake_rejects : int;
  shard_walls : (int * float) list;
      (** per worker slot: seconds spent busy on splits *)
}

type result = { outcome : Common.Outcome.t; elapsed : float; stats : stats }

val run :
  worker_cmd:string array -> ?config:config -> Protocol.job_spec -> result
(** Verify [spec] across [config.workers] processes spawned from
    [worker_cmd] (argv; [worker_cmd.(0)] is the executable — typically
    the host binary re-executing itself with a worker flag).  The
    spec's [timeout] is the global wall budget; [max_steps] is ignored
    (a split runs until it is decided or stolen).

    The verdict has [Verify.run] semantics: [Verified] iff every
    subregion was proved, [Refuted x] with a transport-exact witness
    the moment any shard finds one (upgrading a concurrent
    Timeout/Unknown, never the reverse), [Timeout] on wall-budget
    exhaustion or when every worker has died with work left, [Unknown]
    when a shard hits a precision limit.  Worker crashes — including
    SIGKILL mid-split — never lose work: the dead worker's outstanding
    split is re-dealt, and up to [config.workers] replacements are
    spawned over the run.  Once the verdict is settled, workers still
    running after 5 s are SIGKILLed.

    @raise Failure when no worker ever passed the handshake (e.g. a
    protocol version mismatch rejected the whole fleet).
    @raise Invalid_argument on an empty [worker_cmd] or
    [config.workers < 1]. *)
