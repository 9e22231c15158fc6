(** charon-dverify worker process: verifies split subtrees assigned by
    {!Coordinator} over the [Protocol.Dist] session on its
    stdin/stdout.  The [charon worker] subcommand runs it, so the
    coordinator can spawn its own executable as the worker.

    Environment:
    - [CHARON_WORKER_TRACE]: path; enables JSONL telemetry traces.
    - [CHARON_DVERIFY_CRASH_AFTER]: integer k; the worker SIGKILLs
      itself on receiving its (k+1)-th split (crash-injection hook for
      the CI distributed lane and the reassignment tests). *)

val main : ?ic:in_channel -> ?oc:out_channel -> unit -> int
(** Run the worker session on [ic]/[oc] (default stdin/stdout) until
    the coordinator cancels, the work drains, or the stream dies.
    Returns the process exit code: 0 orderly, 2 protocol violation,
    3 handshake refused (version mismatch). *)
