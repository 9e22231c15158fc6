(** The charon-serve daemon: a single-threaded accept loop over a
    Unix-domain socket and/or a TCP listener, dispatching line-framed
    JSON requests ({!Protocol}) to a {!Scheduler} whose pool domains do
    the actual verification.  Wire format, tenancy and operational
    notes: docs/serving.md.

    The Unix socket is the trusted local endpoint (anonymous requests;
    filesystem permissions are the credential).  TCP connections must
    open with the {!Protocol.Serve} hello handshake whenever tenants
    are configured; unknown keys and version mismatches get terminal
    structured rejects.  Every accepted connection runs under a
    receive/send timeout and a line-length bound, so a slow, stalled or
    hostile peer cannot wedge the accept loop or balloon its memory.

    {!start} forces telemetry metrics on — live counters (cache hit
    rate, queue depth, per-job wall times) are part of the service's
    responses. *)

type handle

val start :
  ?socket:string ->
  ?tcp:string * int ->
  ?workers:int ->
  ?cache_capacity:int ->
  ?proofcache_capacity:int ->
  ?proofcache_persist:string ->
  ?store_path:string ->
  ?queue_capacity:int ->
  ?tenants:Tenant.t ->
  ?max_line:int ->
  unit ->
  handle
(** Bind [socket] (replacing a stale socket file) and/or [tcp] (a
    [(host, port)] endpoint; port 0 binds an ephemeral port, see
    {!tcp_port}) synchronously — clients may connect as soon as [start]
    returns — and run the accept loop on a spawned domain until a
    shutdown request arrives; then cancel all pending jobs, join every
    worker domain, close and unlink the sockets.  [workers],
    [cache_capacity], [proofcache_capacity] / [proofcache_persist] (the
    scheduler-wide subregion proof cache), [store_path] (the persistent
    verdict store) and [queue_capacity] (the bounded fair-share run
    queue) go to {!Scheduler.create}, which documents their defaults.
    [tenants] is the API-key registry ({!Tenant.load}); [max_line]
    (default 8 MiB) bounds a request line.
    @raise Invalid_argument when neither [socket] nor [tcp] is
    given.
    @raise Failure ["cannot listen on WHERE: REASON"] when a bind
    fails (say, a TCP port already in use); nothing stays bound. *)

val wait : handle -> unit
(** Block until the accept loop has shut down (a shutdown request, or
    {!stop}) and join its domain. *)

val stop : handle -> unit
(** Send a shutdown request and join the loop domain.  After [stop]
    returns, no domain started by {!start} is still running and the
    socket file has been removed. *)

val socket_path : handle -> string option

val tcp_port : handle -> int option
(** The actually-bound TCP port (resolves port 0 to the kernel's
    choice), when a TCP endpoint was requested. *)
