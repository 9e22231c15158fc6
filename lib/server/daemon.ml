(* The charon-serve daemon: a Unix-domain socket and/or a TCP listener
   in front of the Scheduler.

   The accept loop is deliberately single-threaded: every request is a
   metadata operation (enqueue, table lookup, counter snapshot) that
   completes in microseconds, while the heavy lifting happens on the
   scheduler's pool domains.  Clients therefore never wait on each
   other's verifications, only on each request's fixed cost in this
   loop: framing and parsing its line, and the verdict-cache key.  For
   a submit carrying a 226 KB network that is about 2.5 ms on a 2-vCPU
   host (4 ms at 456 KB) — and the listen backlog absorbs bursts.  What a single-threaded loop must
   defend is its own liveness against a slow or hostile peer, so every
   accepted connection gets a receive/send timeout (a stalled client
   costs at most [io_timeout] seconds, never a wedge) and a line-length
   bound (newline-free garbage costs at most [max_line] bytes).

   Transports and trust: the Unix socket is the *trusted* local
   endpoint — filesystem permissions are the credential, requests are
   anonymous, and the first line of a connection is the request itself.
   TCP reaches beyond the machine, so when tenants are configured a TCP
   connection must open with a [hello] carrying the protocol version
   and an API key (Protocol.Serve); the daemon answers [hello_ok] or a
   terminal code="version"/"auth" reject before reading any request.
   A hello is also accepted (never required) on the Unix socket, so a
   client that always greets works on both transports.

   Lifecycle: [start] binds the listeners and runs the accept loop on a
   spawned domain until a shutdown request arrives; the loop then
   drains the scheduler (cancelling all pending work), closes and
   unlinks the sockets, and its domain ends.  [wait] joins it; [stop]
   asks for the shutdown itself first. *)

module J = Telemetry.Jsonw

let c_connections = Telemetry.Metrics.counter "serve.connections"

let c_conn_errors = Telemetry.Metrics.counter "serve.connection_errors"

let c_bad_requests = Telemetry.Metrics.counter "serve.bad_requests"

let c_auth_failures = Telemetry.Metrics.counter "serve.auth_failures"

let io_timeout = 10.0  (* seconds a connection may stall before we drop it *)

let default_max_line = 8 * 1024 * 1024  (* bytes; a dim-1000 network fits *)

let dispatch sched ~tenant json =
  match Protocol.of_json json with
  | Protocol.Submit spec -> (Scheduler.submit ~tenant sched spec, `Continue)
  | Protocol.Status { id; since } ->
      (Scheduler.status sched ~id ~since, `Continue)
  | Protocol.Cancel id -> (Scheduler.cancel sched id, `Continue)
  | Protocol.Stats -> (Scheduler.stats sched, `Continue)
  | Protocol.Ping ->
      ( Protocol.ok
          [
            ("pong", J.Bool true);
            ("workers", J.Int (Scheduler.workers sched));
          ],
        `Continue )
  | Protocol.Shutdown -> (Protocol.ok [ ("stopping", J.Bool true) ], `Stop)
  | exception Protocol.Bad_request msg ->
      Telemetry.Metrics.incr c_bad_requests;
      (Protocol.reject ~code:"bad_request" ~retryable:false msg, `Continue)

(* The peer may be gone by the time we answer; a failed response write
   must cost the connection, never the accept loop. *)
let try_send oc json =
  try Protocol.send oc json
  with Sys_error _ | Unix.Unix_error _ -> Telemetry.Metrics.incr c_conn_errors

(* Who is this connection?  [Ok tenant] to proceed, [Error msg] for an
   auth reject.  Keys always win when presented (even locally — it lets
   a tenant exercise its quota through the Unix socket); the trusted
   transport falls back to the anonymous principal, untrusted TCP only
   does so when no tenants are configured (an open instance). *)
let authenticate ~tenants ~trusted = function
  | Some key -> (
      match Tenant.find_key tenants key with
      | Some tn -> Ok tn
      | None -> Error "unknown API key")
  | None ->
      if trusted || not (Tenant.configured tenants) then Ok Tenant.anonymous
      else Error "an API key is required on this transport"

(* One request/response exchange on an accepted connection.  Client
   misbehaviour (malformed JSON, oversized or torn lines, early hangup,
   a stall tripping the socket timeout) must never take the accept
   loop down, so the whole exchange runs under one handler that turns
   protocol faults into structured rejects and transport faults into
   counted drops. *)
let handle_connection sched ~tenants ~trusted ~max_line fd =
  Telemetry.Metrics.incr c_connections;
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout
   with Unix.Unix_error _ -> ());
  (* Each channel must own its *own* descriptor.  Two channels over one
     fd close it twice, and in a multi-domain process the second
     close(2) lands on a number the kernel may already have reused for
     somebody else's live connection — observed as phantom resets under
     the soak test.  [dup] gives the reader a private descriptor; if it
     fails (fd exhaustion) the connection is dropped, never the loop. *)
  match Unix.dup fd with
  | exception Unix.Unix_error _ ->
      Telemetry.Metrics.incr c_conn_errors;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      `Continue
  | rfd ->
  let ic = Unix.in_channel_of_descr rfd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (* Output first: it flushes, then closes [fd]; the input close
         releases [rfd]. *)
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () ->
      let recv () = Protocol.recv ~max_len:max_line ic in
      let answer ~tenant json =
        let response, verdict = dispatch sched ~tenant json in
        try_send oc response;
        verdict
      in
      try
        match recv () with
        | None -> `Continue
        | Some first when Protocol.Serve.is_hello first -> (
            let hello = Protocol.Serve.hello_of_json first in
            if hello.Protocol.Serve.version <> Protocol.Serve.version then begin
              Telemetry.Metrics.incr c_bad_requests;
              try_send oc
                (Protocol.reject ~code:"version" ~retryable:false
                   (Printf.sprintf
                      "protocol version %d not supported (this daemon \
                       speaks %d)"
                      hello.Protocol.Serve.version Protocol.Serve.version));
              `Continue
            end
            else
              match
                authenticate ~tenants ~trusted hello.Protocol.Serve.api_key
              with
              | Error msg ->
                  Telemetry.Metrics.incr c_auth_failures;
                  try_send oc (Protocol.reject ~code:"auth" ~retryable:false msg);
                  `Continue
              | Ok tenant -> (
                  try_send oc
                    (Protocol.Serve.hello_ok ~tenant:tenant.Tenant.name);
                  match recv () with
                  | None -> `Continue
                  | Some json -> answer ~tenant json))
        | Some first ->
            if (not trusted) && Tenant.configured tenants then begin
              Telemetry.Metrics.incr c_auth_failures;
              try_send oc
                (Protocol.reject ~code:"auth" ~retryable:false
                   "TCP connections must open with a hello carrying an API \
                    key");
              `Continue
            end
            else answer ~tenant:Tenant.anonymous first
      with
      | J.Parse_error msg ->
          Telemetry.Metrics.incr c_bad_requests;
          try_send oc
            (Protocol.reject ~code:"bad_request" ~retryable:false
               ("malformed request: " ^ msg));
          `Continue
      | Protocol.Bad_request msg ->
          Telemetry.Metrics.incr c_bad_requests;
          try_send oc (Protocol.reject ~code:"bad_request" ~retryable:false msg);
          `Continue
      | Protocol.Oversized_line n ->
          Telemetry.Metrics.incr c_bad_requests;
          try_send oc
            (Protocol.reject ~code:"oversized" ~retryable:false
               (Printf.sprintf "line exceeded %d bytes (%d read)" max_line n));
          `Continue
      | Protocol.Torn_line _ ->
          (* The client hung up mid-request; there is nobody left to
             answer, so just count it. *)
          Telemetry.Metrics.incr c_conn_errors;
          `Continue
      | Unix.Unix_error _ | Sys_error _ | End_of_file ->
          (* Includes the receive timeout on a stalled peer. *)
          Telemetry.Metrics.incr c_conn_errors;
          `Continue
      | e ->
          (* Last line of defence for the single-threaded loop: a bug
             anywhere under dispatch must cost this one request a
             structured reject, never the daemon.  The exception text
             goes to the client — the operator debugging it is on
             localhost or holds an API key already.  Genuinely fatal
             conditions still propagate: a daemon that is out of memory
             must die loudly, not keep answering rejects. *)
          (match e with
          | Out_of_memory | Stack_overflow -> raise e
          | _ -> ());
          Telemetry.Metrics.incr c_conn_errors;
          try_send oc
            (Protocol.reject ~code:"internal" ~retryable:true
               ("internal error: " ^ Printexc.to_string e));
          `Continue)

let bind_socket path =
  (* A stale socket file from a crashed daemon would make bind fail;
     removing it is safe because binds race only with another live
     daemon on the same path, which is operator error either way. *)
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64
  with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let bind_tcp ~host ~port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "cannot resolve bind host %S" host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64
  with
  | () ->
      (* Port 0 asks the kernel for an ephemeral port (tests);
         getsockname reports what was actually bound. *)
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      (fd, bound)
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

type listener = { lfd : Unix.file_descr; trusted : bool }

(* [stop_flag] is the out-of-band kill switch for embedded daemons:
   {!stop} may be unable to authenticate a wire shutdown (a TCP-only
   daemon under tenancy rejects its own anonymous stop request), so it
   raises the flag instead and lets that very connection wake the
   select — the loop rechecks the flag after every wakeup. *)
let accept_loop sched ~tenants ~max_line ~stop_flag listeners =
  let fds = List.map (fun l -> l.lfd) listeners in
  let rec loop () =
    if Atomic.get stop_flag then ()
    else
      match Unix.select fds [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
          let stop =
            List.exists
              (fun fd ->
                let l = List.find (fun l -> l.lfd == fd) listeners in
                match Unix.accept fd with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
                | client, _ -> (
                    match
                      handle_connection sched ~tenants ~trusted:l.trusted
                        ~max_line client
                    with
                    | `Continue -> false
                    | `Stop -> true))
              ready
          in
          if stop || Atomic.get stop_flag then () else loop ()
  in
  loop ()

let run_until_shutdown ?socket ~stop_flag sched ~tenants ~max_line listeners =
  (* A client that disconnects mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched;
      List.iter
        (fun l -> try Unix.close l.lfd with Unix.Unix_error _ -> ())
        listeners;
      match socket with
      | Some path when Sys.file_exists path -> Sys.remove path
      | Some _ | None -> ())
    (fun () -> accept_loop sched ~tenants ~max_line ~stop_flag listeners)

let make_listeners ?socket ?tcp () =
  let cannot_listen where err =
    failwith
      (Printf.sprintf "cannot listen on %s: %s" where (Unix.error_message err))
  in
  let unix_l =
    Option.map
      (fun path ->
        match bind_socket path with
        | fd -> { lfd = fd; trusted = true }
        | exception Unix.Unix_error (err, _, _) -> cannot_listen path err)
      socket
  in
  let tcp_l, bound_port =
    match tcp with
    | None -> (None, None)
    | Some (host, port) -> (
        match bind_tcp ~host ~port with
        | fd, bound -> (Some { lfd = fd; trusted = false }, Some bound)
        | exception e -> (
            (* Leave nothing behind: close and unlink the Unix socket
               this start-up already bound. *)
            Option.iter
              (fun l -> try Unix.close l.lfd with Unix.Unix_error _ -> ())
              unix_l;
            Option.iter
              (fun path -> try Sys.remove path with Sys_error _ -> ())
              socket;
            match e with
            | Unix.Unix_error (err, _, _) ->
                cannot_listen (Printf.sprintf "%s:%d" host port) err
            | e -> raise e))
  in
  match List.filter_map Fun.id [ unix_l; tcp_l ] with
  | [] -> invalid_arg "Daemon: need a Unix socket path or a TCP endpoint"
  | listeners -> (listeners, bound_port)

type handle = {
  socket : string option;
  port : int option;
  stop_flag : bool Atomic.t;
  loop : unit Domain.t;
}
[@@race.atomic]

let start ?socket ?tcp ?workers ?cache_capacity ?proofcache_capacity
    ?proofcache_persist ?store_path ?queue_capacity
    ?(tenants = Tenant.empty) ?(max_line = default_max_line) () =
  (* The daemon's whole point is serving live counters (cache hit
     rate, queue depth) back to clients, so metrics are always on. *)
  if not (Telemetry.enabled ()) then Telemetry.enable ();
  (* Bind synchronously so a client may connect the moment [start]
     returns; only the accept loop moves to the spawned domain. *)
  let listeners, port = make_listeners ?socket ?tcp () in
  let sched =
    Scheduler.create ?workers ?cache_capacity ?proofcache_capacity
      ?proofcache_persist ?store_path ?queue_capacity ~tenants ()
  in
  let stop_flag = Atomic.make false in
  {
    socket;
    port;
    stop_flag;
    loop =
      Domain.spawn (fun () ->
          run_until_shutdown ?socket ~stop_flag sched ~tenants ~max_line
            listeners);
  }

let wait handle = Domain.join handle.loop

let stop handle =
  let addr =
    match (handle.socket, handle.port) with
    | Some path, _ -> Client.Unix_socket path
    | None, Some port -> Client.Tcp ("127.0.0.1", port)
    | None, None -> assert false  (* make_listeners refused this *)
  in
  (* Raise the flag first: even when the wire shutdown below is refused
     (a TCP-only daemon under tenancy rejects the anonymous request),
     the rejected connection wakes the select and the loop sees the
     flag. *)
  Atomic.set handle.stop_flag true;
  (try ignore (Client.shutdown ~addr ())
   with
  | Unix.Unix_error _ | Sys_error _ | Client.Server_error _
  | Client.Rejected _ ->
      (* Already stopping or stopped; joining below is still correct
         because the loop domain exits on its own shutdown path. *)
      ());
  wait handle

let tcp_port handle = handle.port
