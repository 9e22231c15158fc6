(* Thin client for the charon-serve wire protocol: one connection per
   request, line-framed JSON both ways (see Protocol).  Shared by the
   `charon` client subcommands (submit, status, cancel, stats, ping,
   shutdown) and the server lifecycle tests.

   Transports: a Unix socket connection sends the request directly
   (trusted, anonymous); a TCP connection — or any connection carrying
   an API key — opens with the versioned [hello] handshake and only
   sends the request after [hello_ok].  Structured refusals from the
   daemon (busy / quota / auth / version ...) surface as [Rejected]
   with their machine code and retryability bit, so callers can back
   off without parsing prose. *)

module J = Telemetry.Jsonw

type addr = Unix_socket of string | Tcp of string * int

exception Server_error of string

exception Rejected of { code : string; retryable : bool; message : string }

let addr_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let connect addr =
  match addr with
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match
            Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ]
          with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ ->
              raise
                (Server_error (Printf.sprintf "cannot resolve host %S" host)))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd

(* Raise the daemon's refusal in structured form when it carries a
   code, as prose otherwise. *)
let raise_refusal json =
  let message =
    match Option.bind (J.member "error" json) J.to_string_opt with
    | Some msg -> msg
    | None -> "malformed response: " ^ J.to_string json
  in
  match Protocol.reject_code json with
  | Some code ->
      raise (Rejected { code; retryable = Protocol.reject_retryable json;
                        message })
  | None -> raise (Server_error message)

let recv_or_fail ic =
  match Protocol.recv ic with
  | Some json -> json
  | None -> raise (Server_error "connection closed before a response")
  | exception Protocol.Torn_line n ->
      (* A dying daemon can flush a partial line before the socket
         drops; surfacing it as success would hand the caller a
         truncated verdict. *)
      raise
        (Server_error
           (Printf.sprintf
              "connection closed mid-response (%d bytes of a torn message)" n))

let request ?api_key ~addr req =
  let fd = connect addr in
  (* The reader gets a duplicated descriptor so that each channel owns
     exactly one fd: closing two channels over a single fd double-closes
     it, and under concurrency the second close(2) can hit a reused
     number — another thread's live connection. *)
  let rfd =
    try Unix.dup fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  let ic = Unix.in_channel_of_descr rfd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (* Output first (flushes, closes [fd]), then the reader's dup. *)
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () ->
      (* TCP daemons with tenants configured demand the handshake;
         greeting whenever we are on TCP or hold a key works against
         every daemon configuration, while bare Unix-socket requests
         keep the single-transport wire format unchanged. *)
      let must_hello =
        match addr with Tcp _ -> true | Unix_socket _ -> api_key <> None
      in
      if must_hello then begin
        Protocol.send oc
          (Protocol.Serve.hello_to_json
             { Protocol.Serve.version = Protocol.Serve.version; api_key });
        let greeting = recv_or_fail ic in
        match J.member "ok" greeting with
        | Some (J.Bool true) -> ()
        | Some _ | None -> raise_refusal greeting
      end;
      Protocol.send oc (Protocol.to_json req);
      recv_or_fail ic)

let ok_or_error json =
  match J.member "ok" json with
  | Some (J.Bool true) -> json
  | _ -> raise_refusal json

let submit ?api_key ~addr spec =
  let json = ok_or_error (request ?api_key ~addr (Protocol.Submit spec)) in
  match Option.bind (J.member "id" json) J.to_int_opt with
  | Some id -> (id, json)
  | None -> raise (Server_error "submit response carries no job id")

let status ?api_key ~addr ?(since = 0) id =
  ok_or_error (request ?api_key ~addr (Protocol.Status { id; since }))

let cancel ?api_key ~addr id =
  ok_or_error (request ?api_key ~addr (Protocol.Cancel id))

let stats ?api_key ~addr () =
  ok_or_error (request ?api_key ~addr Protocol.Stats)

let ping ?api_key ~addr () = ok_or_error (request ?api_key ~addr Protocol.Ping)

let shutdown ?api_key ~addr () =
  ok_or_error (request ?api_key ~addr Protocol.Shutdown)

let job_state json =
  match Option.bind (J.member "state" json) J.to_string_opt with
  | Some s -> s
  | None -> raise (Server_error "status response carries no state")

let terminal state =
  match state with
  | "done" | "cancelled" | "failed" -> true
  | _ -> false

(* Polling loop: statuses are cheap (no verification work happens on
   the daemon's accept thread), so a tight-ish poll keeps latency low
   without bothering the pool. *)
let wait ?api_key ~addr ?(poll_interval = 0.02) ?deadline id =
  let started = Unix.gettimeofday () in
  let rec go () =
    let json = status ?api_key ~addr id in
    if terminal (job_state json) then json
    else begin
      (match deadline with
      | Some d when Unix.gettimeofday () -. started > d ->
          raise
            (Server_error
               (Printf.sprintf "job %d still running after %gs" id d))
      | Some _ | None -> ());
      Unix.sleepf poll_interval;
      go ()
    end
  in
  go ()
