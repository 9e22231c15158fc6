(** Thin charon-serve client: one connection per request, line-framed
    JSON both ways, over a Unix socket or TCP.  Used by the [charon]
    client subcommands and the server lifecycle tests.

    TCP connections (and any connection carrying an API key) open with
    the versioned hello handshake before the request; bare Unix-socket
    requests keep the original single-transport wire format. *)

type addr = Unix_socket of string | Tcp of string * int

exception Server_error of string
(** An unstructured [{"ok": false}] response, a malformed response, or
    a poll deadline expiring. *)

exception Rejected of { code : string; retryable : bool; message : string }
(** A structured refusal from the daemon — [code] is machine-readable
    (["busy"], ["quota"], ["auth"], ["version"], ["oversized"],
    ["bad_request"], ["shutting_down"]) and [retryable] says whether
    backing off and resending can succeed. *)

val addr_to_string : addr -> string

val request : ?api_key:string -> addr:addr -> Protocol.request -> Telemetry.Jsonw.t
(** Lowest level: connect (handshaking first on TCP or when [api_key]
    is given), send, read one response, disconnect.  The response is
    returned as-is, [ok] or not.
    @raise Rejected when the handshake itself is refused.
    @raise Unix.Unix_error when the daemon is not listening. *)

val submit :
  ?api_key:string -> addr:addr -> Protocol.job_spec -> int * Telemetry.Jsonw.t
(** Submit and return [(job id, full response)].
    @raise Rejected on a structured refusal (queue full, quota, auth).
    @raise Server_error on an unstructured one. *)

val status : ?api_key:string -> addr:addr -> ?since:int -> int -> Telemetry.Jsonw.t

val cancel : ?api_key:string -> addr:addr -> int -> Telemetry.Jsonw.t

val stats : ?api_key:string -> addr:addr -> unit -> Telemetry.Jsonw.t

val ping : ?api_key:string -> addr:addr -> unit -> Telemetry.Jsonw.t

val shutdown : ?api_key:string -> addr:addr -> unit -> Telemetry.Jsonw.t

val job_state : Telemetry.Jsonw.t -> string
(** The ["state"] field of a submit/status/cancel response. *)

val terminal : string -> bool
(** Whether a state string is final: done, cancelled, or failed. *)

val wait :
  ?api_key:string -> addr:addr -> ?poll_interval:float -> ?deadline:float ->
  int -> Telemetry.Jsonw.t
(** Poll {!status} every [poll_interval] seconds (default 20ms) until
    the job reaches a terminal state; returns the final status.
    @raise Server_error if [deadline] seconds pass first. *)
