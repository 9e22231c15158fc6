(** The charon-serve wire protocol: one compact JSON document per line
    in each direction, over a Unix-domain stream socket.  A connection
    carries exactly one request/response pair.  Schema and examples:
    docs/serving.md. *)

module J = Telemetry.Jsonw

type job_spec = {
  name : string;  (** free-form label echoed in status responses *)
  network : string;  (** the network in [Nn.Serial] text form *)
  box : Domains.Box.t;  (** input region *)
  target : int;  (** robustness target class K *)
  delta : float;  (** δ of the δ-complete counterexample test *)
  timeout : float option;  (** per-job wall-clock budget, seconds *)
  max_steps : int option;  (** per-job transformer-call budget *)
  seed : int;  (** RNG seed for the job's PGD stream *)
}

type request =
  | Submit of job_spec
  | Status of { id : int; since : int }
      (** poll job [id], returning events with sequence number >= [since] *)
  | Cancel of int
  | Stats
  | Ping
  | Shutdown

exception Bad_request of string
(** Raised by the parsing functions on malformed or ill-typed input;
    the daemon turns it into an [error] response. *)

exception Torn_line of int
(** The peer closed the stream in the middle of a message: EOF arrived
    after that many bytes of an unterminated line.  Clients must treat
    this as failure (never as a response); the dverify coordinator
    treats it as a worker death. *)

exception Oversized_line of int
(** A line exceeded the reader's [max_len] bound: the reader had seen
    that many bytes of it (more than [max_len], at most one channel
    buffer more) when it gave up.  The daemon answers with a
    code=["oversized"] reject and closes the connection. *)

val send : out_channel -> J.t -> unit
(** Write one line-framed compact JSON document and flush. *)

val recv : ?max_len:int -> in_channel -> J.t option
(** Read one line-framed document; [None] on clean EOF (the stream
    ended exactly on a message boundary).  [max_len] (default
    unbounded) caps the line length in bytes — the daemon's defence
    against a peer streaming newline-free garbage: the line costs at
    most [max_len] bytes plus one channel buffer.  The line is taken a
    channel buffer at a time, and nothing past its ['\n'] is consumed,
    so the next line stays in the channel.
    @raise Torn_line on EOF mid-message.
    @raise Oversized_line when a line exceeds [max_len].
    @raise J.Parse_error on malformed JSON. *)

val to_json : request -> J.t

val of_json : J.t -> request
(** @raise Bad_request on unknown ops or missing/ill-typed fields. *)

val outcome_to_json : Common.Outcome.t -> J.t
(** [{"verdict": "verified" | "falsified" | "timeout" | "unknown"}],
    with a bit-exact [witness] float-string array when falsified. *)

val outcome_of_json : J.t -> Common.Outcome.t
(** @raise Bad_request on malformed verdicts. *)

val ok : (string * J.t) list -> J.t
(** [{"ok": true, ...fields}] *)

val error : string -> J.t
(** [{"ok": false, "error": msg}] *)

val reject : code:string -> retryable:bool -> string -> J.t
(** [{"ok": false, "error": msg, "code": code, "retryable": b}] — a
    structured refusal.  Codes in use: ["busy"] (queue full, retryable),
    ["quota"] (tenant's outstanding-job limit), ["auth"] (unknown or
    missing API key), ["version"] (handshake mismatch), ["oversized"],
    ["bad_request"], ["shutting_down"]. *)

val reject_code : J.t -> string option
(** The [code] of a structured reject, if present. *)

val reject_retryable : J.t -> bool
(** The [retryable] bit of a reject; [false] when absent. *)

(** The multi-tenant TCP handshake.  Unix-socket connections stay
    anonymous (the socket path's filesystem permissions are the
    credential) and send their request directly; TCP connections must
    open with [hello] (version + API key) and wait for [hello_ok] —
    or a terminal code=["version"]/["auth"] reject — before the
    request line. *)
module Serve : sig
  val version : int

  type hello = { version : int; api_key : string option }

  val hello_to_json : hello -> J.t

  val is_hello : J.t -> bool
  (** [true] for [{"op": "hello", ...}] — lets the daemon accept an
      optional hello on the trusted Unix socket too (a client that
      always greets works on both transports). *)

  val hello_of_json : J.t -> hello
  (** @raise Bad_request on missing/ill-typed fields. *)

  val hello_ok : tenant:string -> J.t
  (** [{"ok": true, "op": "hello_ok", "version": v, "tenant": name}] *)
end

(** The charon-dverify coordinator/worker message set: same line
    framing over a worker process's stdin/stdout, long-lived session,
    versioned handshake.  Message grammar and the full session shape:
    docs/serving.md, "Distributed split-and-conquer". *)
module Dist : sig
  val version : int
  (** Protocol revision spoken by this build.  [hello]/[hello_ok] with
      any other value is rejected with an [error] document (coordinator
      side) or a non-zero exit (worker side) — never answered with ops
      the peer may not know. *)

  type pending = { box : Domains.Box.t; depth : int }
  (** One unexplored region and the absolute split depth that produced
      it — exactly a {!Verify.run_subtree} frontier entry. *)

  type to_worker =
    | Hello_ok of { version : int; job : job_spec; proofcache : string option }
        (** handshake accept: the job every split belongs to, plus an
            optional shared proof-cache journal path *)
    | Assign of { sid : int; box : Domains.Box.t; depth : int }
        (** verify this split (op ["split"] on the wire) until it is
            decided or stolen *)
    | Steal  (** yield the current split's unexplored frontier back *)
    | Cancel_all  (** global cancel: stop and exit cleanly *)

  type yield_reason =
    | Stolen  (** answering a [Steal] *)
    | Precision
        (** a region hit a precision limit (depth cap / zero-width
            split); no amount of work will decide it *)

  type from_worker =
    | Hello of { version : int; pid : int }
    | Split_request  (** idle and ready for a split *)
    | Proved of { sid : int; nodes : int; wall : float }
    | Refuted of { sid : int; witness : Linalg.Vec.t; wall : float }
    | Yielded of {
        sid : int;
        reason : yield_reason;
        frontier : pending list;
        nodes : int;
        wall : float;
      }

  val to_worker_to_json : to_worker -> J.t

  val to_worker_of_json : J.t -> to_worker
  (** @raise Bad_request on unknown ops or missing/ill-typed fields. *)

  val from_worker_to_json : from_worker -> J.t

  val from_worker_of_json : J.t -> from_worker
  (** @raise Bad_request on unknown ops or missing/ill-typed fields. *)

  val is_rejection : J.t -> bool
  (** [true] for [{"ok": false, ...}] — the coordinator's handshake
      rejection, the only non-op document in a dverify session. *)
end
