(* The charon-serve wire protocol (docs/serving.md).

   One JSON document per line in both directions, rendered and parsed
   with the shared [Telemetry.Jsonw] value type.  A connection carries
   exactly one request and one response: clients connect, send one
   line, read one line, and disconnect — which keeps the daemon's
   accept loop single-threaded (job execution, not connection
   handling, is where the concurrency lives).

   Exactness: float payloads that feed the cache key or a verdict
   (box bounds, counterexample witnesses) travel as %.17g strings so
   the bits round-trip; incidental floats (timeouts, wall times) use
   plain JSON numbers. *)

module J = Telemetry.Jsonw

type job_spec = {
  name : string;
  network : string;  (* Nn.Serial text *)
  box : Domains.Box.t;
  target : int;
  delta : float;
  timeout : float option;  (* wall-clock seconds *)
  max_steps : int option;  (* transformer-call budget *)
  seed : int;
}

type request =
  | Submit of job_spec
  | Status of { id : int; since : int }
  | Cancel of int
  | Stats
  | Ping
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Framing *)

exception Torn_line of int

exception Oversized_line of int

let send oc (json : J.t) =
  output_string oc (J.to_string json);
  output_char oc '\n';
  flush oc

(* Strict framing: a document only counts once its '\n' terminator has
   arrived.  [In_channel.input_line] silently treats bytes-then-EOF as
   a complete line, which let a peer dying mid-write hand the reader a
   JSON prefix — at best a parse error, at worst (if the tear fell on a
   document boundary inside a buffered stream) a truncated-but-valid
   document.  Distinguishing "clean EOF between messages" ([None])
   from "EOF mid-message" ([Torn_line]) is what lets clients exit
   non-zero on a torn response and lets the dverify coordinator treat
   the tear as a worker death.

   The line is taken one channel buffer at a time with the primitive
   behind [Stdlib.input_line]: it fills the buffer and answers n > 0
   when a '\n' ends the next n bytes, -n when the n buffered bytes hold
   none (the buffer is full, or EOF follows them), and 0 at EOF with
   nothing buffered.  Only the bytes up to the '\n' are consumed, so
   the next line of a pipe stays in the channel. *)
external scan_line : in_channel -> int = "caml_ml_input_scan_line"

let recv ?(max_len = max_int) ic =
  let buf = Buffer.create 256 in
  let rec loop () =
    let n = scan_line ic in
    if n = 0 then begin
      if Buffer.length buf = 0 then None
      else raise (Torn_line (Buffer.length buf))
    end
    else begin
      let ends = n > 0 in
      let bytes = if ends then n - 1 else -n in
      (* Refuse unbounded lines before buffering them: a peer
         streaming garbage without a newline must cost at most
         [max_len] bytes of memory plus one channel buffer, not the
         machine. *)
      let len = Buffer.length buf + bytes in
      if len > max_len then raise (Oversized_line len);
      Buffer.add_channel buf ic bytes;
      if ends then begin
        ignore (input_char ic);
        Some (J.parse (Buffer.contents buf))
      end
      else loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Helpers *)

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let field name json =
  match J.member name json with
  | Some v -> v
  | None -> bad "missing field %S" name

let int_field name json =
  match J.to_int_opt (field name json) with
  | Some i -> i
  | None -> bad "field %S must be an integer" name

let string_field name json =
  match J.to_string_opt (field name json) with
  | Some s -> s
  | None -> bad "field %S must be a string" name

let opt_field name conv json =
  match J.member name json with
  | None | Some J.Null -> None
  | Some v -> (
      match conv v with
      | Some x -> Some x
      | None -> bad "field %S has the wrong type" name)

(* ------------------------------------------------------------------ *)
(* Exact floats: %.17g strings round-trip every bit of a double. *)

let exact_float f = J.Str (Printf.sprintf "%.17g" f)

let exact_float_of = function
  | J.Str s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> bad "malformed exact float %S" s)
  | v -> (
      match J.to_float_opt v with
      | Some f -> f
      | None -> bad "expected an exact float")

let vec_to_json (v : Linalg.Vec.t) =
  J.Arr (Array.to_list (Array.map exact_float v))

let vec_of_json = function
  | J.Arr items -> Array.of_list (List.map exact_float_of items)
  | _ -> bad "expected a float array"

(* ------------------------------------------------------------------ *)
(* Outcomes *)

let outcome_to_json (o : Common.Outcome.t) =
  match o with
  | Common.Outcome.Verified -> J.Obj [ ("verdict", J.Str "verified") ]
  | Common.Outcome.Refuted x ->
      J.Obj [ ("verdict", J.Str "falsified"); ("witness", vec_to_json x) ]
  | Common.Outcome.Timeout -> J.Obj [ ("verdict", J.Str "timeout") ]
  | Common.Outcome.Unknown -> J.Obj [ ("verdict", J.Str "unknown") ]

let outcome_of_json json =
  match J.to_string_opt (field "verdict" json) with
  | Some "verified" -> Common.Outcome.Verified
  | Some "falsified" ->
      Common.Outcome.Refuted (vec_of_json (field "witness" json))
  | Some "timeout" -> Common.Outcome.Timeout
  | Some "unknown" -> Common.Outcome.Unknown
  | Some other -> bad "unknown verdict %S" other
  | None -> bad "field \"verdict\" must be a string"

(* ------------------------------------------------------------------ *)
(* Requests *)

let spec_to_json s =
  let base =
    [
      ("op", J.Str "submit");
      ("name", J.Str s.name);
      ("network", J.Str s.network);
      ("box", J.Str (Common.Regionspec.to_box_string s.box));
      ("target", J.Int s.target);
      ("delta", exact_float s.delta);
      ("seed", J.Int s.seed);
    ]
  in
  let base =
    match s.timeout with
    | Some t -> base @ [ ("timeout", J.Float t) ]
    | None -> base
  in
  match s.max_steps with
  | Some n -> base @ [ ("max_steps", J.Int n) ]
  | None -> base

let to_json = function
  | Submit s -> J.Obj (spec_to_json s)
  | Status { id; since } ->
      J.Obj [ ("op", J.Str "status"); ("id", J.Int id); ("since", J.Int since) ]
  | Cancel id -> J.Obj [ ("op", J.Str "cancel"); ("id", J.Int id) ]
  | Stats -> J.Obj [ ("op", J.Str "stats") ]
  | Ping -> J.Obj [ ("op", J.Str "ping") ]
  | Shutdown -> J.Obj [ ("op", J.Str "shutdown") ]

let spec_of_json json =
  let box =
    let s = string_field "box" json in
    match Common.Regionspec.parse_box s with
    | box -> box
    | exception Failure m -> bad "bad box %S: %s" s m
  in
  let delta = exact_float_of (field "delta" json) in
  if not (Float.is_finite delta && delta > 0.0) then
    bad "delta must be a positive finite float";
  let target = int_field "target" json in
  if target < 0 then bad "target class must be non-negative";
  {
    name =
      (match opt_field "name" J.to_string_opt json with
      | Some n -> n
      | None -> "property");
    network = string_field "network" json;
    box;
    target;
    delta;
    timeout = opt_field "timeout" J.to_float_opt json;
    max_steps = opt_field "max_steps" J.to_int_opt json;
    seed =
      (match opt_field "seed" J.to_int_opt json with
      | Some s -> s
      | None -> 2019);
  }

let of_json json =
  match J.to_string_opt (field "op" json) with
  | Some "submit" -> Submit (spec_of_json json)
  | Some "status" ->
      Status
        {
          id = int_field "id" json;
          since =
            (match opt_field "since" J.to_int_opt json with
            | Some s -> s
            | None -> 0);
        }
  | Some "cancel" -> Cancel (int_field "id" json)
  | Some "stats" -> Stats
  | Some "ping" -> Ping
  | Some "shutdown" -> Shutdown
  | Some other -> bad "unknown op %S" other
  | None -> bad "field \"op\" must be a string"

(* ------------------------------------------------------------------ *)
(* Responses *)

let ok fields = J.Obj (("ok", J.Bool true) :: fields)

let error msg = J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ]

(* Structured rejects: every multi-tenant refusal carries a machine
   code and a retryability bit so clients can distinguish "back off
   and resend" (queue full) from "fix your request" (bad key, quota
   exhausted, protocol mismatch) without parsing prose. *)
let reject ~code ~retryable msg =
  J.Obj
    [
      ("ok", J.Bool false);
      ("error", J.Str msg);
      ("code", J.Str code);
      ("retryable", J.Bool retryable);
    ]

let reject_code json =
  match J.member "code" json with
  | Some (J.Str c) -> Some c
  | Some _ | None -> None

let reject_retryable json =
  match J.member "retryable" json with
  | Some (J.Bool b) -> b
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* The multi-tenant TCP handshake (docs/serving.md).

   Unix-socket connections stay trusted and anonymous: filesystem
   permissions on the socket path are the credential, and the first
   line is the request itself, exactly as in the single-tenant
   protocol.  TCP reaches beyond the machine boundary, so a TCP
   connection must open with a [hello] carrying the protocol version
   and the tenant's API key; the daemon answers [hello_ok] (echoing
   the resolved tenant name) or a terminal reject — code ["version"]
   or ["auth"] — before any request is read.  Same versioned-handshake
   discipline as [Dist], for the same reason: an incompatible peer is
   refused with a document it can parse, never answered with ops it
   cannot. *)

module Serve = struct
  let version = 1

  type hello = { version : int; api_key : string option }

  let hello_to_json { version = v; api_key } =
    let base = [ ("op", J.Str "hello"); ("version", J.Int v) ] in
    J.Obj
      (match api_key with
      | Some k -> base @ [ ("api_key", J.Str k) ]
      | None -> base)

  let is_hello json =
    match J.member "op" json with
    | Some (J.Str "hello") -> true
    | Some _ | None -> false

  let hello_of_json json =
    {
      version = int_field "version" json;
      api_key = opt_field "api_key" J.to_string_opt json;
    }

  let hello_ok ~tenant =
    ok [ ("op", J.Str "hello_ok"); ("version", J.Int version);
         ("tenant", J.Str tenant) ]
end

(* ------------------------------------------------------------------ *)
(* Distributed split-and-conquer (charon-dverify, docs/serving.md).

   Same line framing, but over a worker process's stdin/stdout pipes
   and with a long-lived conversation instead of one request/response
   pair.  The session opens with a versioned handshake — worker sends
   [hello], coordinator answers [hello_ok] carrying the job, or an
   [error] document on version mismatch so an incompatible worker is
   rejected cleanly instead of hanging on an op it cannot parse. *)

module Dist = struct
  let version = 2

  type pending = { box : Domains.Box.t; depth : int }

  type to_worker =
    | Hello_ok of { version : int; job : job_spec; proofcache : string option }
    | Assign of { sid : int; box : Domains.Box.t; depth : int }
    | Steal
    | Cancel_all

  type yield_reason = Stolen | Precision

  type from_worker =
    | Hello of { version : int; pid : int }
    | Split_request
    | Proved of { sid : int; nodes : int; wall : float }
    | Refuted of { sid : int; witness : Linalg.Vec.t; wall : float }
    | Yielded of {
        sid : int;
        reason : yield_reason;
        frontier : pending list;
        nodes : int;
        wall : float;
      }

  let box_to_json box = J.Str (Common.Regionspec.to_box_string box)

  let box_of_field name json =
    let s = string_field name json in
    match Common.Regionspec.parse_box s with
    | box -> box
    | exception Failure m -> bad "bad box %S: %s" s m

  let pending_to_json { box; depth } =
    J.Obj [ ("box", box_to_json box); ("depth", J.Int depth) ]

  let pending_of_json json =
    let depth = int_field "depth" json in
    if depth < 0 then bad "frontier depth must be non-negative";
    { box = box_of_field "box" json; depth }

  let reason_to_string = function
    | Stolen -> "stolen"
    | Precision -> "precision"

  let reason_of_string = function
    | "stolen" -> Stolen
    | "precision" -> Precision
    | other -> bad "unknown yield reason %S" other

  let to_worker_to_json = function
    | Hello_ok { version = v; job; proofcache } ->
        let base =
          [
            ("op", J.Str "hello_ok");
            ("version", J.Int v);
            (* [spec_to_json] tags the spec as a submit request; the
               embedded job is not one, so the tag is dropped. *)
            ( "job",
              J.Obj (List.filter (fun (k, _) -> k <> "op") (spec_to_json job))
            );
          ]
        in
        J.Obj
          (match proofcache with
          | Some path -> base @ [ ("proofcache", J.Str path) ]
          | None -> base)
    | Assign { sid; box; depth } ->
        J.Obj
          [
            ("op", J.Str "split");
            ("sid", J.Int sid);
            ("box", box_to_json box);
            ("depth", J.Int depth);
          ]
    | Steal -> J.Obj [ ("op", J.Str "steal") ]
    | Cancel_all -> J.Obj [ ("op", J.Str "cancel") ]

  let to_worker_of_json json =
    match J.to_string_opt (field "op" json) with
    | Some "hello_ok" ->
        Hello_ok
          {
            version = int_field "version" json;
            job = spec_of_json (field "job" json);
            proofcache = opt_field "proofcache" J.to_string_opt json;
          }
    | Some "split" ->
        let depth = int_field "depth" json in
        if depth < 0 then bad "split depth must be non-negative";
        Assign
          { sid = int_field "sid" json; box = box_of_field "box" json; depth }
    | Some "steal" -> Steal
    | Some "cancel" -> Cancel_all
    | Some other -> bad "unknown coordinator op %S" other
    | None -> bad "field \"op\" must be a string"

  let from_worker_to_json = function
    | Hello { version = v; pid } ->
        J.Obj [ ("op", J.Str "hello"); ("version", J.Int v); ("pid", J.Int pid) ]
    | Split_request -> J.Obj [ ("op", J.Str "split_request") ]
    | Proved { sid; nodes; wall } ->
        J.Obj
          [
            ("op", J.Str "proved");
            ("sid", J.Int sid);
            ("nodes", J.Int nodes);
            ("wall", J.Float wall);
          ]
    | Refuted { sid; witness; wall } ->
        J.Obj
          [
            ("op", J.Str "refuted");
            ("sid", J.Int sid);
            ("witness", vec_to_json witness);
            ("wall", J.Float wall);
          ]
    | Yielded { sid; reason; frontier; nodes; wall } ->
        J.Obj
          [
            ("op", J.Str "yielded");
            ("sid", J.Int sid);
            ("reason", J.Str (reason_to_string reason));
            ("frontier", J.Arr (List.map pending_to_json frontier));
            ("nodes", J.Int nodes);
            ("wall", J.Float wall);
          ]

  let from_worker_of_json json =
    match J.to_string_opt (field "op" json) with
    | Some "hello" ->
        Hello
          { version = int_field "version" json; pid = int_field "pid" json }
    | Some "split_request" -> Split_request
    | Some "proved" ->
        Proved
          {
            sid = int_field "sid" json;
            nodes = int_field "nodes" json;
            wall = Option.value ~default:0.0 (J.to_float_opt (field "wall" json));
          }
    | Some "refuted" ->
        Refuted
          {
            sid = int_field "sid" json;
            witness = vec_of_json (field "witness" json);
            wall = Option.value ~default:0.0 (J.to_float_opt (field "wall" json));
          }
    | Some "yielded" ->
        Yielded
          {
            sid = int_field "sid" json;
            reason = reason_of_string (string_field "reason" json);
            frontier =
              (match field "frontier" json with
              | J.Arr items -> List.map pending_of_json items
              | _ -> bad "field \"frontier\" must be an array");
            nodes = int_field "nodes" json;
            wall = Option.value ~default:0.0 (J.to_float_opt (field "wall" json));
          }
    | Some other -> bad "unknown worker op %S" other
    | None -> bad "field \"op\" must be a string"

  (* [{"ok": false, ...}] — the coordinator's handshake rejection (and
     the only non-op document either side ever sends). *)
  let is_rejection json =
    match J.member "ok" json with
    | Some (J.Bool false) -> true
    | Some _ | None -> false
end
