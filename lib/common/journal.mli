(** An append-only JSONL journal of keyed facts: the one persistence
    layer under the subregion proof cache ([Charon.Proofcache]) and the
    serve verdict store ([Server.Store]) (docs/serving.md, "Journals").

    Each line is one JSON object tagged ["v":1]; the owner supplies the
    rest of the fields and decodes them back into a key and a value.
    Replay rule, applied once on {!create}:
    - a line counts only when it is complete (ends in a newline),
      parses as JSON, carries ["v":1], and [decode] accepts it;
    - the first line for a key wins, later lines for it are ignored;
    - {!loaded} is the number of distinct keys replayed.

    Lines are only ever appended, never rewritten, so several processes
    may append to one file at once (dverify workers share one proof
    cache journal).  Domain-safe: appends and {!close} run under one
    mutex. *)

type t

val create :
  path:string ->
  decode:(Telemetry.Jsonw.t -> (string * 'a) option) ->
  replay:(string -> 'a -> unit) ->
  t
(** Replay [path] (when it exists), calling [replay key value] once per
    distinct key in order of first appearance, then open it for
    appending, creating it if absent.  When a crash left the file
    ending in a torn line, a newline is appended first, so the next
    fact starts a line of its own; the file is never truncated. *)

val append : t -> (string * Telemetry.Jsonw.t) list -> unit
(** Write [{"v":1, fields...}] as one line and flush.  Does nothing
    after {!close}. *)

val loaded : t -> int

val path : t -> string

val close : t -> unit
(** Close the file; idempotent.  Lines already appended survive. *)
