(** Multi-tenant identity and accounting for charon-serve
    (docs/serving.md, "Tenants, quotas and coalescing").

    The registry maps API keys to named tenants with fair-share
    weights and outstanding-jobs quotas.  It is immutable once loaded;
    the mutable per-tenant [counters] are owned by the scheduler and
    only touched with the scheduler's mutex held. *)

type tenant = {
  name : string;
  key : string option;  (** [None] for the trusted local principal *)
  quota : int;  (** max outstanding (queued + running) jobs; 0 = unlimited *)
  weight : float;  (** fair-share weight, > 0; default 1.0 *)
}

val anonymous : tenant
(** The implicit principal of unauthenticated local (Unix-socket)
    requests: no key, no quota, weight 1. *)

type t

val empty : t
(** No tenants configured: every request maps to {!anonymous}. *)

val configured : t -> bool

val tenants : t -> tenant list
(** In config-file order (stable stats output). *)

val of_json : Telemetry.Jsonw.t -> t
(** Parse a [{"tenants": [{"name", "key", "quota"?, "weight"?}, ...]}]
    config document.  @raise Failure on malformed entries, duplicate
    names, or shared keys. *)

val load : string -> t
(** {!of_json} over a file.  @raise Failure on unreadable or malformed
    config, with the path in the message. *)

val find_key : t -> string -> tenant option

(** {2 Runtime accounting} — scheduler-owned, scheduler-mutex-guarded. *)

type counters = {
  tenant : tenant;
  mutable accepted : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable completed : int;
  mutable cancelled : int;
  mutable failed : int;
  mutable rejected_quota : int;
  mutable rejected_busy : int;
  mutable outstanding : int;
  ages : float array;
  mutable age_count : int;
}

val fresh_counters : tenant -> counters

val record_age : counters -> float -> unit
(** Push one queue-age sample (seconds a job waited before a worker
    claimed its run) into the tenant's fixed-size ring. *)

val counters_json : counters -> Telemetry.Jsonw.t
(** The per-tenant stats block served by [{"op":"stats"}]. *)
