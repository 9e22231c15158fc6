(** Request coalescing index for the charon-serve scheduler: problem
    key (verdict-cache MD5) -> the id of the run currently answering
    it.  A duplicate submit attaches to that run as a follower and
    receives its verdict when it settles (docs/serving.md).

    Domain-safe behind its own mutex; the scheduler calls in with its
    own lock already held (the nesting is always scheduler ->
    coalesce, so the order cannot deadlock). *)

type t

val create : unit -> t

val find : t -> string -> int option
(** The in-flight run for a problem key, if any. *)

val register : t -> string -> int -> unit
(** A new run became the in-flight answerer for its key. *)

val attached : t -> unit
(** Tally one follower attachment (mirrors [serve.coalesced]). *)

val finish : t -> string -> int -> unit
(** [finish t key rid]: run [rid] settled (or was cancelled), so later
    identical submits start a fresh run (or hit the verdict cache).
    Does nothing once [key] maps to a newer run. *)

val inflight_keys : t -> int

val coalesced_total : t -> int

val peak_inflight : t -> int
