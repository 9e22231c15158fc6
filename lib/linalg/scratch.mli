(** Per-domain scratch buffers for the kernel hot path.

    Recycles the large, short-lived float buffers of the propagation
    loop — im2col patch matrices, GEMM transpose staging — across
    calls, instead of allocating them fresh every layer.  Each domain
    owns a private size-keyed free list in domain-local storage, so no
    locking is involved; a buffer is never handed out twice before its
    borrowing scope returns. *)

val with_floats : int -> (float array -> 'a) -> 'a
(** [with_floats n f] calls [f] with a zero-filled buffer of exactly
    [n] floats (semantics of [Array.make n 0.0]) and reclaims it for
    reuse when [f] returns or raises.  The buffer must not escape [f].
    Nesting is fine: reuse only happens after the scope has returned. *)

val live_words : unit -> int
(** Floats currently held by the calling domain's arena (free and
    borrowed). *)

val highwater_words : unit -> int
(** Largest total footprint, in floats, ever reached across all
    domains' arenas since the process started, whether or not
    telemetry is on (the [kernel] block of the serve stats reads it). *)

val trim : unit -> unit
(** Drop the calling domain's free buffers (long-lived servers,
    tests).  Borrowed buffers are unaffected. *)
