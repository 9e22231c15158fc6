(** Analysis budgets.

    The paper gives every solver a wall-clock time limit per benchmark
    (1000 s in §7).  For deterministic tests we additionally support a
    budget counted in abstract "steps" (solver-defined work units), which
    behaves identically across machines. *)

type t

val unlimited : unit -> t

val of_seconds : float -> t
(** Wall-clock budget starting now. *)

val of_steps : int -> t
(** Deterministic step budget. *)

val create : ?seconds:float -> ?steps:int -> unit -> t
(** Combined budget; whichever limit is hit first exhausts it. *)

val spend : t -> int -> unit
(** Consume work units from the step budget.  Thread-safe: budgets may
    be shared across parallel verifier workers. *)

val exhausted : t -> bool
(** Whether either limit has been hit.  Both checks are exact on every
    call: the first call past the deadline answers [true], and every
    later one does too (expiry is sticky).  Thread-safe. *)

val elapsed : t -> float
(** Seconds since the budget was created. *)

val remaining_seconds : t -> float option
(** Seconds until the wall-clock deadline ([None] if there is none);
    never negative. *)

val steps_used : t -> int
