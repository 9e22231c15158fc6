(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that
    experiments, training runs and property tests are reproducible
    bit-for-bit from an explicit seed.  The generator is splitmix64,
    which is small, fast, and has no global state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used to
    hand child components their own seeds. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform over [0, n).  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform over [0, x). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform over [\[lo, hi\]]. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly chosen element.  Requires a non-empty array. *)
