(** Dense row-major float matrices. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> float -> t

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] builds the matrix with entry [(i, j)] equal to [f i j]. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val of_rows : float array array -> t
(** Build from an array of equal-length rows.  Requires at least one row. *)

val row : t -> int -> Vec.t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val add_into : t -> t -> into:t -> unit
(** [add_into a b ~into] writes [a + b] into [into] without allocating.
    [into] may alias [a] or [b]. *)

val scale : float -> t -> t

val scale_inplace : float -> t -> unit
(** [scale_inplace c a] performs [a <- c * a] in place. *)

val axpy : float -> t -> t -> unit
(** [axpy alpha x y] performs [y <- alpha * x + y] in place.  Requires
    matching shapes. *)

val matvec : t -> Vec.t -> Vec.t
(** [matvec m x] is [m * x].  Requires [m.cols = dim x]. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t m x] is [transpose m * x] without materialising the
    transpose.  Requires [m.rows = dim x]. *)

val gemm :
  ?transa:bool -> ?transb:bool -> ?alpha:float -> ?beta:float -> t -> t -> t -> unit
(** [gemm ?transa ?transb ~alpha ~beta a b c] performs the BLAS-3
    update [c <- alpha * op(a) * op(b) + beta * c] in place, where [op]
    is the transpose when the corresponding flag is set (default
    [false]).  [alpha] defaults to [1.0] and [beta] to [0.0]
    (overwrite).  The kernel is cache-blocked with a register-tiled 4x4
    inner loop; a transposed [a] is staged once into a per-domain
    scratch buffer.  It runs on the calling domain: parallelism lives
    one level up, over independent regions.
    @raise Invalid_argument on shape mismatch. *)

val with_scratch : int -> int -> (t -> 'a) -> 'a
(** [with_scratch rows cols f] calls [f] with a zero-filled
    [rows * cols] matrix backed by the per-domain {!Scratch} arena and
    recycles the buffer when [f] returns.  The matrix must not escape
    [f]; see {!Scratch.with_floats}. *)

val matmul : t -> t -> t
(** [matmul a b] is [op-free gemm] into a fresh matrix: [a * b]. *)

val abs_row_sums : t -> Vec.t
(** Vector of L1 norms of each row; used for interval propagation. *)

val approx_equal : ?eps:float -> t -> t -> bool

val cholesky : t -> t
(** [cholesky a] returns the lower-triangular [l] with [l * l^T = a] for a
    symmetric positive-definite [a].
    @raise Failure if the matrix is not numerically positive definite. *)

val cholesky_solve : t -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [l l^T x = b] given the Cholesky factor
    [l] (forward then backward substitution). *)

val solve_lower : t -> Vec.t -> Vec.t
(** Forward substitution with a lower-triangular matrix. *)

val pp : Format.formatter -> t -> unit
