(** Linear programs over variables with general (finite) bounds.

    A convenience layer over {!Tableau}: variables live in boxes
    [lo <= x <= hi] (possibly negative), constraints are sparse rows.
    Bounds are compiled away by shifting each variable to be
    non-negative and adding its upper bound as a constraint row. *)

type t
(** A mutable problem builder over a fixed number of variables. *)

type row = (int * float) list
(** Sparse linear expression: [(variable index, coefficient)] pairs. *)

val create : nvars:int -> t
(** All variables start with bounds [\[0, 0\]]; set real bounds with
    {!set_bounds}. *)

val set_bounds : t -> int -> lo:float -> hi:float -> unit
(** @raise Invalid_argument if [lo > hi] or either bound is not finite
    (the Reluplex encoding always has finite bounds from interval
    analysis). *)

val add_le : t -> row -> float -> unit
(** Add [row · x <= b]. *)

val add_ge : t -> row -> float -> unit

val add_eq : t -> row -> float -> unit

type solution =
  | Optimal of { x : Linalg.Vec.t; value : float }
  | Infeasible
  | Unbounded

val maximize : ?should_stop:(unit -> bool) -> t -> row -> solution
(** Maximize the sparse objective over the accumulated constraints.  The
    returned [x] is in the original (unshifted) variable space.
    @raise Tableau.Aborted if [should_stop] fires mid-solve. *)

val minimize : ?should_stop:(unit -> bool) -> t -> row -> solution
