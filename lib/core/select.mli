(** The selection functions φα and φI of §4.1/§6.

    They convert the raw policy outputs [θ · ρ(ι)] into an abstract
    domain choice and an input-region split, respectively. *)

val domain_dim : int
(** Length of the vector consumed by {!domain_of_vector} (2). *)

val partition_dim : int
(** Length of the vector consumed by {!partition_of_vector} (3). *)

val clip01 : float -> float
(** Clamp into [\[0, 1\]], the discretization preamble described in §6. *)

val domain_of_vector : Linalg.Vec.t -> Domains.Domain.spec
(** First component selects the base domain (interval below 0.5,
    zonotope above); second selects the disjunct count from {1, 2, 4}. *)

val partition_of_vector : Features.input -> Linalg.Vec.t -> int * float
(** [(dim, at)]: the split hyperplane [x_dim = at].  The first two
    components arbitrate between the longest dimension and the
    most-influential dimension; the third is the offset ratio from the
    region center toward [x*] (0 bisects, 1 cuts through [x*]).
    Falls back to the longest dimension if the chosen one has zero
    width. *)
