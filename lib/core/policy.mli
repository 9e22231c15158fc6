(** Verification policies πθ = (πα, πI) (§4.1).

    A policy decides, for each unsolved sub-problem, (a) which abstract
    domain to attempt verification with and (b) where to split the input
    region.  The learned representation is a pair of parameter matrices
    applied to the feature vector of {!Features}; a few hand-written
    policies are provided for ablations and as baselines. *)

type t

val of_vector : Linalg.Vec.t -> t
(** Policy from a flat parameter vector of length {!num_params}
    (row-major [theta_domain] followed by row-major [theta_partition]);
    the encoding used by the Bayesian-optimization learner. *)

val to_vector : t -> Linalg.Vec.t option
(** Flat parameters of a linear policy; [None] for hand-written
    policies. *)

val num_params : int
(** Dimension of the learnable parameter space
    [(Select.domain_dim + Select.partition_dim) * Features.dim]. *)

val default : t
(** A reasonable hand-crafted policy: zonotopes with a disjunct budget
    that grows as the PGD solution gets closer to violating the
    property, splitting the longest dimension toward [x*]. *)

val fixed_domain : Domains.Domain.spec -> t
(** Ablation policy: always the given domain, bisecting the longest
    dimension (a ReluVal-style static refinement strategy). *)

val choose_domain : t -> Features.input -> Domains.Domain.spec

val choose_split : t -> Features.input -> int * float
(** [(dim, at)] for the splitting hyperplane. *)

val save : string -> t -> unit
(** Persist a linear policy's parameters to a text file.
    @raise Invalid_argument for hand-written policies. *)

val load : string -> t
(** @raise Failure on parse errors. *)
