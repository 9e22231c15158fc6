(** Network constructors: paper examples and random initialisation. *)

val xor : unit -> Network.t
(** The 2-layer XOR network of Figure 3 / Example 2.1. *)

val example_2_2 : unit -> Network.t
(** The two-layer network of Example 2.2 (1 input, 2 classes). *)

val example_2_3 : unit -> Network.t
(** The network of Example 2.3 / Figure 4, verifiable with a 2-disjunct
    zonotope powerset but not with plain zonotopes. *)

val staircase : int -> Network.t
(** [staircase d]: inputs [x] in [R^d], hidden banks [relu(x_i)] and
    [relu(x_i - 1)], and

    {v y_0 = sum_i (relu(x_i) - relu(x_i - 1))        y_1 = -0.05 v}

    Each summand is the ramp [min(relu(x_i), 1)], so class 0 wins by at
    least 0.05 everywhere: on any box the property holds and PGD cannot
    refute it.  But the margin puts a negative coefficient on the
    [relu(x_i - 1)] bank, so intervals (which forget that the two banks
    share [x_i]) and zonotopes (whose crossing-ReLU relaxation is loose)
    underestimate it by about [d/2] on the box [\[-1, 1.5\]^d]: the proof
    lands only after splitting essentially every input dimension, and
    verification cost grows geometrically with [d].  The family dials
    from instant to effectively forever; the serving, distributed and
    soak tests use it as their workload. *)

val dense :
  Linalg.Rng.t -> layer_sizes:int list -> Network.t
(** He-initialised fully-connected ReLU network.  [layer_sizes] lists
    every dimension including input and output, e.g.
    [\[784; 100; 100; 10\]]; requires at least two entries.  ReLU is
    applied after every layer except the last, as in the paper. *)

val lenet_like :
  ?pooling:[ `Max | `Avg ] ->
  Linalg.Rng.t ->
  input:Shape.t ->
  classes:int ->
  Network.t
(** A small LeNet-style convolutional network: two conv+ReLU blocks, a
    pooling layer, two more conv+ReLU blocks, another pooling layer,
    then three fully-connected layers (§7's convolutional benchmark
    architecture, scaled to the given input shape).  [pooling] defaults
    to [`Max] as in the paper; [`Avg] gives the original LeNet's
    average pooling, which every domain (and the complete checkers)
    handles exactly. *)
