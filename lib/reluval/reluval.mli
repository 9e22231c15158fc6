(** The ReluVal baseline: symbolic interval analysis with iterative
    input bisection.

    Maintains a worklist of sub-regions.  Each region gets one forward
    pass over {!Domains.Symbolic}, the symbolic-interval domain that
    Charon's analyzer also offers, with biases included and convolution
    and average pooling lowered by {!Nn.Layer.lower}.  If the margin
    lower bound is positive the region is verified, if the margin upper
    bound is negative the whole region violates the property (and its
    center is a concrete witness), and otherwise the region is bisected
    along the dimension with the largest smear (gradient magnitude times
    width), the gradient bounds coming from the ReLU masks that same
    pass records — ReluVal's static, hand-crafted refinement strategy.
    There is no gradient-based counterexample search and no learned
    policy, which is exactly what §7.3/§7.4 compare Charon against. *)

type config = {
  delta : float;  (** concrete-witness acceptance threshold *)
  max_regions : int;  (** safety cap on worklist expansions *)
}

val default_config : config
(** δ = 1e-4, one million region expansions. *)

val gradient_interval :
  Nn.Network.t -> Domains.Box.t -> target:int -> Linalg.Vec.t
(** Per-input upper bounds on the magnitude of
    [∂N(x)_target/∂x_i] over the whole region, by an interval-arithmetic
    backward pass through the ReLU masks of a symbolic forward pass.
    Exposed for tests and diagnostics.
    @raise Failure on max-pooling layers. *)

val margin_bounds :
  Nn.Network.t -> Domains.Box.t -> target:int -> j:int -> float * float
(** Lower and upper bounds on [N(x)_target - N(x)_j] over the region,
    from the same forward pass and pair bounds the margin test uses.
    Exposed for tests.
    @raise Failure on max-pooling layers. *)

type report = {
  outcome : Common.Outcome.t;
  elapsed : float;
  regions_analyzed : int;
  max_depth : int;
}

val run :
  ?config:config ->
  ?budget:Common.Budget.t ->
  Nn.Network.t ->
  Common.Property.t ->
  report
(** Decide the property by bisection-based abstraction refinement.
    A region that needs splitting but has zero width in every dimension
    is decided by its centre: [Refuted] when the centre is a
    δ-counterexample, [Unknown] otherwise.  Returns [Unknown] for
    networks with unsupported (max-pooling) layers. *)
