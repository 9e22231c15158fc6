(** The adversarial objective of Eq. 1–2.

    [F(x) = N(x)_K − max_{j≠K} N(x)_j] measures how far [x] is from
    violating the robustness property [(I, K)]: a non-positive value
    means [x] is a true counterexample, and a value at most [δ] makes it
    a δ-counterexample (Definition 5.3).

    Every value and gradient goes through an evaluated {!point}: {!eval}
    runs the network forward once and keeps the activations, and
    {!gradient} differentiates that record without a second forward
    pass.  An optimiser that checks the value of an iterate and then
    steps from it pays one forward and one backward pass per step. *)

type t

val create : Nn.Network.t -> k:int -> t
(** @raise Invalid_argument if [k] is out of range or the network has
    fewer than two classes. *)

val network : t -> Nn.Network.t

type point = private {
  x : Linalg.Vec.t;
  trace : Linalg.Vec.t array;  (** [Nn.Network.forward_trace] at [x] *)
  value : float;  (** [F(x)] *)
  runner_up : int;
      (** the class [j ≠ K] that [F] subtracts: the first argmax of the
          other scores, so ties pick the lowest index *)
}
(** The objective evaluated at one input.  The arrays are shared with
    the caller: do not mutate them. *)

val eval : t -> Linalg.Vec.t -> point
(** One forward pass at [x]. *)

val gradient : t -> point -> Linalg.Vec.t
(** Gradient of [F] at the point (a subgradient at ties, through the
    point's [runner_up]): one backward pass over its recorded trace. *)

val value : t -> Linalg.Vec.t -> float
(** [F(x)]: the value of {!eval}. *)

val value_grad : t -> Linalg.Vec.t -> float * Linalg.Vec.t
(** [F(x)] and its gradient from one {!eval} and one {!gradient}: one
    forward and one backward pass. *)

val is_counterexample : t -> Linalg.Vec.t -> bool
(** [F(x) <= 0]. *)

val is_delta_counterexample : t -> delta:float -> Linalg.Vec.t -> bool
(** [F(x) <= delta]; Definition 5.3. *)
