(** Gradients of network outputs by reverse-mode differentiation.

    Networks are piecewise-linear, so gradients exist almost everywhere;
    at kinks we use the standard subgradient conventions documented in
    {!Layer.backward}. *)

val vjp : Network.t -> x:Linalg.Vec.t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** [vjp n ~x ~dout] is the vector-Jacobian product
    [dout^T . J_N(x)], i.e. the gradient of [dout . N(x)] with respect
    to [x]: {!backward} over [Network.forward_trace n x]. *)

val backward :
  Network.t -> trace:Linalg.Vec.t array -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** The backward pass alone: [backward n ~trace ~dout] is
    [vjp n ~x ~dout] for the point [x] whose forward pass
    [trace = Network.forward_trace n x] recorded, without running that
    pass again.
    @raise Invalid_argument if [trace] does not have
    [Network.num_layers n + 1] entries. *)

val grad_output : Network.t -> x:Linalg.Vec.t -> k:int -> Linalg.Vec.t
(** Gradient of the single output score [N(x)_k]. *)

val grad_norm : Network.t -> Linalg.Vec.t -> float
(** Euclidean norm of the full output-sum gradient at a point; this is
    the "magnitude of the gradient of the network" feature from §6. *)

val finite_diff : (Linalg.Vec.t -> float) -> Linalg.Vec.t -> eps:float -> Linalg.Vec.t
(** Central finite-difference gradient of a scalar function; used by
    tests to validate backprop. *)
