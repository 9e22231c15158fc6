(** Feed-forward classification networks.

    A network is a dimension-checked composition of layers mapping
    [R^input_dim] to a vector of [output_dim] class scores.  The class
    assigned to an input is the argmax of the scores, as in §2.1 of the
    paper. *)

type t = private {
  layers : Layer.t list;
  input_dim : int;
  output_dim : int;
}

val create : input_dim:int -> Layer.t list -> t
(** Builds a network, checking that consecutive layer dimensions agree.
    @raise Invalid_argument on a dimension mismatch or an empty layer
    list. *)

val eval : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Forward evaluation of the class scores. *)

val classify : t -> Linalg.Vec.t -> int
(** Argmax class of [eval]. *)

val forward_trace : t -> Linalg.Vec.t -> Linalg.Vec.t array
(** [forward_trace n x] returns the activations before each layer plus
    the final output: element 0 is [x], element [i] is the input to layer
    [i], and the last element is the network output.  Length is
    [num_layers n + 1]. *)

val num_layers : t -> int

val num_relu_units : t -> int
(** Total width of all ReLU activations; the size of the case-split space
    explored by complete checkers. *)

val lipschitz_upper : t -> float
(** A crude upper bound on the network's Lipschitz constant with respect
    to the infinity norm: the product of the layers' induced norms
    (activations are 1-Lipschitz).  Used as a feature scale. *)

val describe : t -> string
(** Multi-line summary: one line per layer. *)

val map_affine : t -> (Linalg.Mat.t -> Linalg.Mat.t) -> (Linalg.Vec.t -> Linalg.Vec.t) -> t
(** Rebuild the network transforming every dense affine layer's weight
    and bias; convolutional and activation layers are kept as-is.  Used
    by training updates and by tests. *)
