(** Network layers.

    A network is a composition of these layers.  Affine and convolutional
    layers are the differentiable transformations of the paper's
    [L1 ∘ σ1 ∘ ... ∘ Lk] decomposition; [Relu] and [Maxpool] are the
    non-linear activations. *)

type t =
  | Affine of { w : Linalg.Mat.t; b : Linalg.Vec.t }
      (** [y = w x + b]; requires [Mat.rows w = dim b]. *)
  | Relu  (** component-wise [max(x, 0)] *)
  | Conv of Conv.t
  | Maxpool of Pool.t
  | Avgpool of Avgpool.t
      (** linear, so abstract domains treat it exactly via lowering *)

val affine : Linalg.Mat.t -> Linalg.Vec.t -> t
(** Checked constructor for [Affine]. *)

val input_dim : t -> int option
(** Input dimension when the layer fixes one ([Relu] works at any
    dimension, hence [None]). *)

val output_dim : given:int -> t -> int
(** Output dimension of the layer applied to an input of dimension
    [given].
    @raise Invalid_argument if [given] is incompatible with the layer. *)

val forward : t -> Linalg.Vec.t -> Linalg.Vec.t

val backward : t -> x:Linalg.Vec.t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** Vector-Jacobian product at input [x].  For [Relu] the subgradient at
    zero is taken to be zero; for [Maxpool], ties route to the first
    maximal input. *)

val forward_batch : t -> Linalg.Mat.t -> Linalg.Mat.t
(** [forward] over a batch, one sample per row: affine layers run as a
    single GEMM [Y = X W^T + b]; non-affine layers apply row by row. *)

val backward_batch : t -> x:Linalg.Mat.t -> dout:Linalg.Mat.t -> Linalg.Mat.t
(** [backward] over a batch, one sample per row ([dX = dY W] for affine
    layers). *)

val lower :
  t ->
  [ `Linear of Linalg.Mat.t * Linalg.Vec.t | `Relu | `Maxpool of Pool.t ]
(** The layer as abstract interpreters and encoders see it: [Affine],
    [Conv] and [Avgpool] all become one dense [`Linear (w, b)] for
    [y = w x + b]; the two non-linear layers stay as they are.  The one
    place convolution and average pooling are lowered. *)

val describe : t -> string
(** One-line human-readable description. *)
