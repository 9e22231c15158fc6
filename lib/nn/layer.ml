open Linalg

type t =
  | Affine of { w : Mat.t; b : Vec.t }
  | Relu
  | Conv of Conv.t
  | Maxpool of Pool.t
  | Avgpool of Avgpool.t

let affine w b =
  if w.Mat.rows <> Vec.dim b then
    invalid_arg "Layer.affine: bias length must equal row count";
  Affine { w; b }

let input_dim = function
  | Affine { w; _ } -> Some w.Mat.cols
  | Relu -> None
  | Conv c -> Some (Shape.size c.Conv.input)
  | Maxpool p -> Some (Shape.size p.Pool.input)
  | Avgpool p -> Some (Shape.size p.Avgpool.input)

let output_dim ~given = function
  | Affine { w; b = _ } ->
      if w.Mat.cols <> given then
        invalid_arg
          (Printf.sprintf "Layer.output_dim: affine expects %d, got %d"
             w.Mat.cols given);
      w.Mat.rows
  | Relu -> given
  | Conv c ->
      if Shape.size c.Conv.input <> given then
        invalid_arg "Layer.output_dim: conv input shape mismatch";
      Shape.size (Conv.output_shape c)
  | Maxpool p ->
      if Shape.size p.Pool.input <> given then
        invalid_arg "Layer.output_dim: maxpool input shape mismatch";
      Shape.size (Pool.output_shape p)
  | Avgpool p ->
      if Shape.size p.Avgpool.input <> given then
        invalid_arg "Layer.output_dim: avgpool input shape mismatch";
      Shape.size (Avgpool.output_shape p)

let forward layer x =
  match layer with
  | Affine { w; b } ->
      (* One-row GEMM [y = x W^T + b]: hits the unchecked dot-product
         edge kernel, accumulating over [k] in the same order as a
         matvec (bitwise-identical results, no bounds checks). *)
      if w.Mat.cols <> Vec.dim x then
        invalid_arg "Layer.forward: affine input dimension mismatch";
      let y = Array.copy b in
      Mat.gemm ~transb:true ~beta:1.0
        { Mat.rows = 1; cols = Vec.dim x; data = x }
        w
        { Mat.rows = 1; cols = w.Mat.rows; data = y };
      y
  | Relu -> Vec.relu x
  | Conv c -> Conv.forward c x
  | Maxpool p -> Pool.forward p x
  | Avgpool p -> Avgpool.forward p x

let backward layer ~x ~dout =
  match layer with
  | Affine { w; _ } ->
      (* One-row GEMM [dx = dout W]: the broadcast-accumulate edge
         kernel streams rows of [w] exactly like [Mat.matvec_t]. *)
      if w.Mat.rows <> Vec.dim dout then
        invalid_arg "Layer.backward: affine gradient dimension mismatch";
      let dx = Array.make w.Mat.cols 0.0 in
      Mat.gemm
        { Mat.rows = 1; cols = Vec.dim dout; data = dout }
        w
        { Mat.rows = 1; cols = w.Mat.cols; data = dx };
      dx
  | Relu -> Vec.init (Vec.dim x) (fun i -> if x.(i) > 0.0 then dout.(i) else 0.0)
  | Conv c -> Conv.backward c ~dout
  | Maxpool p -> Pool.backward p ~x ~dout
  | Avgpool p -> Avgpool.backward p ~dout

(* Batched variants: one sample per row, so affine layers run as a
   single GEMM over the whole batch ([Y = X W^T + b] forward, [dX =
   dY W] backward) instead of one matvec per sample.  Non-affine layers
   fall back to the per-sample path row by row.  [?jobs] forwards to
   {!Mat.gemm}'s row-panel parallelism (bit-identical results); omitted,
   the ambient default applies. *)

let forward_batch ?jobs layer (x : Mat.t) =
  match layer with
  | Affine { w; b } ->
      (* Seed y with the broadcast bias, then accumulate X W^T on top. *)
      let y = Mat.init x.Mat.rows w.Mat.rows (fun _ j -> b.(j)) in
      Mat.gemm ?jobs ~transb:true ~beta:1.0 x w y;
      y
  | Relu ->
      {
        Mat.rows = x.Mat.rows;
        cols = x.Mat.cols;
        data = Array.map (fun v -> if v > 0.0 then v else 0.0) x.Mat.data;
      }
  | Conv _ | Maxpool _ | Avgpool _ ->
      let out_dim = output_dim ~given:x.Mat.cols layer in
      let y = Mat.zeros x.Mat.rows out_dim in
      for r = 0 to x.Mat.rows - 1 do
        Array.blit (forward layer (Mat.row x r)) 0 y.Mat.data (r * out_dim)
          out_dim
      done;
      y

let backward_batch ?jobs layer ~(x : Mat.t) ~(dout : Mat.t) =
  match layer with
  | Affine { w; _ } ->
      let dx = Mat.zeros dout.Mat.rows w.Mat.cols in
      Mat.gemm ?jobs dout w dx;
      dx
  | Relu ->
      {
        Mat.rows = x.Mat.rows;
        cols = x.Mat.cols;
        data =
          (* unsafe-array audit: [i] indexes [dout.data], and backward's
             contract is that [dout] has the shape of [forward x] — for
             Relu that is exactly x's shape, checked by the gemm callers. *)
          (Array.mapi
             (fun i v -> if Array.unsafe_get x.Mat.data i > 0.0 then v else 0.0)
             dout.Mat.data
           [@lint.allow "unsafe-array"]);
      }
  | Conv _ | Maxpool _ | Avgpool _ ->
      let dx = Mat.zeros x.Mat.rows x.Mat.cols in
      for r = 0 to x.Mat.rows - 1 do
        let g = backward layer ~x:(Mat.row x r) ~dout:(Mat.row dout r) in
        Array.blit g 0 dx.Mat.data (r * x.Mat.cols) x.Mat.cols
      done;
      dx

let lower = function
  | Affine { w; b } -> `Linear (w, b)
  | Conv c -> `Linear (Conv.to_affine c)
  | Avgpool p -> `Linear (Avgpool.to_affine p)
  | Relu -> `Relu
  | Maxpool p -> `Maxpool p

let describe = function
  | Affine { w; _ } -> Printf.sprintf "affine %dx%d" w.Mat.rows w.Mat.cols
  | Relu -> "relu"
  | Conv c ->
      let out = Conv.output_shape c in
      Format.asprintf "conv %a -> %a (k=%d s=%d p=%d)" Shape.pp c.Conv.input
        Shape.pp out c.Conv.kernel c.Conv.stride c.Conv.padding
  | Maxpool p ->
      let out = Pool.output_shape p in
      Format.asprintf "maxpool %a -> %a (k=%d s=%d)" Shape.pp p.Pool.input
        Shape.pp out p.Pool.kernel p.Pool.stride
  | Avgpool p ->
      let out = Avgpool.output_shape p in
      Format.asprintf "avgpool %a -> %a (k=%d s=%d)" Shape.pp p.Avgpool.input
        Shape.pp out p.Avgpool.kernel p.Avgpool.stride
