open Linalg

let xor () =
  (* A ReLU reconstruction of Figure 3: hidden units compute x1+x2 and
     relu(x1+x2-1); the readout maps the XOR value to a one-hot-ish score
     pair.  Classifies [0;0] and [1;1] as class 0, [0;1] and [1;0] as
     class 1, and satisfies the robustness property of Example 3.1. *)
  let w1 = Mat.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let b1 = [| 0.0; -1.0 |] in
  let w2 = Mat.of_rows [| [| -1.0; 2.0 |]; [| 1.0; -2.0 |] |] in
  let b2 = [| 1.0; 0.0 |] in
  Network.create ~input_dim:2
    [ Layer.affine w1 b1; Layer.Relu; Layer.affine w2 b2 ]

let example_2_2 () =
  let w1 = Mat.of_rows [| [| 1.0 |]; [| 2.0 |] |] in
  let b1 = [| -1.0; 1.0 |] in
  let w2 = Mat.of_rows [| [| 2.0; 1.0 |]; [| -1.0; 1.0 |] |] in
  let b2 = [| 1.0; 2.0 |] in
  Network.create ~input_dim:1
    [ Layer.affine w1 b1; Layer.Relu; Layer.affine w2 b2 ]

let example_2_3 () =
  let w1 = Mat.of_rows [| [| 1.0; -3.0 |]; [| 0.0; 3.0 |] |] in
  let b1 = [| 1.0; 1.0 |] in
  let w2 = Mat.of_rows [| [| 1.0; 1.1 |]; [| -1.0; 1.0 |] |] in
  let b2 = [| -3.0; 1.2 |] in
  Network.create ~input_dim:2
    [ Layer.affine w1 b1; Layer.Relu; Layer.affine w2 b2 ]

let staircase dim =
  (* Rows [0, dim) of the hidden layer are relu(x_i), rows [dim, 2 dim)
     are relu(x_i - 1); output 0 sums their differences and output 1 is
     the constant -0.05. *)
  let w1 =
    Mat.init (2 * dim) dim (fun r c ->
        if r = c || r - dim = c then 1.0 else 0.0)
  in
  let b1 = Vec.init (2 * dim) (fun r -> if r < dim then 0.0 else -1.0) in
  let w2 =
    Mat.init 2 (2 * dim) (fun r c ->
        if r = 1 then 0.0 else if c < dim then 1.0 else -1.0)
  in
  Network.create ~input_dim:dim
    [ Layer.affine w1 b1; Layer.Relu; Layer.affine w2 [| 0.0; -0.05 |] ]

let he_affine rng ~fan_in ~fan_out =
  let scale = sqrt (2.0 /. float_of_int fan_in) in
  let w = Mat.init fan_out fan_in (fun _ _ -> scale *. Rng.gaussian rng) in
  let b = Vec.zeros fan_out in
  Layer.affine w b

let dense rng ~layer_sizes =
  match layer_sizes with
  | [] | [ _ ] -> invalid_arg "Init.dense: need at least input and output sizes"
  | input_dim :: rest ->
      let rec build fan_in = function
        | [] -> []
        | [ last ] -> [ he_affine rng ~fan_in ~fan_out:last ]
        | next :: tail ->
            he_affine rng ~fan_in ~fan_out:next :: Layer.Relu
            :: build next tail
      in
      Network.create ~input_dim (build input_dim rest)

let he_conv rng ~input ~out_channels ~kernel ~stride ~padding =
  let in_channels = input.Shape.channels in
  let fan_in = in_channels * kernel * kernel in
  let scale = sqrt (2.0 /. float_of_int fan_in) in
  let count = out_channels * in_channels * kernel * kernel in
  let weights = Array.init count (fun _ -> scale *. Rng.gaussian rng) in
  let bias = Vec.zeros out_channels in
  Conv.create ~input ~out_channels ~kernel ~stride ~padding ~weights ~bias

let lenet_like ?(pooling = `Max) rng ~input ~classes =
  if input.Shape.height mod 4 <> 0 || input.Shape.width mod 4 <> 0 then
    invalid_arg "Init.lenet_like: spatial dims must be divisible by 4";
  let conv_block input out_channels =
    let c = he_conv rng ~input ~out_channels ~kernel:3 ~stride:1 ~padding:1 in
    (c, Conv.output_shape c)
  in
  let pool input =
    match pooling with
    | `Max ->
        let p = Pool.create ~input ~kernel:2 ~stride:2 in
        (Layer.Maxpool p, Pool.output_shape p)
    | `Avg ->
        let p = Avgpool.create ~input ~kernel:2 ~stride:2 in
        (Layer.Avgpool p, Avgpool.output_shape p)
  in
  let c1, s1 = conv_block input 4 in
  let c2, s2 = conv_block s1 4 in
  let p1, s3 = pool s2 in
  let c3, s4 = conv_block s3 8 in
  let c4, s5 = conv_block s4 8 in
  let p2, s6 = pool s5 in
  let flat = Shape.size s6 in
  Network.create ~input_dim:(Shape.size input)
    [
      Layer.Conv c1;
      Layer.Relu;
      Layer.Conv c2;
      Layer.Relu;
      p1;
      Layer.Conv c3;
      Layer.Relu;
      Layer.Conv c4;
      Layer.Relu;
      p2;
      he_affine rng ~fan_in:flat ~fan_out:32;
      Layer.Relu;
      he_affine rng ~fan_in:32 ~fan_out:16;
      Layer.Relu;
      he_affine rng ~fan_in:16 ~fan_out:classes;
    ]
