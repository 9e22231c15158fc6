open Linalg

(* ------------------------------------------------------------------ *)
(* Shape *)

let test_shape_size_index () =
  let s = Nn.Shape.create ~channels:2 ~height:3 ~width:4 in
  Alcotest.(check int) "size" 24 (Nn.Shape.size s);
  Alcotest.(check int) "index 0" 0 (Nn.Shape.index s ~c:0 ~i:0 ~j:0);
  Alcotest.(check int) "index last" 23 (Nn.Shape.index s ~c:1 ~i:2 ~j:3);
  Alcotest.(check int) "chw layout" 12 (Nn.Shape.index s ~c:1 ~i:0 ~j:0)

let test_shape_conv_output () =
  let s = Nn.Shape.create ~channels:1 ~height:8 ~width:8 in
  let o = Nn.Shape.conv_output s ~kernel:3 ~stride:1 ~padding:1 ~out_channels:4 in
  Util.check_true "same spatial"
    (Nn.Shape.equal o (Nn.Shape.create ~channels:4 ~height:8 ~width:8));
  let p = Nn.Shape.conv_output s ~kernel:2 ~stride:2 ~padding:0 ~out_channels:1 in
  Util.check_true "pooling halves"
    (Nn.Shape.equal p (Nn.Shape.create ~channels:1 ~height:4 ~width:4))

let test_shape_bad_geometry () =
  let s = Nn.Shape.create ~channels:1 ~height:5 ~width:5 in
  Alcotest.check_raises "stride does not tile"
    (Invalid_argument "Shape.conv_output: stride does not tile the input")
    (fun () ->
      ignore (Nn.Shape.conv_output s ~kernel:2 ~stride:2 ~padding:0 ~out_channels:1))

(* ------------------------------------------------------------------ *)
(* Conv *)

let random_conv rng ~input ~out_channels ~kernel ~stride ~padding =
  let in_channels = input.Nn.Shape.channels in
  let count = out_channels * in_channels * kernel * kernel in
  Nn.Conv.create ~input ~out_channels ~kernel ~stride ~padding
    ~weights:(Array.init count (fun _ -> Rng.gaussian rng))
    ~bias:(Vec.init out_channels (fun _ -> Rng.gaussian rng))

let test_conv_forward_matches_affine_lowering () =
  Util.repeat ~seed:20 ~count:20 (fun rng _ ->
      let input =
        Nn.Shape.create ~channels:(1 + Rng.int rng 2) ~height:4 ~width:4
      in
      let c =
        random_conv rng ~input ~out_channels:(1 + Rng.int rng 3) ~kernel:3
          ~stride:1 ~padding:1
      in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let w, b = Nn.Conv.to_affine c in
      Util.check_vec ~eps:1e-9 "direct = lowered"
        (Vec.add (Mat.matvec w x) b)
        (Nn.Conv.forward c x))

let test_conv_strided_matches_lowering () =
  Util.repeat ~seed:21 ~count:10 (fun rng _ ->
      let input = Nn.Shape.create ~channels:2 ~height:6 ~width:6 in
      let c = random_conv rng ~input ~out_channels:3 ~kernel:2 ~stride:2 ~padding:0 in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let w, b = Nn.Conv.to_affine c in
      Util.check_vec ~eps:1e-9 "strided direct = lowered"
        (Vec.add (Mat.matvec w x) b)
        (Nn.Conv.forward c x))

let test_conv_backward_is_transpose () =
  Util.repeat ~seed:22 ~count:20 (fun rng _ ->
      let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
      let c = random_conv rng ~input ~out_channels:2 ~kernel:3 ~stride:1 ~padding:1 in
      let out = Nn.Conv.output_shape c in
      let dout = Vec.init (Nn.Shape.size out) (fun _ -> Rng.gaussian rng) in
      let w, _ = Nn.Conv.to_affine c in
      Util.check_vec ~eps:1e-9 "backward = W^T dout"
        (Mat.matvec_t w dout)
        (Nn.Conv.backward c ~dout))

let test_conv_grad_params_finite_diff () =
  let rng = Rng.create 23 in
  let input = Nn.Shape.create ~channels:1 ~height:3 ~width:3 in
  let c = random_conv rng ~input ~out_channels:1 ~kernel:2 ~stride:1 ~padding:0 in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
  let out_dim = Nn.Shape.size (Nn.Conv.output_shape c) in
  let dout = Vec.create out_dim 1.0 in
  let dw, db = Nn.Conv.grad_params c ~x ~dout in
  (* loss = sum of outputs; finite-difference each parameter. *)
  let loss weights bias =
    let c' =
      Nn.Conv.create ~input ~out_channels:1 ~kernel:2 ~stride:1 ~padding:0
        ~weights ~bias
    in
    Vec.sum (Nn.Conv.forward c' x)
  in
  let eps = 1e-5 in
  Array.iteri
    (fun i g ->
      let bump s =
        let w = Array.copy c.Nn.Conv.weights in
        w.(i) <- w.(i) +. s;
        loss w c.Nn.Conv.bias
      in
      Util.check_close ~eps:1e-4 "dweight"
        ((bump eps -. bump (-.eps)) /. (2.0 *. eps))
        g)
    dw;
  Array.iteri
    (fun i g ->
      let bump s =
        let b = Vec.copy c.Nn.Conv.bias in
        b.(i) <- b.(i) +. s;
        loss c.Nn.Conv.weights b
      in
      Util.check_close ~eps:1e-4 "dbias"
        ((bump eps -. bump (-.eps)) /. (2.0 *. eps))
        g)
    db

(* The im2col + GEMM kernels against the direct nested-loop oracles,
   over varied geometry (padding, stride, channel counts). *)
let test_conv_gemm_matches_direct_oracles () =
  Util.repeat ~seed:24 ~count:15 (fun rng _ ->
      let channels = 1 + Rng.int rng 3 in
      let stride = 1 + Rng.int rng 2 in
      let padding = Rng.int rng 2 in
      let kernel = if stride = 2 then 2 else 2 + Rng.int rng 2 in
      let hw = if stride = 2 then 6 else 5 + Rng.int rng 3 in
      let input = Nn.Shape.create ~channels ~height:hw ~width:hw in
      let c =
        random_conv rng ~input ~out_channels:(1 + Rng.int rng 3) ~kernel
          ~stride ~padding
      in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let out_dim = Nn.Shape.size (Nn.Conv.output_shape c) in
      let dout = Vec.init out_dim (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:1e-9 "forward = direct"
        (Nn.Conv.forward_direct c x)
        (Nn.Conv.forward c x);
      Util.check_vec ~eps:1e-9 "backward = direct"
        (Nn.Conv.backward_direct c ~dout)
        (Nn.Conv.backward c ~dout);
      let dw, db = Nn.Conv.grad_params c ~x ~dout in
      let dw', db' = Nn.Conv.grad_params_direct c ~x ~dout in
      Util.check_vec ~eps:1e-9 "dweights = direct" dw' dw;
      Util.check_vec ~eps:1e-9 "dbias = direct" db' db)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_forward () =
  let input = Nn.Shape.create ~channels:1 ~height:2 ~width:2 in
  let p = Nn.Pool.create ~input ~kernel:2 ~stride:2 in
  Util.check_vec "max of window" [| 4.0 |]
    (Nn.Pool.forward p [| 1.0; 4.0; 2.0; 3.0 |])

let test_pool_windows_cover_input () =
  let input = Nn.Shape.create ~channels:2 ~height:4 ~width:4 in
  let p = Nn.Pool.create ~input ~kernel:2 ~stride:2 in
  let seen = Array.make (Nn.Shape.size input) false in
  Array.iter
    (fun w -> Array.iter (fun i -> seen.(i) <- true) w)
    (Nn.Pool.windows p);
  Util.check_true "every input in some window" (Array.for_all Fun.id seen)

let test_pool_backward_routes_to_argmax () =
  let input = Nn.Shape.create ~channels:1 ~height:2 ~width:2 in
  let p = Nn.Pool.create ~input ~kernel:2 ~stride:2 in
  let x = [| 1.0; 4.0; 2.0; 3.0 |] in
  Util.check_vec "grad to max input" [| 0.0; 5.0; 0.0; 0.0 |]
    (Nn.Pool.backward p ~x ~dout:[| 5.0 |])

let test_avgpool_forward () =
  let input = Nn.Shape.create ~channels:1 ~height:2 ~width:2 in
  let p = Nn.Avgpool.create ~input ~kernel:2 ~stride:2 in
  Util.check_vec "mean of window" [| 2.5 |]
    (Nn.Avgpool.forward p [| 1.0; 4.0; 2.0; 3.0 |])

let test_avgpool_matches_lowering () =
  Util.repeat ~seed:25 ~count:10 (fun rng _ ->
      let input = Nn.Shape.create ~channels:2 ~height:4 ~width:4 in
      let p = Nn.Avgpool.create ~input ~kernel:2 ~stride:2 in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let w, b = Nn.Avgpool.to_affine p in
      Util.check_vec ~eps:1e-9 "direct = lowered"
        (Vec.add (Mat.matvec w x) b)
        (Nn.Avgpool.forward p x))

let test_avgpool_backward_is_transpose () =
  let rng = Rng.create 26 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let p = Nn.Avgpool.create ~input ~kernel:2 ~stride:2 in
  let dout = Vec.init 4 (fun _ -> Rng.gaussian rng) in
  let w, _ = Nn.Avgpool.to_affine p in
  Util.check_vec ~eps:1e-9 "backward = W^T dout" (Mat.matvec_t w dout)
    (Nn.Avgpool.backward p ~dout)

let test_avgpool_lenet_end_to_end () =
  (* The avg-pooling LeNet variant works through serialization,
     gradients, and (because pooling is affine) the complete checker's
     encoding. *)
  let rng = Rng.create 27 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like ~pooling:`Avg rng ~input ~classes:3 in
  let x = Vec.init 16 (fun _ -> Rng.float rng 1.0) in
  let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
  Util.check_vec ~eps:0.0 "serial roundtrip" (Nn.Network.eval net x)
    (Nn.Network.eval net' x);
  let g = Nn.Grad.grad_output net ~x ~k:0 in
  let fd =
    Nn.Grad.finite_diff (fun y -> (Nn.Network.eval net y).(0)) x ~eps:1e-5
  in
  Util.check_vec ~eps:1e-3 "gradient" fd g;
  (* Encodes for the complete checker, unlike the max-pooling LeNet. *)
  let region = Domains.Box.of_center_radius x 0.01 in
  ignore (Reluplex.Encoding.build net region)

(* ------------------------------------------------------------------ *)
(* Network: the paper's example networks *)

let test_xor_truth_table () =
  let net = Nn.Init.xor () in
  List.iter
    (fun ((a, b), expected) ->
      Alcotest.(check int)
        (Printf.sprintf "xor %g %g" a b)
        expected
        (Nn.Network.classify net [| a; b |]))
    [ ((0.0, 0.0), 0); ((0.0, 1.0), 1); ((1.0, 0.0), 1); ((1.0, 1.0), 0) ]

let test_example_2_2_outputs () =
  let net = Nn.Init.example_2_2 () in
  (* N(x) = [a+1; a+2] with a = relu(2x+1) on [-1, 1] (the paper's
     N(0) = [1 3] is a typo; its own closed form gives [2 3]). *)
  Util.check_vec "N(0)" [| 2.0; 3.0 |] (Nn.Network.eval net [| 0.0 |]);
  (* N(2) = [8; 6] per the paper, so 2 is classified as class 0. *)
  Util.check_vec "N(2)" [| 8.0; 6.0 |] (Nn.Network.eval net [| 2.0 |]);
  Alcotest.(check int) "class of 0" 1 (Nn.Network.classify net [| 0.0 |]);
  Alcotest.(check int) "class of 2" 0 (Nn.Network.classify net [| 2.0 |])

let test_example_2_3_class_b_inside () =
  let net = Nn.Init.example_2_3 () in
  let rng = Rng.create 31 in
  for _ = 1 to 500 do
    let x = [| Rng.float rng 1.0; Rng.float rng 1.0 |] in
    Alcotest.(check int) "class B on [0,1]^2" 1 (Nn.Network.classify net x)
  done

let test_staircase_fixtures () =
  (* The committed nets that CI and the docs feed to `charon serve` and
     `charon dverify` must be exactly this constructor's. *)
  List.iter
    (fun d ->
      let path = Printf.sprintf "fixtures/staircase-d%d.net" d in
      let text = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string)
        (path ^ " is Nn.Init.staircase")
        (Nn.Serial.to_string (Nn.Init.staircase d))
        text)
    [ 3; 6 ]

let test_network_dimension_check () =
  Alcotest.check_raises "mismatched layers"
    (Invalid_argument
       "Network.create: layer 'affine 2x3' expects input dim 3, got 2")
    (fun () ->
      ignore
        (Nn.Network.create ~input_dim:2
           [ Nn.Layer.affine (Mat.zeros 2 3) (Vec.zeros 2) ]))

let test_forward_trace_shape () =
  let net = Nn.Init.xor () in
  let trace = Nn.Network.forward_trace net [| 0.0; 1.0 |] in
  Alcotest.(check int) "trace length" 4 (Array.length trace);
  Util.check_vec "last is output" (Nn.Network.eval net [| 0.0; 1.0 |])
    trace.(3)

let test_num_relu_units () =
  let net = Util.random_dense (Rng.create 1) [ 4; 7; 5; 3 ] in
  Alcotest.(check int) "relu units" 12 (Nn.Network.num_relu_units net)

let test_lipschitz_bound_holds () =
  Util.repeat ~seed:32 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let l = Nn.Network.lipschitz_upper net in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let y = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let dx = Vec.norm_inf (Vec.sub x y) in
      let dy =
        Vec.norm_inf (Vec.sub (Nn.Network.eval net x) (Nn.Network.eval net y))
      in
      Util.check_true "|N(x)-N(y)| <= L |x-y|" (dy <= (l *. dx) +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Grad: backprop vs finite differences *)

let test_grad_matches_finite_diff_dense () =
  Util.repeat ~seed:33 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let x =
        Vec.init net.Nn.Network.input_dim (fun _ ->
            Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let g = Nn.Grad.grad_output net ~x ~k in
      let fd =
        Nn.Grad.finite_diff (fun y -> (Nn.Network.eval net y).(k)) x ~eps:1e-5
      in
      Util.check_vec ~eps:1e-4 "backprop = finite diff" fd g)

let test_grad_matches_finite_diff_conv () =
  let rng = Rng.create 34 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0) in
  let g = Nn.Grad.grad_output net ~x ~k:1 in
  let fd =
    Nn.Grad.finite_diff (fun y -> (Nn.Network.eval net y).(1)) x ~eps:1e-5
  in
  Util.check_vec ~eps:1e-3 "conv net gradient" fd g

let test_vjp_linearity () =
  Util.repeat ~seed:35 ~count:10 (fun rng _ ->
      let net = Util.small_net rng in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let m = net.Nn.Network.output_dim in
      let u = Vec.init m (fun _ -> Rng.gaussian rng) in
      let v = Vec.init m (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:1e-9 "vjp is linear in the cotangent"
        (Vec.add (Nn.Grad.vjp net ~x ~dout:u) (Nn.Grad.vjp net ~x ~dout:v))
        (Nn.Grad.vjp net ~x ~dout:(Vec.add u v)))

(* ------------------------------------------------------------------ *)
(* Batched layer application *)

let test_layer_batch_matches_per_sample () =
  let rng = Rng.create 31 in
  let input = Nn.Shape.create ~channels:2 ~height:4 ~width:4 in
  let in_dim = Nn.Shape.size input in
  let layers =
    [
      Nn.Layer.affine
        (Mat.init 5 in_dim (fun _ _ -> Rng.gaussian rng))
        (Vec.init 5 (fun _ -> Rng.gaussian rng));
      Nn.Layer.Relu;
      Nn.Layer.Conv
        (random_conv rng ~input ~out_channels:3 ~kernel:3 ~stride:1 ~padding:1);
      Nn.Layer.Maxpool (Nn.Pool.create ~input ~kernel:2 ~stride:2);
    ]
  in
  List.iter
    (fun layer ->
      let batch = 6 in
      let out_dim = Nn.Layer.output_dim ~given:in_dim layer in
      let x = Mat.init batch in_dim (fun _ _ -> Rng.gaussian rng) in
      let y = Nn.Layer.forward_batch layer x in
      Alcotest.(check int) "output cols" out_dim y.Mat.cols;
      for r = 0 to batch - 1 do
        Util.check_vec ~eps:1e-9 "forward row"
          (Nn.Layer.forward layer (Mat.row x r))
          (Mat.row y r)
      done;
      let dout = Mat.init batch out_dim (fun _ _ -> Rng.gaussian rng) in
      let dx = Nn.Layer.backward_batch layer ~x ~dout in
      for r = 0 to batch - 1 do
        Util.check_vec ~eps:1e-9 "backward row"
          (Nn.Layer.backward layer ~x:(Mat.row x r) ~dout:(Mat.row dout r))
          (Mat.row dx r)
      done)
    layers

(* ------------------------------------------------------------------ *)
(* Train *)

let test_softmax_properties () =
  let s = Nn.Train.softmax [| 1.0; 2.0; 3.0 |] in
  Util.check_close ~eps:1e-9 "sums to one" 1.0 (Vec.sum s);
  Util.check_true "monotone" (s.(0) < s.(1) && s.(1) < s.(2));
  let s' = Nn.Train.softmax [| 101.0; 102.0; 103.0 |] in
  Util.check_vec ~eps:1e-9 "shift invariant" s s'

let test_cross_entropy_positive () =
  let scores = [| 0.5; -0.2; 1.0 |] in
  for label = 0 to 2 do
    Util.check_true "nonnegative" (Nn.Train.cross_entropy_loss scores label >= 0.0)
  done

let test_training_improves_accuracy () =
  let rng = Rng.create 40 in
  let spec = Datasets.Synth_images.tiny in
  let data = Datasets.Synth_images.dataset rng spec ~per_class:30 in
  let net =
    Util.random_dense rng
      [ Nn.Shape.size spec.Datasets.Synth_images.shape; 12; 3 ]
  in
  let before = Nn.Train.accuracy net data in
  let config =
    {
      Nn.Train.epochs = 20;
      batch_size = 16;
      learning_rate = 0.05;
      weight_decay = 0.0;
      momentum = 0.9;
    }
  in
  let trained = Nn.Train.train ~config ~rng net data in
  let after = Nn.Train.accuracy trained data in
  Util.check_true
    (Printf.sprintf "accuracy improves (%.2f -> %.2f)" before after)
    (after > before && after > 0.9)

let test_training_reduces_loss () =
  let rng = Rng.create 41 in
  let spec = Datasets.Synth_images.tiny in
  let data = Datasets.Synth_images.dataset rng spec ~per_class:20 in
  let net =
    Util.random_dense rng [ Nn.Shape.size spec.Datasets.Synth_images.shape; 8; 3 ]
  in
  let before = Nn.Train.mean_loss net data in
  let trained = Nn.Train.train ~rng net data in
  Util.check_true "loss decreases" (Nn.Train.mean_loss trained data < before)

let test_training_conv_net () =
  let rng = Rng.create 42 in
  let spec = Datasets.Synth_images.tiny in
  let data = Datasets.Synth_images.dataset rng spec ~per_class:20 in
  let net =
    Nn.Init.lenet_like rng ~input:spec.Datasets.Synth_images.shape ~classes:3
  in
  let config =
    {
      Nn.Train.epochs = 30;
      batch_size = 16;
      learning_rate = 0.02;
      weight_decay = 0.0;
      momentum = 0.9;
    }
  in
  let trained = Nn.Train.train ~config ~rng net data in
  Util.check_true "conv net learns" (Nn.Train.accuracy trained data > 0.8)

(* ------------------------------------------------------------------ *)
(* Serial *)

let test_serial_roundtrip_dense () =
  Util.repeat ~seed:43 ~count:10 (fun rng _ ->
      let net = Util.small_net rng in
      let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:0.0 "exact roundtrip" (Nn.Network.eval net x)
        (Nn.Network.eval net' x))

let test_serial_roundtrip_conv () =
  let rng = Rng.create 44 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.float rng 1.0) in
  Util.check_vec ~eps:0.0 "conv roundtrip" (Nn.Network.eval net x)
    (Nn.Network.eval net' x)


(* Dense, conv, maxpool and avgpool nets, plus a dense net whose
   weights are floats the text must spell exactly. *)
let serial_nets () =
  let rng = Rng.create 45 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let edge =
    [| 0.0; -0.0; 5e-324; Float.max_float; -1e300; 0.1; 1.0 +. epsilon_float;
       Float.infinity; Float.neg_infinity |]
  in
  let conv =
    Nn.Conv.create ~input ~out_channels:2 ~kernel:2 ~stride:2 ~padding:1
      ~weights:(Vec.init 8 (fun _ -> Rng.gaussian rng))
      ~bias:[| 0.5; -0.25 |]
  in
  [
    ("dense", Util.small_net rng);
    ("conv", Nn.Network.create ~input_dim:16 [ Nn.Layer.Conv conv ]);
    ("maxpool", Nn.Init.lenet_like rng ~input ~classes:3);
    ("avgpool", Nn.Init.lenet_like ~pooling:`Avg rng ~input ~classes:3);
    ( "edge floats",
      Nn.Network.create ~input_dim:3
        [
          Nn.Layer.affine
            (Mat.init 3 3 (fun i j -> edge.((3 * i) + j)))
            [| -0.0; 2.5e-310; 1e-300 |];
        ] );
  ]

let test_serial_text_is_a_fixed_point () =
  List.iter
    (fun (name, net) ->
      let text = Nn.Serial.to_string net in
      Alcotest.(check string) name text
        (Nn.Serial.to_string (Nn.Serial.of_string text)))
    (serial_nets ())

let test_serial_rejects_garbage () =
  let fails msg text =
    Alcotest.check_raises msg (Failure msg) (fun () ->
        ignore (Nn.Serial.of_string text))
  in
  fails "Serial: expected \"network\", got \"garbage\"" "garbage 3";
  fails "Serial: unexpected end of input" "network 2\naffine 1 2 0.5 ";
  fails "Serial: expected float, got \"0.5x\"" "network 2\naffine 1 2 0.5x 1 1\nend\n";
  fails "Serial: expected integer, got \"1.5\"" "network 1.5\nend\n";
  fails "Serial: unknown layer kind \"dense\"" "network 2\ndense\nend\n";
  (* Only space, tab and newline separate tokens. *)
  fails "Serial: expected integer, got \"2\\r\"" "network 2\r\nrelu\r\nend\r\n"

let test_serial_whitespace () =
  let net =
    Nn.Serial.of_string "network\t2 \n  affine   1\t\t2  0.5 -1\n\n 0.25\n\trelu\nend"
  in
  Alcotest.(check string) "tabs and repeated spaces separate tokens"
    "network 2\naffine 1 2 0.5 -1 0.25\nrelu\nend\n"
    (Nn.Serial.to_string net)

let test_serial_file_roundtrip () =
  let net = Nn.Init.xor () in
  let path = Filename.temp_file "charon_test" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Serial.save path net;
      let net' = Nn.Serial.load path in
      Util.check_vec ~eps:0.0 "file roundtrip"
        (Nn.Network.eval net [| 1.0; 0.0 |])
        (Nn.Network.eval net' [| 1.0; 0.0 |]))

let () =
  Alcotest.run "nn"
    [
      ( "shape",
        [
          Util.case "size and index" test_shape_size_index;
          Util.case "conv output" test_shape_conv_output;
          Util.case "bad geometry" test_shape_bad_geometry;
        ] );
      ( "conv",
        [
          Util.case "forward matches lowering" test_conv_forward_matches_affine_lowering;
          Util.case "strided matches lowering" test_conv_strided_matches_lowering;
          Util.case "backward is transpose" test_conv_backward_is_transpose;
          Util.case "param grads vs finite diff" test_conv_grad_params_finite_diff;
          Util.case "gemm kernels match direct oracles"
            test_conv_gemm_matches_direct_oracles;
        ] );
      ( "pool",
        [
          Util.case "forward" test_pool_forward;
          Util.case "windows cover input" test_pool_windows_cover_input;
          Util.case "backward routes to argmax" test_pool_backward_routes_to_argmax;
          Util.case "avgpool forward" test_avgpool_forward;
          Util.case "avgpool matches lowering" test_avgpool_matches_lowering;
          Util.case "avgpool backward" test_avgpool_backward_is_transpose;
          Util.case "avgpool lenet end-to-end" test_avgpool_lenet_end_to_end;
        ] );
      ( "network",
        [
          Util.case "xor truth table" test_xor_truth_table;
          Util.case "example 2.2" test_example_2_2_outputs;
          Util.case "example 2.3 classifies B" test_example_2_3_class_b_inside;
          Util.case "dimension check" test_network_dimension_check;
          Util.case "forward trace" test_forward_trace_shape;
          Util.case "relu unit count" test_num_relu_units;
          Util.case "lipschitz bound" test_lipschitz_bound_holds;
          Util.case "staircase fixtures" test_staircase_fixtures;
        ] );
      ( "grad",
        [
          Util.case "dense vs finite diff" test_grad_matches_finite_diff_dense;
          Util.case "conv vs finite diff" test_grad_matches_finite_diff_conv;
          Util.case "vjp linearity" test_vjp_linearity;
        ] );
      ( "train",
        [
          Util.case "batched layers match per-sample" test_layer_batch_matches_per_sample;
          Util.case "softmax" test_softmax_properties;
          Util.case "cross entropy positive" test_cross_entropy_positive;
          Util.case "accuracy improves" test_training_improves_accuracy;
          Util.case "loss decreases" test_training_reduces_loss;
          Util.case "conv net trains" test_training_conv_net;
        ] );
      ( "serial",
        [
          Util.case "dense roundtrip" test_serial_roundtrip_dense;
          Util.case "conv roundtrip" test_serial_roundtrip_conv;
          Util.case "rejects garbage" test_serial_rejects_garbage;
          Util.case "text is a fixed point" test_serial_text_is_a_fixed_point;
          Util.case "whitespace" test_serial_whitespace;
          Util.case "file roundtrip" test_serial_file_roundtrip;
        ] );
    ]
