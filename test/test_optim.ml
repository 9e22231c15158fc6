open Linalg
open Domains

(* ------------------------------------------------------------------ *)
(* Objective *)

let test_objective_value_definition () =
  Util.repeat ~seed:90 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let scores = Nn.Network.eval net x in
      let best_other = ref neg_infinity in
      Array.iteri
        (fun j s -> if j <> k && s > !best_other then best_other := s)
        scores;
      Util.check_close ~eps:1e-9 "F = s_k - max_other"
        (scores.(k) -. !best_other)
        (Optim.Objective.value obj x))

let test_objective_sign_matches_classification () =
  Util.repeat ~seed:91 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let predicted = Nn.Network.classify net x in
      let obj = Optim.Objective.create net ~k:predicted in
      Util.check_true "argmax class has F >= 0"
        (Optim.Objective.value obj x >= 0.0))

let test_objective_grad_matches_finite_diff () =
  Util.repeat ~seed:92 ~count:15 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let x =
        Vec.init net.Nn.Network.input_dim (fun _ ->
            Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let _, g = Optim.Objective.value_grad obj x in
      let fd =
        Nn.Grad.finite_diff (fun y -> Optim.Objective.value obj y) x ~eps:1e-5
      in
      (* Finite differences can disagree exactly at a runner-up tie or a
         ReLU kink; tolerate by checking closeness of the directional
         derivative along a random direction instead of each component. *)
      let d = Vec.init (Vec.dim x) (fun _ -> Rng.gaussian rng) in
      Util.check_close ~eps:1e-3 "directional derivative" (Vec.dot fd d)
        (Vec.dot g d))

let test_objective_delta_counterexample () =
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  (* At x = 2, F = 6 - 8 = -2: a true counterexample. *)
  Util.check_true "true cex" (Optim.Objective.is_counterexample obj [| 2.0 |]);
  Util.check_true "also a delta cex"
    (Optim.Objective.is_delta_counterexample obj ~delta:0.1 [| 2.0 |]);
  (* At x = 0, F = 1 > 0.1: not even a delta counterexample. *)
  Util.check_true "not a cex"
    (not (Optim.Objective.is_delta_counterexample obj ~delta:0.1 [| 0.0 |]))

let test_objective_rejects_bad_class () =
  let net = Nn.Init.xor () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Objective.create: class out of range") (fun () ->
      ignore (Optim.Objective.create net ~k:2))

(* ------------------------------------------------------------------ *)
(* PGD *)

let test_pgd_stays_inside () =
  Util.repeat ~seed:93 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let x, v = Optim.Pgd.minimize ~rng obj box in
      Util.check_true "inside region" (Box.contains box x);
      Util.check_close ~eps:1e-9 "reported value is F(x)" (Optim.Objective.value obj x) v)

let test_pgd_finds_known_counterexample () =
  (* Example 2.2 on [-1, 2]: the violating set [x > 5/3] is large, PGD
     must find it. *)
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  let rng = Rng.create 94 in
  let x, v = Optim.Pgd.minimize ~rng obj box in
  Util.check_true "found violation" (v <= 0.0);
  Util.check_true "witness misclassified" (Nn.Network.classify net x <> 1)

let test_pgd_beats_center_value () =
  Util.repeat ~seed:95 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let _, v = Optim.Pgd.minimize ~rng obj box in
      Util.check_true "no worse than the center start"
        (v <= Optim.Objective.value obj (Box.center box) +. 1e-9))

let test_pgd_early_stop () =
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  let config =
    { Optim.Pgd.default_config with Optim.Pgd.early_stop = Some 0.0 }
  in
  let _, v = Optim.Pgd.minimize ~config ~rng:(Rng.create 96) obj box in
  Util.check_true "stopped at a violation" (v <= 0.0)

let test_pgd_point_region () =
  (* A degenerate region: PGD must return the point itself. *)
  let net = Nn.Init.xor () in
  let obj = Optim.Objective.create net ~k:1 in
  let p = [| 0.4; 0.6 |] in
  let x, v = Optim.Pgd.minimize ~rng:(Rng.create 97) obj (Box.of_point p) in
  Util.check_vec "returns the point" p x;
  Util.check_close ~eps:1e-9 "value at point" (Optim.Objective.value obj p) v

let test_pgd_restarts_never_hurt () =
  (* The first restart starts at the region center and draws nothing
     from [rng], so a one-restart run is the first restart of a
     five-restart run: the extra restarts can only keep or lower the
     best value. *)
  Util.repeat ~seed:99 ~count:20 (fun rng i ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let best restarts =
        let config = { Optim.Pgd.default_config with Optim.Pgd.restarts } in
        snd (Optim.Pgd.minimize ~config ~rng:(Rng.create i) obj box)
      in
      Util.check_true "five restarts no worse than one" (best 5 <= best 1))

(* ------------------------------------------------------------------ *)
(* FGSM *)

let test_fgsm_stays_inside () =
  Util.repeat ~seed:98 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let x, v = Optim.Fgsm.attack_center obj box in
      Util.check_true "inside" (Box.contains box x);
      Util.check_close ~eps:1e-9 "value" (Optim.Objective.value obj x) v)

let test_fgsm_moves_to_faces () =
  (* On a linear objective FGSM reaches the exact minimizing corner. *)
  let w = Mat.of_rows [| [| 1.0; -1.0 |]; [| 0.0; 0.0 |] |] in
  let net = Nn.Network.create ~input_dim:2 [ Nn.Layer.affine w (Vec.zeros 2) ] in
  let obj = Optim.Objective.create net ~k:0 in
  let box = Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let x, _ = Optim.Fgsm.attack_center obj box in
  (* F = y0 - y1 = x0 - x1; minimized at (0, 1). *)
  Util.check_vec "exact corner" [| 0.0; 1.0 |] x

let test_fgsm_finds_known_counterexample () =
  (* Example 2.2 on [-1, 2]: F is flat below x = 1, so start on its
     slope; the one signed step reaches the face x = 2, where
     F = 6 - 8 = -2. *)
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  let x, v = Optim.Fgsm.attack obj box ~from:[| 1.2 |] in
  Util.check_vec "upper face" [| 2.0 |] x;
  Util.check_true "found violation" (v <= 0.0);
  Util.check_true "witness misclassified" (Nn.Network.classify net x <> 1)

let test_fgsm_point_region () =
  (* A degenerate region: both faces are the point itself. *)
  let net = Nn.Init.xor () in
  let obj = Optim.Objective.create net ~k:1 in
  let p = [| 0.4; 0.6 |] in
  let x, v = Optim.Fgsm.attack_center obj (Box.of_point p) in
  Util.check_vec "returns the point" p x;
  Util.check_close ~eps:1e-9 "value at point" (Optim.Objective.value obj p) v

(* ------------------------------------------------------------------ *)
(* Pinned optimiser output.

   Every attack must return exactly these bits.  [Verify] branches on
   the point PGD returns and on its objective value: it refutes when the
   value is at most delta and otherwise cuts towards the point, so a
   change in the last bit of either moves the search tree, the learned
   policy and perfbench/inputs.md5.  Each row is the MD5 of the IEEE
   bits of the returned point and value.  Seeds are fixed, not
   CHARON_TEST_SEED-overridable: the table holds numbers, not a
   property. *)

(* The 20 random problems of test_charon's verify-golden table, then a
   small plain-conv net and two LeNet-style nets with average and max
   pooling, each on a box around a random point. *)
let golden_problems () =
  let rng = Rng.create 2019 in
  let random =
    List.init 20 (fun _ ->
        let net, prop = Util.boundary_problem (Rng.split rng) in
        (net, prop.Common.Property.region, prop.Common.Property.target))
  in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let plain_conv rng =
    let c =
      Nn.Conv.create ~input ~out_channels:2 ~kernel:3 ~stride:1 ~padding:1
        ~weights:
          (Array.init
             (Nn.Conv.weight_count ~out_channels:2 ~in_channels:1 ~kernel:3)
             (fun _ -> 0.5 *. Rng.gaussian rng))
        ~bias:(Vec.init 2 (fun _ -> 0.1 *. Rng.gaussian rng))
    in
    let flat = Nn.Shape.size (Nn.Conv.output_shape c) in
    Nn.Network.create ~input_dim:(Nn.Shape.size input)
      [
        Nn.Layer.Conv c;
        Nn.Layer.Relu;
        Nn.Layer.affine
          (Mat.init 3 flat (fun _ _ -> 0.3 *. Rng.gaussian rng))
          (Vec.zeros 3);
      ]
  in
  let image rng net =
    let center = Vec.init (Nn.Shape.size input) (fun _ -> Rng.float rng 1.0) in
    (net, Box.of_center_radius center 0.1, Nn.Network.classify net center)
  in
  let r = Rng.split rng in
  random
  @ [
      image r (plain_conv r);
      image r (Nn.Init.lenet_like ~pooling:`Avg r ~input ~classes:3);
      image r (Nn.Init.lenet_like ~pooling:`Max r ~input ~classes:3);
    ]

let bits_digest (x, v) =
  let b = Buffer.create 256 in
  Array.iter (fun xi -> Buffer.add_int64_le b (Int64.bits_of_float xi)) x;
  Buffer.add_int64_le b (Int64.bits_of_float v);
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_rows () =
  let verify_pgd =
    let cfg = Charon.Verify.default_config in
    { cfg.Charon.Verify.pgd with
      Optim.Pgd.early_stop = Some cfg.Charon.Verify.delta }
  in
  List.concat
    (List.mapi
       (fun i (net, region, k) ->
         let obj = Optim.Objective.create net ~k in
         let seed = 500 + i in
         let row name result =
           Printf.sprintf "%s/%d %s" name i (bits_digest result)
         in
         [
           row "pgd-verify"
             (Optim.Pgd.minimize ~config:verify_pgd ~rng:(Rng.create seed) obj
                region);
           row "pgd-default"
             (Optim.Pgd.minimize ~rng:(Rng.create seed) obj region);
           row "fgsm" (Optim.Fgsm.attack_center obj region);
         ])
       (golden_problems ()))

let golden_expected =
  [
    "pgd-verify/0 d9a8e3912a485701e2eb4994a7d99893";
    "pgd-default/0 d9a8e3912a485701e2eb4994a7d99893";
    "fgsm/0 20e3f1e17bdfa45017aad29d73cc4e03";
    "pgd-verify/1 2b480744227bf8cde19b55e4e5241470";
    "pgd-default/1 2b480744227bf8cde19b55e4e5241470";
    "fgsm/1 ded83895bd086095d1112d520bd67659";
    "pgd-verify/2 cfdb87a0572b317567c015cbec335734";
    "pgd-default/2 cfdb87a0572b317567c015cbec335734";
    "fgsm/2 cfdb87a0572b317567c015cbec335734";
    "pgd-verify/3 e290736534d2ab33377ee0f811e49c93";
    "pgd-default/3 e290736534d2ab33377ee0f811e49c93";
    "fgsm/3 5745147ddb1c35acf8d9b4a1377c1ee3";
    "pgd-verify/4 113fa0e0fbcc88563f3ed0bc51fccda4";
    "pgd-default/4 113fa0e0fbcc88563f3ed0bc51fccda4";
    "fgsm/4 113fa0e0fbcc88563f3ed0bc51fccda4";
    "pgd-verify/5 712f67684cfe46bb5c453c21fe90ae01";
    "pgd-default/5 712f67684cfe46bb5c453c21fe90ae01";
    "fgsm/5 712f67684cfe46bb5c453c21fe90ae01";
    "pgd-verify/6 e4c02ec6fa9c8c7b2e2f6c32c9cfc45f";
    "pgd-default/6 c2c4bc0c6231cee14afe496a40c7982b";
    "fgsm/6 e28cab54930831fb196adeb4c2609eda";
    "pgd-verify/7 6e3585e0f0a990f4a611886daabfa13a";
    "pgd-default/7 1e9a88dddf4d63875c212c98a061d071";
    "fgsm/7 1e9a88dddf4d63875c212c98a061d071";
    "pgd-verify/8 a850c16f45f5f90c7fb1c15ec78a8faa";
    "pgd-default/8 a850c16f45f5f90c7fb1c15ec78a8faa";
    "fgsm/8 4f8fdd16a11576694743fb6f386af6df";
    "pgd-verify/9 d1738f82e6e5de2db2506270d45be5dd";
    "pgd-default/9 d1738f82e6e5de2db2506270d45be5dd";
    "fgsm/9 d1738f82e6e5de2db2506270d45be5dd";
    "pgd-verify/10 19b97ee3855d1e14a4843eb7a218177f";
    "pgd-default/10 19b97ee3855d1e14a4843eb7a218177f";
    "fgsm/10 19b97ee3855d1e14a4843eb7a218177f";
    "pgd-verify/11 0d621efaa0e777d37a75b79a9d3180b1";
    "pgd-default/11 0d621efaa0e777d37a75b79a9d3180b1";
    "fgsm/11 0d621efaa0e777d37a75b79a9d3180b1";
    "pgd-verify/12 0edb27d057b99dcd91fb4dbc71800225";
    "pgd-default/12 0edb27d057b99dcd91fb4dbc71800225";
    "fgsm/12 0edb27d057b99dcd91fb4dbc71800225";
    "pgd-verify/13 c25f0c87c9c940cf46c1e9ce0512de2e";
    "pgd-default/13 c25f0c87c9c940cf46c1e9ce0512de2e";
    "fgsm/13 c25f0c87c9c940cf46c1e9ce0512de2e";
    "pgd-verify/14 50d0febccedb915e612124ac11893b8e";
    "pgd-default/14 50d0febccedb915e612124ac11893b8e";
    "fgsm/14 429f1b78fb8eb68f9c88c66097df834d";
    "pgd-verify/15 a5198ba2940099dbb897f310695668c9";
    "pgd-default/15 a5198ba2940099dbb897f310695668c9";
    "fgsm/15 7b94d464c2569a9acdc08977a0ba0bfe";
    "pgd-verify/16 12d1499ebdd9ac8ac0dfef7d45cef427";
    "pgd-default/16 12d1499ebdd9ac8ac0dfef7d45cef427";
    "fgsm/16 12d1499ebdd9ac8ac0dfef7d45cef427";
    "pgd-verify/17 fa5d72e7ab337b7912a8ff8e3ddcbab0";
    "pgd-default/17 fa5d72e7ab337b7912a8ff8e3ddcbab0";
    "fgsm/17 fa5d72e7ab337b7912a8ff8e3ddcbab0";
    "pgd-verify/18 676ca40becfd64fba991709201ed6fd6";
    "pgd-default/18 676ca40becfd64fba991709201ed6fd6";
    "fgsm/18 676ca40becfd64fba991709201ed6fd6";
    "pgd-verify/19 db37fd9a1ad836e0d8784c25d11213f6";
    "pgd-default/19 8a7d773dd2736d3b0ec829ac635c7fc1";
    "fgsm/19 8a7d773dd2736d3b0ec829ac635c7fc1";
    "pgd-verify/20 a2bf7d1ffdfb37d8f033fb6b053ed7cd";
    "pgd-default/20 a2bf7d1ffdfb37d8f033fb6b053ed7cd";
    "fgsm/20 3785f8a22dfdb33859a8b1bd17a42504";
    "pgd-verify/21 ca308dcb6cfa5a1b790eb2582b667a4e";
    "pgd-default/21 d6b4f2207691ff6ebd8d8eb8fa26facd";
    "fgsm/21 59d06d8c29a2c821b670b16f6c70f7c8";
    "pgd-verify/22 b4b4710b906510a02743583ad42cc78b";
    "pgd-default/22 b4b4710b906510a02743583ad42cc78b";
    "fgsm/22 5d853faae3ad78e331133c3970ff3be7";
  ]

let test_pgd_golden () =
  Alcotest.(check (list string)) "attack outputs" golden_expected
    (golden_rows ())

(* [value_grad] is [value] and [Grad.vjp] at one point, to the bit. *)
let test_value_grad_bitwise () =
  List.iter
    (fun (net, region, k) ->
      let obj = Optim.Objective.create net ~k in
      List.iter
        (fun x ->
          (* dF = e_k - e_j for the runner-up j: the first argmax among
             the other classes. *)
          let scores = Nn.Network.eval net x in
          let j = ref (if k = 0 then 1 else 0) in
          Array.iteri
            (fun c s -> if c <> k && s > scores.(!j) then j := c)
            scores;
          let dout =
            Vec.init (Vec.dim scores) (fun i ->
                if i = k then 1.0 else if i = !j then -1.0 else 0.0)
          in
          let bits = Array.map Int64.bits_of_float in
          let v, g = Optim.Objective.value_grad obj x in
          Util.check_true "value bits"
            (bits [| v |] = bits [| Optim.Objective.value obj x |]);
          Util.check_true "gradient bits"
            (bits g = bits (Nn.Grad.vjp net ~x ~dout)))
        [ Box.center region; region.Box.lo ])
    (golden_problems ())

let () =
  Alcotest.run "optim"
    [
      ( "objective",
        [
          Util.case "value definition" test_objective_value_definition;
          Util.case "sign matches classification" test_objective_sign_matches_classification;
          Util.case "gradient vs finite diff" test_objective_grad_matches_finite_diff;
          Util.case "delta counterexamples" test_objective_delta_counterexample;
          Util.case "rejects bad class" test_objective_rejects_bad_class;
        ] );
      ( "pgd",
        [
          Util.case "stays inside region" test_pgd_stays_inside;
          Util.case "finds known counterexample" test_pgd_finds_known_counterexample;
          Util.case "beats center value" test_pgd_beats_center_value;
          Util.case "early stop" test_pgd_early_stop;
          Util.case "degenerate region" test_pgd_point_region;
          Util.case "restarts never hurt" test_pgd_restarts_never_hurt;
        ] );
      ( "fgsm",
        [
          Util.case "stays inside region" test_fgsm_stays_inside;
          Util.case "reaches minimizing corner" test_fgsm_moves_to_faces;
          Util.case "finds known counterexample" test_fgsm_finds_known_counterexample;
          Util.case "degenerate region" test_fgsm_point_region;
        ] );
      ( "pgd-golden",
        [
          Util.case "attack outputs to the bit" test_pgd_golden;
          Util.case "value_grad agrees to the bit" test_value_grad_bitwise;
        ] );
    ]
