open Linalg
open Domains

let unit_box dim = Box.create ~lo:(Vec.zeros dim) ~hi:(Vec.create dim 1.0)

(* ------------------------------------------------------------------ *)
(* Paper examples as regression anchors *)

let test_example_2_2_margins () =
  let net = Nn.Init.example_2_2 () in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 1.0 |] in
  (* Zonotopes prove the property of Example 2.2; intervals do not. *)
  Util.check_true "interval fails"
    (Absint.Analyzer.margin_lower net box ~k:1 Domain.interval <= 0.0);
  Util.check_close ~eps:1e-9 "zonotope margin is exactly 1" 1.0
    (Absint.Analyzer.margin_lower net box ~k:1 Domain.zonotope)

let test_example_2_3_domain_ladder () =
  let net = Nn.Init.example_2_3 () in
  let box = unit_box 2 in
  let m spec = Absint.Analyzer.margin_lower net box ~k:1 spec in
  Util.check_close ~eps:1e-9 "I1" (-3.2) (m Domain.interval);
  Util.check_close ~eps:1e-9 "ZJ1" (-0.2) (m Domain.zonotope_join);
  Util.check_close ~eps:1e-9 "ZJ2" 0.1
    (m (Domain.powerset Domain.Zonotope_join_base 2));
  Util.check_close ~eps:1e-9 "Z1 (DeepZ)" 0.1 (m Domain.zonotope)

let test_xor_region_needs_refinement () =
  let net = Nn.Init.xor () in
  let box = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  Util.check_true "ZJ1 cannot prove the whole region"
    (Absint.Analyzer.margin_lower net box ~k:1 Domain.zonotope_join <= 0.0);
  (* ... but it can prove the sub-regions of Figure 5. *)
  let left = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.5; 0.7 |] in
  Util.check_true "left half may still need work"
    (Float.is_finite
       (Absint.Analyzer.margin_lower net left ~k:1 Domain.zonotope_join))

(* ------------------------------------------------------------------ *)
(* Verdict semantics *)

let test_analyze_verified_is_sound () =
  Util.repeat ~seed:80 ~count:30 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      match Absint.Analyzer.analyze net box ~k Domain.zonotope with
      | Absint.Analyzer.Unknown -> ()
      | Absint.Analyzer.Verified ->
          for _ = 1 to 100 do
            let x = Box.sample rng box in
            Alcotest.(check int) "classified as k" k (Nn.Network.classify net x)
          done)

let test_output_bounds_contain_samples () =
  Util.repeat ~seed:81 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let bounds = Absint.Analyzer.output_bounds net box Domain.zonotope in
      for _ = 1 to 30 do
        let y = Nn.Network.eval net (Box.sample rng box) in
        Array.iteri
          (fun i (lo, hi) ->
            Util.check_true "bounds contain outputs"
              (y.(i) >= lo -. 1e-7 && y.(i) <= hi +. 1e-7))
          bounds
      done)

let test_margin_lower_is_conservative () =
  (* The abstract margin never exceeds the true margin at any point. *)
  Util.repeat ~seed:82 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let margin = Absint.Analyzer.margin_lower net box ~k Domain.zonotope in
      let obj = Optim.Objective.create net ~k in
      for _ = 1 to 30 do
        let x = Box.sample rng box in
        Util.check_true "abstract <= concrete"
          (margin <= Optim.Objective.value obj x +. 1e-7)
      done)

let test_stats_recorded () =
  let net = Nn.Init.xor () in
  let stats = Absint.Analyzer.fresh_stats () in
  ignore
    (Absint.Analyzer.margin_lower ~stats net (unit_box 2) ~k:1 Domain.zonotope);
  Alcotest.(check int) "one call per layer" (Nn.Network.num_layers net)
    stats.Absint.Analyzer.transformer_calls;
  Util.check_true "peak disjuncts recorded" (stats.Absint.Analyzer.peak_disjuncts >= 1)

let test_budget_aborts_propagation () =
  let rng = Rng.create 83 in
  let net = Util.random_dense rng [ 8; 16; 16; 16; 3 ] in
  let budget = Common.Budget.of_steps 0 in
  Common.Budget.spend budget 1;
  let m =
    Absint.Analyzer.margin_lower ~budget net (unit_box 8) ~k:0 Domain.zonotope
  in
  Util.check_true "aborted pass proves nothing" (m = neg_infinity)

let test_deadline_aborts_single_pass () =
  (* The budget has already been polled once, before its deadline, as a
     verifier polls it between regions.  A single short pass that starts
     after the deadline must still stop at its first layer: every poll
     reads the clock, so expiry does not wait for later polls. *)
  let rng = Rng.create 84 in
  let net = Util.random_dense rng [ 8; 16; 3 ] in
  let budget = Common.Budget.of_seconds 0.05 in
  ignore (Common.Budget.exhausted budget);
  Unix.sleepf 0.1;
  let m =
    Absint.Analyzer.margin_lower ~budget net (unit_box 8) ~k:0 Domain.zonotope
  in
  Util.check_true "pass past the deadline proves nothing" (m = neg_infinity)

let test_invalid_class_rejected () =
  let net = Nn.Init.xor () in
  Alcotest.check_raises "class out of range"
    (Invalid_argument "Analyzer: class index out of range") (fun () ->
      ignore (Absint.Analyzer.margin_lower net (unit_box 2) ~k:5 Domain.interval))

let test_region_dim_rejected () =
  let net = Nn.Init.xor () in
  Alcotest.check_raises "region mismatch"
    (Invalid_argument "Analyzer: region dimension differs from network input")
    (fun () ->
      ignore (Absint.Analyzer.margin_lower net (unit_box 3) ~k:1 Domain.interval))

(* ------------------------------------------------------------------ *)
(* Precision relationships *)

let test_zonotope_dominates_interval_on_affine_nets () =
  (* On affine-only networks zonotopes are exact, so they dominate
     intervals.  (With ReLU the DeepZ relaxation's lower bound λx can
     locally be weaker than the interval clamp at 0, so domination is
     NOT a theorem for deep nets — a fact this suite documents by only
     asserting the affine case.) *)
  Util.repeat ~seed:84 ~count:25 (fun rng _ ->
      let d = 2 + Rng.int rng 3 in
      let m = 2 + Rng.int rng 2 in
      let w1 = Mat.init d d (fun _ _ -> Rng.gaussian rng) in
      let w2 = Mat.init m d (fun _ _ -> Rng.gaussian rng) in
      let net =
        Nn.Network.create ~input_dim:d
          [ Nn.Layer.affine w1 (Vec.zeros d); Nn.Layer.affine w2 (Vec.zeros m) ]
      in
      let box = Util.small_box rng d in
      let k = Rng.int rng m in
      let mi = Absint.Analyzer.margin_lower net box ~k Domain.interval in
      let mz = Absint.Analyzer.margin_lower net box ~k Domain.zonotope in
      Util.check_true
        (Printf.sprintf "zonotope (%g) >= interval (%g)" mz mi)
        (mz >= mi -. 1e-7))

let test_smaller_region_higher_margin () =
  Util.repeat ~seed:85 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let sub =
        Box.of_center_radius (Box.center box) (0.1 *. Box.mean_width box)
      in
      let whole = Absint.Analyzer.margin_lower net box ~k Domain.zonotope in
      let inner = Absint.Analyzer.margin_lower net sub ~k Domain.zonotope in
      Util.check_true "smaller region, tighter margin" (inner >= whole -. 1e-7))

let test_conv_net_analysis_matches_dense_equivalent () =
  (* Lowering the conv layers by hand and analyzing the dense network
     must give identical interval bounds. *)
  let rng = Rng.create 86 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let weights = Array.init 9 (fun _ -> Rng.gaussian rng) in
  let conv =
    Nn.Conv.create ~input ~out_channels:1 ~kernel:3 ~stride:1 ~padding:1
      ~weights ~bias:[| 0.1 |]
  in
  let w, b = Nn.Conv.to_affine conv in
  let readout =
    Nn.Layer.affine
      (Mat.init 2 16 (fun _ _ -> Rng.gaussian rng))
      (Vec.zeros 2)
  in
  let conv_net =
    Nn.Network.create ~input_dim:16 [ Nn.Layer.Conv conv; Nn.Layer.Relu; readout ]
  in
  let dense_net =
    Nn.Network.create ~input_dim:16 [ Nn.Layer.affine w b; Nn.Layer.Relu; readout ]
  in
  let box = unit_box 16 in
  let bc = Absint.Analyzer.output_bounds conv_net box Domain.zonotope in
  let bd = Absint.Analyzer.output_bounds dense_net box Domain.zonotope in
  Array.iteri
    (fun i (lo, hi) ->
      let lo', hi' = bd.(i) in
      Util.check_close ~eps:1e-9 "conv lo = dense lo" lo' lo;
      Util.check_close ~eps:1e-9 "conv hi = dense hi" hi' hi)
    bc

let () =
  Alcotest.run "absint"
    [
      ( "paper-examples",
        [
          Util.case "example 2.2 margins" test_example_2_2_margins;
          Util.case "example 2.3 domain ladder" test_example_2_3_domain_ladder;
          Util.case "xor region needs refinement" test_xor_region_needs_refinement;
        ] );
      ( "verdicts",
        [
          Util.case "verified is sound" test_analyze_verified_is_sound;
          Util.case "output bounds contain samples" test_output_bounds_contain_samples;
          Util.case "margin is conservative" test_margin_lower_is_conservative;
          Util.case "stats recorded" test_stats_recorded;
          Util.case "budget aborts pass" test_budget_aborts_propagation;
          Util.case "invalid class rejected" test_invalid_class_rejected;
          Util.case "region dimension rejected" test_region_dim_rejected;
          Util.case "deadline aborts a single pass"
            test_deadline_aborts_single_pass;
        ] );
      ( "precision",
        [
          Util.case "zonotope >= interval on affine nets"
            test_zonotope_dominates_interval_on_affine_nets;
          Util.case "monotone in region size" test_smaller_region_higher_margin;
          Util.case "conv = lowered dense" test_conv_net_analysis_matches_dense_equivalent;
        ] );
    ]
