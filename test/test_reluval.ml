open Linalg
open Domains

let unit_box dim = Box.create ~lo:(Vec.zeros dim) ~hi:(Vec.create dim 1.0)

(* [Init.dense] zeroes every bias; trained nets do not. *)
let with_random_biases rng net =
  Nn.Network.map_affine net Fun.id (fun b ->
      Vec.init (Vec.dim b) (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))

(* ------------------------------------------------------------------ *)
(* ReluVal's symbolic-interval pass, through the margin bounds its
   region test uses. *)

(* [Reluval.margin_bounds] must enclose [y_target - y_j] at sampled
   points of the region, for every [j <> target]. *)
let check_margins_enclose rng net box ~target =
  for j = 0 to net.Nn.Network.output_dim - 1 do
    if j <> target then begin
      let lo, hi = Reluval.margin_bounds net box ~target ~j in
      Util.check_true (Printf.sprintf "lo %g <= hi %g" lo hi) (lo <= hi);
      for _ = 1 to 40 do
        let y = Nn.Network.eval net (Box.sample rng box) in
        let diff = y.(target) -. y.(j) in
        Util.check_true
          (Printf.sprintf "y%d - y%d = %g within [%g, %g]" target j diff lo hi)
          (diff >= lo -. 1e-6 && diff <= hi +. 1e-6)
      done
    end
  done

let test_symbolic_soundness_random_nets () =
  (* Every target on dense nets, with and without biases. *)
  Util.repeat ~seed:121 ~count:30 (fun rng _ ->
      let net = Util.small_net rng in
      List.iter
        (fun net ->
          let box = Util.small_box rng net.Nn.Network.input_dim in
          for target = 0 to net.Nn.Network.output_dim - 1 do
            check_margins_enclose rng net box ~target
          done)
        [ net; with_random_biases rng net ])

let test_symbolic_margin_sound () =
  (* Conv and average pooling, lowered by [Nn.Layer.lower], with biased
     dense layers behind them. *)
  Util.repeat ~seed:122 ~count:5 (fun rng _ ->
      let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
      let net =
        with_random_biases rng
          (Nn.Init.lenet_like ~pooling:`Avg rng ~input ~classes:3)
      in
      let center = Vec.init 16 (fun _ -> Rng.float rng 1.0) in
      check_margins_enclose rng net
        (Box.of_center_radius center 0.05)
        ~target:(Rng.int rng 3))

let test_symbolic_tighter_than_interval () =
  (* The symbolic forms are exact on ReLU-free layers, so ReluVal's
     margin bounds are at least as tight as subtracting interval output
     bounds. *)
  Util.repeat ~seed:123 (fun rng _ ->
      let d = 3 in
      let w1 = Mat.init d d (fun _ _ -> Rng.gaussian rng) in
      let w2 = Mat.init 2 d (fun _ _ -> Rng.gaussian rng) in
      let net =
        Nn.Network.create ~input_dim:d
          [
            Nn.Layer.affine w1 (Vec.init d (fun _ -> Rng.gaussian rng));
            Nn.Layer.affine w2 (Vec.init 2 (fun _ -> Rng.gaussian rng));
          ]
      in
      let box = Util.small_box rng d in
      let bi = Absint.Analyzer.output_bounds net box Domain.interval in
      let lo0, hi0 = bi.(0) and lo1, hi1 = bi.(1) in
      let slo, shi = Reluval.margin_bounds net box ~target:0 ~j:1 in
      Util.check_true "symbolic at least as tight"
        (slo >= lo0 -. hi1 -. 1e-8 && shi <= hi0 -. lo1 +. 1e-8))

let test_symbolic_rejects_maxpool () =
  let rng = Rng.create 124 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let unsupported = Failure "Reluval: max pooling is not supported" in
  Alcotest.check_raises "margin bounds" unsupported (fun () ->
      ignore (Reluval.margin_bounds net (unit_box 16) ~target:0 ~j:1));
  Alcotest.check_raises "gradient interval" unsupported (fun () ->
      ignore (Reluval.gradient_interval net (unit_box 16) ~target:0))

(* ------------------------------------------------------------------ *)
(* The ReluVal solver *)

let test_reluval_verifies_xor () =
  let net = Nn.Init.xor () in
  let prop =
    Common.Property.create
      ~region:(Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |])
      ~target:1 ()
  in
  let report = Reluval.run net prop in
  Util.check_true "verified" (report.Reluval.outcome = Common.Outcome.Verified);
  Util.check_true "used refinement" (report.Reluval.regions_analyzed >= 1)

let test_reluval_sound_on_random_nets () =
  Util.repeat ~seed:125 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let prop = Common.Property.create ~region:box ~target:k () in
      let report =
        Reluval.run ~budget:(Common.Budget.of_steps 500) net prop
      in
      match report.Reluval.outcome with
      | Common.Outcome.Verified ->
          Util.check_true "no sampled violation"
            (Common.Property.check_samples rng net prop ~n:200 = None)
      | Common.Outcome.Refuted x ->
          Util.check_true "witness in region" (Box.contains box x);
          Util.check_true "witness violates"
            (not (Common.Property.holds_at net prop x))
      | Common.Outcome.Timeout | Common.Outcome.Unknown -> ())

let test_reluval_respects_budget () =
  let rng = Rng.create 126 in
  (* A hard false-ish property: a wide region on a random net. *)
  let net = Util.random_dense rng [ 6; 20; 20; 3 ] in
  let prop = Common.Property.create ~region:(unit_box 6) ~target:0 () in
  let budget = Common.Budget.of_steps 10 in
  let report = Reluval.run ~budget net prop in
  match report.Reluval.outcome with
  | Common.Outcome.Timeout ->
      Util.check_true "stopped promptly" (report.Reluval.regions_analyzed <= 11)
  | Common.Outcome.Verified | Common.Outcome.Refuted _ -> ()
  | Common.Outcome.Unknown -> Alcotest.fail "unexpected unknown"

let test_gradient_interval_bounds_point_gradients () =
  (* The interval gradient magnitude must dominate the concrete gradient
     magnitude at every point of the region, with and without biases. *)
  let dominates rng net =
    let box = Util.small_box rng net.Nn.Network.input_dim in
    let target = Rng.int rng net.Nn.Network.output_dim in
    let bound = Reluval.gradient_interval net box ~target in
    for _ = 1 to 20 do
      let x = Box.sample rng box in
      let g = Nn.Grad.grad_output net ~x ~k:target in
      Array.iteri
        (fun i gi ->
          Util.check_true
            (Printf.sprintf "grad bound %g >= |%g|" bound.(i) gi)
            (bound.(i) >= abs_float gi -. 1e-7))
        g
    done
  in
  Util.repeat ~seed:128 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      dominates rng net;
      dominates rng (with_random_biases rng net))

let test_point_gradient_smear_agrees_on_verdicts () =
  (* The smear heuristic changes split order, never verdicts. *)
  let config =
    { Reluval.default_config with Reluval.smear = Reluval.Point_gradient }
  in
  Util.repeat ~seed:129 ~count:10 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let prop = Common.Property.create ~region:box ~target:k () in
      let budget () = Common.Budget.of_steps 2_000 in
      let a = (Reluval.run ~budget:(budget ()) net prop).Reluval.outcome in
      let b =
        (Reluval.run ~config ~budget:(budget ()) net prop).Reluval.outcome
      in
      Util.check_true "agree" (Common.Outcome.agrees a b))

let test_reluval_unknown_on_maxpool () =
  let rng = Rng.create 127 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let prop = Common.Property.create ~region:(unit_box 16) ~target:0 () in
  let report = Reluval.run net prop in
  Util.check_true "unknown" (report.Reluval.outcome = Common.Outcome.Unknown)

(* ------------------------------------------------------------------ *)
(* Pinned ReluVal runs.

   Each row is one budgeted run under one smear mode: its outcome,
   region count, peak depth and the digest of the witness bits.  The
   problems are the 20 random ones test_charon's verify-golden draws,
   plus a LeNet with average pooling, so the rows pin the symbolic
   transformers, the conv and avgpool lowering, the margin test and
   both split heuristics at once.  Every net here has zero biases.
   Seeds are fixed, not CHARON_TEST_SEED-overridable. *)

let golden_problems () =
  let rng = Rng.create 2019 in
  let random = List.init 20 (fun _ -> Util.boundary_problem (Rng.split rng)) in
  let rng = Rng.create 2020 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let lenet = Nn.Init.lenet_like ~pooling:`Avg rng ~input ~classes:3 in
  let center = Vec.init 16 (fun _ -> Rng.float rng 1.0) in
  let region = Box.of_center_radius center 0.03 in
  let lenet_problem target =
    (lenet, Common.Property.create ~region ~target ())
  in
  (* The LeNet's own class at the centre needs splitting to verify;
     class 0 is refuted, which pins a witness. *)
  random @ [ lenet_problem (Nn.Network.classify lenet center); lenet_problem 0 ]

let golden_row ~tag ~smear net prop =
  let config = { Reluval.default_config with Reluval.smear } in
  let r =
    Reluval.run ~config ~budget:(Common.Budget.of_steps 300) net prop
  in
  let witness =
    match r.Reluval.outcome with
    | Common.Outcome.Refuted x ->
        Digest.to_hex
          (Digest.string
             (String.concat ","
                (Array.to_list
                   (Array.map
                      (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
                      x))))
    | Common.Outcome.Verified | Common.Outcome.Timeout
    | Common.Outcome.Unknown ->
        "-"
  in
  Printf.sprintf "%s %s regions=%d depth=%d %s" tag
    (Common.Outcome.label r.Reluval.outcome)
    r.Reluval.regions_analyzed r.Reluval.max_depth witness

let golden_rows () =
  List.concat
    (List.mapi
       (fun i (net, prop) ->
         [
           golden_row ~tag:(Printf.sprintf "interval/%d" i)
             ~smear:Reluval.Gradient_interval net prop;
           golden_row ~tag:(Printf.sprintf "point/%d" i)
             ~smear:Reluval.Point_gradient net prop;
         ])
       (golden_problems ()))

let golden_expected =
  [
    "interval/0 verified regions=167 depth=20 -";
    "point/0 timeout regions=300 depth=21 -";
    "interval/1 verified regions=21 depth=8 -";
    "point/1 verified regions=29 depth=8 -";
    "interval/2 verified regions=1 depth=0 -";
    "point/2 verified regions=1 depth=0 -";
    "interval/3 timeout regions=300 depth=221 -";
    "point/3 timeout regions=300 depth=222 -";
    "interval/4 verified regions=21 depth=6 -";
    "point/4 verified regions=23 depth=6 -";
    "interval/5 timeout regions=300 depth=182 -";
    "point/5 timeout regions=300 depth=181 -";
    "interval/6 timeout regions=300 depth=86 -";
    "point/6 timeout regions=300 depth=25 -";
    "interval/7 timeout regions=300 depth=103 -";
    "point/7 timeout regions=300 depth=109 -";
    "interval/8 verified regions=7 depth=3 -";
    "point/8 verified regions=9 depth=4 -";
    "interval/9 verified regions=1 depth=0 -";
    "point/9 verified regions=1 depth=0 -";
    "interval/10 verified regions=7 depth=3 -";
    "point/10 verified regions=5 depth=2 -";
    "interval/11 verified regions=1 depth=0 -";
    "point/11 verified regions=1 depth=0 -";
    "interval/12 verified regions=61 depth=13 -";
    "point/12 verified regions=51 depth=13 -";
    "interval/13 falsified regions=1 depth=0 1ccfef3e0668500dbfcf1cbda692504a";
    "point/13 falsified regions=1 depth=0 1ccfef3e0668500dbfcf1cbda692504a";
    "interval/14 timeout regions=300 depth=51 -";
    "point/14 timeout regions=300 depth=46 -";
    "interval/15 verified regions=35 depth=7 -";
    "point/15 verified regions=41 depth=8 -";
    "interval/16 verified regions=1 depth=0 -";
    "point/16 verified regions=1 depth=0 -";
    "interval/17 verified regions=3 depth=1 -";
    "point/17 verified regions=5 depth=2 -";
    "interval/18 verified regions=1 depth=0 -";
    "point/18 verified regions=1 depth=0 -";
    "interval/19 timeout regions=300 depth=273 -";
    "point/19 timeout regions=300 depth=273 -";
    "interval/20 verified regions=117 depth=7 -";
    "point/20 verified regions=149 depth=8 -";
    "interval/21 falsified regions=4 depth=3 a7d293f787ea487d8c8f699caf3f829c";
    "point/21 falsified regions=3 depth=2 7dc465412f9dc351d63feafce15ddd1b";
  ]

let test_reluval_golden () =
  Alcotest.(check (list string)) "fixed-budget runs" golden_expected
    (golden_rows ())

let () =
  Alcotest.run "reluval"
    [
      ( "symbolic-interval",
        [
          Util.case "sound on random nets" test_symbolic_soundness_random_nets;
          Util.case "margin bounds sound" test_symbolic_margin_sound;
          Util.case "tighter than intervals (linear)" test_symbolic_tighter_than_interval;
          Util.case "rejects maxpool" test_symbolic_rejects_maxpool;
        ] );
      ( "solver",
        [
          Util.case "verifies xor" test_reluval_verifies_xor;
          Util.case "sound on random nets" test_reluval_sound_on_random_nets;
          Util.case "respects budget" test_reluval_respects_budget;
          Util.case "gradient interval dominates" test_gradient_interval_bounds_point_gradients;
          Util.case "smear variants agree" test_point_gradient_smear_agrees_on_verdicts;
          Util.case "unknown on maxpool" test_reluval_unknown_on_maxpool;
        ] );
      ( "reluval-golden",
        [ Util.case "fixed-budget runs" test_reluval_golden ] );
    ]
