open Linalg
open Domains

let unit_box dim = Box.create ~lo:(Vec.zeros dim) ~hi:(Vec.create dim 1.0)

(* ------------------------------------------------------------------ *)
(* Encoding *)

let test_encoding_shape () =
  let net = Nn.Init.xor () in
  let enc = Reluplex.Encoding.build net (unit_box 2) in
  (* inputs (2) + z (2) + a (2) + outputs (2). *)
  Alcotest.(check int) "variable count" 8 enc.Reluplex.Encoding.nvars;
  Alcotest.(check int) "relu units" 2 (Array.length enc.Reluplex.Encoding.relus);
  Alcotest.(check int) "inputs" 2 (Array.length enc.Reluplex.Encoding.input_vars);
  Alcotest.(check int) "outputs" 2 (Array.length enc.Reluplex.Encoding.output_vars);
  (* equalities: 2 per affine layer. *)
  Alcotest.(check int) "equalities" 4 (Array.length enc.Reluplex.Encoding.equalities)

let test_encoding_bounds_contain_traces () =
  (* Every variable's interval bound must contain the concrete value
     that variable takes on any execution from the region. *)
  Util.repeat ~seed:130 ~count:15 (fun rng _ ->
      let net = Util.random_dense rng [ 3; 5; 5; 2 ] in
      let box = Util.small_box rng 3 in
      let enc = Reluplex.Encoding.build net box in
      for _ = 1 to 20 do
        let x = Box.sample rng box in
        let trace = Nn.Network.forward_trace net x in
        (* Reconstruct the full variable assignment from the trace:
           input, then per layer alternately pre- and post-activation. *)
        let values = Array.concat (Array.to_list trace |> List.tl |> List.cons x) in
        Array.iteri
          (fun v (lo, hi) ->
            if v < Array.length values then
              Util.check_true
                (Printf.sprintf "var %d: %g in [%g, %g]" v values.(v) lo hi)
                (values.(v) >= lo -. 1e-6 && values.(v) <= hi +. 1e-6))
          enc.Reluplex.Encoding.var_bounds
      done)

let test_encoding_rejects_maxpool () =
  let rng = Rng.create 131 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  Alcotest.check_raises "unsupported"
    (Reluplex.Encoding.Unsupported
       "max pooling is not supported by the LP encoding") (fun () ->
      ignore (Reluplex.Encoding.build net (unit_box 16)))

let test_encoding_stable_units () =
  (* A tiny region leaves most units stable. *)
  let rng = Rng.create 132 in
  let net = Util.random_dense rng [ 3; 8; 2 ] in
  let tiny = Box.of_center_radius [| 0.5; 0.5; 0.5 |] 1e-6 in
  let enc = Reluplex.Encoding.build net tiny in
  Util.check_true "most units stable"
    (Reluplex.Encoding.stable_units enc >= 6)

(* ------------------------------------------------------------------ *)
(* The complete checker *)

let test_reluplex_verifies_xor () =
  let net = Nn.Init.xor () in
  let prop =
    Common.Property.create
      ~region:(Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |])
      ~target:1 ()
  in
  let report = Reluplex.run net prop in
  Util.check_true "verified" (report.Reluplex.outcome = Common.Outcome.Verified)

let test_reluplex_refutes_xor_negation () =
  let net = Nn.Init.xor () in
  let prop =
    Common.Property.create
      ~region:(Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |])
      ~target:0 ()
  in
  match (Reluplex.run net prop).Reluplex.outcome with
  | Common.Outcome.Refuted x ->
      Util.check_true "in region" (Box.contains prop.Common.Property.region x);
      Util.check_true "is a delta-cex"
        (Optim.Objective.is_delta_counterexample
           (Optim.Objective.create net ~k:0)
           ~delta:1e-4 x)
  | _ -> Alcotest.fail "expected refutation"

let test_reluplex_example_2_2 () =
  let net = Nn.Init.example_2_2 () in
  let robust =
    Common.Property.create
      ~region:(Box.create ~lo:[| -1.0 |] ~hi:[| 1.0 |])
      ~target:1 ()
  in
  Util.check_true "verifies [-1,1]"
    ((Reluplex.run net robust).Reluplex.outcome = Common.Outcome.Verified);
  let fragile =
    Common.Property.create
      ~region:(Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |])
      ~target:1 ()
  in
  match (Reluplex.run net fragile).Reluplex.outcome with
  | Common.Outcome.Refuted x -> Util.check_true "x > 5/3 region" (x.(0) > 1.0)
  | _ -> Alcotest.fail "expected refutation"

let test_reluplex_agrees_with_sampling () =
  Util.repeat ~seed:133 ~count:10 (fun rng _ ->
      let net = Util.random_dense rng [ 2; 4; 2 ] in
      let box = Util.small_box rng 2 in
      let k = Rng.int rng 2 in
      let prop = Common.Property.create ~region:box ~target:k () in
      let report = Reluplex.run ~budget:(Common.Budget.of_seconds 10.0) net prop in
      match report.Reluplex.outcome with
      | Common.Outcome.Verified ->
          Util.check_true "no sampled violation"
            (Common.Property.check_samples rng net prop ~n:500 = None)
      | Common.Outcome.Refuted x ->
          Util.check_true "witness in region" (Box.contains box x);
          Util.check_true "witness is delta-cex"
            (Optim.Objective.is_delta_counterexample
               (Optim.Objective.create net ~k)
               ~delta:1e-4 x)
      | Common.Outcome.Timeout -> ()
      | Common.Outcome.Unknown -> Alcotest.fail "dense nets are supported")

let test_reluplex_completeness_vs_charon () =
  (* On small nets with ample budget, Reluplex and Charon must agree. *)
  Util.repeat ~seed:134 ~count:8 (fun rng _ ->
      let net = Util.random_dense rng [ 2; 5; 2 ] in
      let box = Box.of_center_radius (Box.sample rng (unit_box 2)) 0.2 in
      let k = Rng.int rng 2 in
      let prop = Common.Property.create ~region:box ~target:k () in
      let rp = (Reluplex.run ~budget:(Common.Budget.of_seconds 10.0) net prop).Reluplex.outcome in
      let ch =
        (Charon.Verify.run
           ~budget:(Common.Budget.of_seconds 10.0)
           ~rng ~policy:Charon.Policy.default net prop)
          .Charon.Verify.outcome
      in
      Util.check_true
        (Printf.sprintf "verdicts agree (%s vs %s)" (Common.Outcome.label rp)
           (Common.Outcome.label ch))
        (Common.Outcome.agrees rp ch))

let test_reluplex_unknown_on_maxpool () =
  let rng = Rng.create 135 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let prop = Common.Property.create ~region:(unit_box 16) ~target:0 () in
  Util.check_true "unknown"
    ((Reluplex.run net prop).Reluplex.outcome = Common.Outcome.Unknown)

let test_reluplex_respects_budget () =
  let rng = Rng.create 136 in
  let net = Util.random_dense rng [ 6; 24; 24; 3 ] in
  let prop = Common.Property.create ~region:(unit_box 6) ~target:0 () in
  let budget = Common.Budget.of_steps 3 in
  let report = Reluplex.run ~budget net prop in
  match report.Reluplex.outcome with
  | Common.Outcome.Timeout -> Util.check_true "few lp calls" (report.Reluplex.lp_calls <= 4)
  | Common.Outcome.Verified | Common.Outcome.Refuted _ -> ()
  | Common.Outcome.Unknown -> Alcotest.fail "unexpected unknown"

let test_reluplex_counters () =
  (* [stable_units] is the encoding's count of units fixed by interval
     bounds; each class opens with one LP and every case split opens at
     least one more; a region with no unstable unit needs no split. *)
  let check rng net box =
    let prop =
      Common.Property.create ~region:box
        ~target:(Rng.int rng net.Nn.Network.output_dim) ()
    in
    let r = Reluplex.run net prop in
    let enc = Reluplex.Encoding.build net box in
    Alcotest.(check int) "stable units"
      (Reluplex.Encoding.stable_units enc)
      r.Reluplex.stable_units;
    Util.check_true "an LP per split" (r.Reluplex.lp_calls > r.Reluplex.branches);
    if r.Reluplex.stable_units = Array.length enc.Reluplex.Encoding.relus then
      Alcotest.(check int) "no split when every unit is stable" 0
        r.Reluplex.branches
  in
  Util.repeat ~seed:137 ~count:10 (fun rng _ ->
      let net = Util.random_dense rng [ 3; 6; 2 ] in
      check rng net (Util.small_box rng 3);
      check rng net (Box.of_center_radius (Box.sample rng (unit_box 3)) 1e-6))

let () =
  Alcotest.run "reluplex"
    [
      ( "encoding",
        [
          Util.case "variable layout" test_encoding_shape;
          Util.case "bounds contain traces" test_encoding_bounds_contain_traces;
          Util.case "rejects maxpool" test_encoding_rejects_maxpool;
          Util.case "stable unit counting" test_encoding_stable_units;
        ] );
      ( "checker",
        [
          Util.case "verifies xor" test_reluplex_verifies_xor;
          Util.case "refutes xor negation" test_reluplex_refutes_xor_negation;
          Util.case "example 2.2 both ways" test_reluplex_example_2_2;
          Util.case "agrees with sampling" test_reluplex_agrees_with_sampling;
          Util.case "agrees with charon" test_reluplex_completeness_vs_charon;
          Util.case "unknown on maxpool" test_reluplex_unknown_on_maxpool;
          Util.case "counters" test_reluplex_counters;
          Util.case "respects budget" test_reluplex_respects_budget;
        ] );
    ]
