(* Differential tests: independent implementations of the same
   semantics must agree (docs/testing.md).

   Four cross-checks, each pairing two code paths that could drift
   apart silently:

   - interval vs zonotope on affine-only networks: with no ReLUs the
     zonotope transformer is exact, so the interval bounds of every
     output must enclose the zonotope bounds.  (On ReLU networks
     neither domain dominates per-coordinate: the DeepZ relaxation
     lets a crossing unit's concretization dip below zero where the
     interval clamps it, so the comparison is only a theorem on the
     affine fragment.);

   - every abstract domain vs concrete execution on ReLU networks: the
     abstract output bounds and the abstract robustness margin must
     enclose what the network actually computes on sampled points —
     the concrete evaluator is the differential oracle that catches an
     unsound transformer in any domain;

   - the bounded powerset functor at one disjunct vs the base domain:
     with no budget to case-split, Powerset.Over(D)(1) must degenerate
     to exactly D's transformers;

   - parallel vs sequential Verify.run: worker count may change which
     witness is found first, but never flip a verdict between Verified
     and Refuted. *)

open Linalg
open Domains

let margin_tol = 1e-9

(* ------------------------------------------------------------------ *)
(* Interval bounds enclose (exact) zonotope bounds on affine networks *)

let random_affine_net rng sizes =
  let rec layers = function
    | a :: (b :: _ as rest) ->
        let w = Mat.init b a (fun _ _ -> Rng.gaussian rng) in
        let bias = Vec.init b (fun _ -> Rng.gaussian rng) in
        Nn.Layer.affine w bias :: layers rest
    | _ -> []
  in
  Nn.Network.create ~input_dim:(List.hd sizes) (layers sizes)

let test_interval_encloses_zonotope_affine () =
  Util.repeat ~seed:31_337 ~count:40 (fun rng _i ->
      let inputs = 2 + Rng.int rng 3 in
      let net = random_affine_net rng [ inputs; 3 + Rng.int rng 4; 2; 3 ] in
      let box = Util.small_box rng inputs in
      let iv = Absint.Analyzer.output_bounds net box Domain.interval in
      let zn = Absint.Analyzer.output_bounds net box Domain.zonotope in
      Array.iteri
        (fun j (ilo, ihi) ->
          let zlo, zhi = zn.(j) in
          if ilo > zlo +. margin_tol || ihi < zhi -. margin_tol then
            Alcotest.failf
              "output %d: interval [%.17g, %.17g] does not enclose zonotope \
               [%.17g, %.17g]"
              j ilo ihi zlo zhi)
        iv;
      let k = Rng.int rng net.Nn.Network.output_dim in
      let im = Absint.Analyzer.margin_lower net box ~k Domain.interval in
      let zm = Absint.Analyzer.margin_lower net box ~k Domain.zonotope in
      if im > zm +. margin_tol then
        Alcotest.failf "interval margin %.17g beats zonotope margin %.17g" im zm)

(* ------------------------------------------------------------------ *)
(* Abstract bounds enclose concrete execution, in every domain *)

let oracle_domains =
  [ Domain.interval; Domain.zonotope; Domain.zonotope_join; Domain.symbolic;
    Domain.powerset Domain.Interval_base 2;
    Domain.powerset Domain.Zonotope_base 2 ]

let enclose_concrete rng net box ~k =
  let samples =
    List.init 50 (fun _ -> Nn.Network.eval net (Box.sample rng box))
  in
  List.iter
    (fun spec ->
      let bounds = Absint.Analyzer.output_bounds net box spec in
      let margin = Absint.Analyzer.margin_lower net box ~k spec in
      List.iter
        (fun y ->
          Array.iteri
            (fun j (lo, hi) ->
              if y.(j) < lo -. margin_tol || y.(j) > hi +. margin_tol then
                Alcotest.failf "%s: output %d = %.17g escapes [%.17g, %.17g]"
                  (Domain.to_string spec) j y.(j) lo hi)
            bounds;
          let concrete =
            let worst = ref infinity in
            Array.iteri
              (fun j s -> if j <> k then worst := min !worst (y.(k) -. s))
              y;
            !worst
          in
          if margin > concrete +. margin_tol then
            Alcotest.failf "%s: margin bound %.17g beats concrete %.17g"
              (Domain.to_string spec) margin concrete)
        samples)
    oracle_domains

let test_domains_enclose_concrete () =
  Util.repeat ~seed:31_341 ~count:20 (fun rng _i ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      enclose_concrete rng net box ~k);
  (* A LeNet with average pooling, so every domain also runs the
     analyzer's conv and avgpool lowering.  The box is small so the
     bounds are tight enough to catch a wrong lowering. *)
  Util.repeat ~seed:31_342 ~count:3 (fun rng _i ->
      let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
      let net = Nn.Init.lenet_like ~pooling:`Avg rng ~input ~classes:3 in
      let center = Vec.init 16 (fun _ -> Rng.float rng 1.0) in
      enclose_concrete rng net (Box.of_center_radius center 0.01)
        ~k:(Rng.int rng 3))

(* ------------------------------------------------------------------ *)
(* Powerset at one disjunct degenerates to the base domain.

   Domain.get special-cases disjuncts = 1 to the base module, so going
   through specs would compare the base domain with itself.  Apply the
   functor directly instead and push both abstractions through
   Analyzer.propagate with first-class modules. *)

module One = struct
  let max = 1
end

module P_interval = Powerset.Over (Interval) (One)
module P_zonotope = Powerset.Over (Zonotope) (One)

let margin_of (type a) (module D : Domain_sig.S with type t = a) (out : a) ~k =
  let dim = D.dim out in
  let worst = ref infinity in
  for j = 0 to dim - 1 do
    if j <> k then begin
      let coeffs = Vec.init dim (fun i -> if i = k then 1.0 else 0.0) in
      coeffs.(j) <- -1.0;
      worst := min !worst (D.linear_lower out ~coeffs)
    end
  done;
  !worst

let check_powerset_one (type a b)
    (module Base : Domain_sig.S with type t = a)
    (module Pow : Domain_sig.S with type t = b) rng =
  let net = Util.small_net rng in
  let box = Util.small_box rng net.Nn.Network.input_dim in
  let k = Rng.int rng net.Nn.Network.output_dim in
  let base_out = Absint.Analyzer.propagate (module Base) net (Base.of_box box) in
  let pow_out = Absint.Analyzer.propagate (module Pow) net (Pow.of_box box) in
  Alcotest.(check int)
    "a single disjunct" 1
    (Pow.disjuncts pow_out);
  for j = 0 to Base.dim base_out - 1 do
    let blo, bhi = Base.bounds base_out j in
    let plo, phi = Pow.bounds pow_out j in
    Util.check_close ~eps:margin_tol "lower bounds agree" blo plo;
    Util.check_close ~eps:margin_tol "upper bounds agree" bhi phi
  done;
  let bm = margin_of (module Base) base_out ~k in
  let pm = margin_of (module Pow) pow_out ~k in
  Util.check_close ~eps:margin_tol "margins agree" bm pm;
  Util.check_true "verdicts agree" (bm > 0.0 = (pm > 0.0))

let test_powerset_one_interval () =
  Util.repeat ~seed:31_338 ~count:30 (fun rng _i ->
      check_powerset_one (module Interval) (module P_interval) rng)

let test_powerset_one_zonotope () =
  Util.repeat ~seed:31_339 ~count:30 (fun rng _i ->
      check_powerset_one (module Zonotope) (module P_zonotope) rng)

(* ------------------------------------------------------------------ *)
(* Parallel vs sequential verification *)

let test_parallel_matches_sequential () =
  Util.repeat ~seed:31_340 ~count:15 (fun rng i ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let prop = Common.Property.create ~region:box ~target:k () in
      let run workers =
        (Charon.Verify.run
           ~budget:(Common.Budget.of_steps 20_000)
           ~workers ~rng:(Rng.create i) ~policy:Charon.Policy.default net prop)
          .Charon.Verify.outcome
      in
      let seq = run 1 in
      let par = run 4 in
      Util.check_true
        (Printf.sprintf "verdicts agree (%s vs %s)" (Common.Outcome.label seq)
           (Common.Outcome.label par))
        (Common.Outcome.agrees seq par);
      (* Whatever witness the parallel run picks must still satisfy the
         delta-completeness contract. *)
      match par with
      | Common.Outcome.Refuted x ->
          Util.check_true "parallel witness in region" (Box.contains box x);
          Util.check_true "parallel witness is a delta-cex"
            (Optim.Objective.is_delta_counterexample
               (Optim.Objective.create net ~k)
               ~delta:1e-4 x)
      | _ -> ())

let () =
  Alcotest.run "differential"
    [
      ( "domains",
        [
          Util.case "interval encloses zonotope (affine nets)"
            test_interval_encloses_zonotope_affine;
          Util.case "all domains enclose concrete runs"
            test_domains_enclose_concrete;
          Util.case "powerset(1) over intervals = intervals"
            test_powerset_one_interval;
          Util.case "powerset(1) over zonotopes = zonotopes"
            test_powerset_one_zonotope;
        ] );
      ( "verify",
        [
          Util.case "parallel verdicts match sequential"
            test_parallel_matches_sequential;
        ] );
    ]
