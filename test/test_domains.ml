open Linalg
open Domains

(* ------------------------------------------------------------------ *)
(* Box *)

let unit_box dim =
  Box.create ~lo:(Vec.zeros dim) ~hi:(Vec.create dim 1.0)

let test_box_basics () =
  let b = Box.create ~lo:[| 0.0; -1.0 |] ~hi:[| 2.0; 1.0 |] in
  Util.check_vec "center" [| 1.0; 0.0 |] (Box.center b);
  Util.check_vec "widths" [| 2.0; 2.0 |] (Box.widths b);
  Util.check_close "diameter" (sqrt 8.0) (Box.diameter b);
  Alcotest.(check int) "longest" 0 (Box.longest_dim b);
  Util.check_true "contains center" (Box.contains b (Box.center b));
  Util.check_true "excludes outside" (not (Box.contains b [| 3.0; 0.0 |]))

let test_box_rejects_inverted () =
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Box.create: lo.(0) = 1 > hi.(0) = 0") (fun () ->
      ignore (Box.create ~lo:[| 1.0 |] ~hi:[| 0.0 |]))

let test_box_rejects_non_finite () =
  Alcotest.check_raises "nan bound"
    (Invalid_argument "Box.create: non-finite bound at 0") (fun () ->
      ignore (Box.create ~lo:[| Float.nan |] ~hi:[| 1.0 |]));
  Alcotest.check_raises "infinite bound"
    (Invalid_argument "Box.create: non-finite bound at 1") (fun () ->
      ignore (Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; Float.infinity |]))

let test_box_split_covers () =
  Util.repeat ~seed:50 (fun rng _ ->
      let b = Util.small_box rng 3 in
      let d = Rng.int rng 3 in
      let at = Rng.uniform rng ~lo:b.Box.lo.(d) ~hi:b.Box.hi.(d) in
      let l, r = Box.split b ~dim:d ~at in
      for _ = 1 to 50 do
        let x = Box.sample rng b in
        Util.check_true "covered" (Box.contains l x || Box.contains r x)
      done)

let test_box_split_shrinks_diameter () =
  (* Assumption 1 of the paper: both halves strictly smaller, even when
     the requested cut sits on a face. *)
  Util.repeat ~seed:51 (fun rng _ ->
      let b = Util.small_box rng 2 in
      let d = Rng.int rng 2 in
      let at = b.Box.lo.(d) (* degenerate request *) in
      let l, r = Box.split b ~dim:d ~at in
      Util.check_true "left shrinks" (Box.diameter l < Box.diameter b);
      Util.check_true "right shrinks" (Box.diameter r < Box.diameter b))

let test_box_clamp_projects () =
  let b = unit_box 2 in
  Util.check_vec "clamped" [| 0.0; 1.0 |] (Box.clamp b [| -5.0; 7.0 |]);
  Util.check_vec "interior unchanged" [| 0.5; 0.5 |] (Box.clamp b [| 0.5; 0.5 |])

let test_box_sample_inside () =
  Util.repeat ~seed:52 (fun rng _ ->
      let b = Util.small_box rng 4 in
      Util.check_true "sample inside" (Box.contains b (Box.sample rng b)))

let test_box_hull () =
  let a = Box.create ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let b = Box.create ~lo:[| 2.0 |] ~hi:[| 3.0 |] in
  let h = Box.hull a b in
  Util.check_vec "hull lo" [| 0.0 |] h.Box.lo;
  Util.check_vec "hull hi" [| 3.0 |] h.Box.hi

let test_box_corner () =
  let b = Box.create ~lo:[| 0.0; 10.0 |] ~hi:[| 1.0; 20.0 |] in
  Util.check_vec "corner 0" [| 0.0; 10.0 |] (Box.corner b 0);
  Util.check_vec "corner 3" [| 1.0; 20.0 |] (Box.corner b 3)

let test_box_equal_is_bitwise () =
  (* Regression: [equal] used polymorphic [=] on the bound arrays,
     which conflates 0.0 with -0.0 — a real difference to the proof
     cache, whose keys are the IEEE bits of the bounds.  Per-element
     [Float.equal] keeps [equal] aligned with the key scheme. *)
  let plain = Box.create ~lo:[| 0.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  let signed = Box.create ~lo:[| -0.0; -1.0 |] ~hi:[| 1.0; 1.0 |] in
  Util.check_true "equal to itself" (Box.equal plain plain);
  Util.check_true "equal to a bitwise copy"
    (Box.equal plain (Box.create ~lo:[| 0.0; -1.0 |] ~hi:[| 1.0; 1.0 |]));
  Util.check_true "-0.0 bound differs" (not (Box.equal plain signed));
  Util.check_true "dimension mismatch differs"
    (not (Box.equal plain (Box.create ~lo:[| 0.0 |] ~hi:[| 1.0 |])))

(* ------------------------------------------------------------------ *)
(* Generic soundness of a domain on random networks: for any point in
   the input box, the network output must lie inside the abstract
   output's component bounds, and every linear functional must respect
   linear_lower. *)

let soundness_check (type a) (module D : Domain_sig.S with type t = a) ~seed
    ~count () =
  Util.repeat ~seed ~count (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let out = Absint.Analyzer.propagate (module D) net (D.of_box box) in
      let m = net.Nn.Network.output_dim in
      let coeffs = Vec.init m (fun _ -> Rng.gaussian rng) in
      let lin_lo = D.linear_lower out ~coeffs in
      for _ = 1 to 30 do
        let x = Box.sample rng box in
        let y = Nn.Network.eval net x in
        for i = 0 to m - 1 do
          let lo, hi = D.bounds out i in
          Util.check_true
            (Printf.sprintf "output %d within [%g, %g] (got %g)" i lo hi y.(i))
            (y.(i) >= lo -. 1e-7 && y.(i) <= hi +. 1e-7)
        done;
        Util.check_true "linear_lower sound" (Vec.dot coeffs y >= lin_lo -. 1e-7)
      done)

let test_interval_soundness () =
  soundness_check (module Interval) ~seed:60 ~count:25 ()

let test_zonotope_soundness () =
  soundness_check (module Zonotope) ~seed:61 ~count:25 ()

let test_zonotope_join_soundness () =
  soundness_check (module Zonotope_join) ~seed:62 ~count:25 ()

let test_powerset_soundness () =
  let module P2 =
    Powerset.Over
      (Zonotope)
      (struct
        let max = 2
      end)
  in
  let module P4 =
    Powerset.Over
      (Interval)
      (struct
        let max = 4
      end)
  in
  soundness_check (module P2) ~seed:63 ~count:15 ();
  soundness_check (module P4) ~seed:64 ~count:15 ()

(* Soundness with max-pooling in the network. *)
let soundness_maxpool (type a) (module D : Domain_sig.S with type t = a) ~seed
    () =
  Util.repeat ~seed ~count:10 (fun rng _ ->
      let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
      let net = Nn.Init.lenet_like rng ~input ~classes:3 in
      let center = Vec.init 16 (fun _ -> Rng.float rng 1.0) in
      let box = Box.of_center_radius center 0.05 in
      let out = Absint.Analyzer.propagate (module D) net (D.of_box box) in
      for _ = 1 to 20 do
        let x = Box.sample rng box in
        let y = Nn.Network.eval net x in
        for i = 0 to 2 do
          let lo, hi = D.bounds out i in
          Util.check_true "maxpool sound" (y.(i) >= lo -. 1e-7 && y.(i) <= hi +. 1e-7)
        done
      done)

let test_interval_maxpool_soundness () =
  soundness_maxpool (module Interval) ~seed:65 ()

let test_zonotope_maxpool_soundness () =
  soundness_maxpool (module Zonotope) ~seed:66 ()

(* ------------------------------------------------------------------ *)
(* Interval specifics *)

let test_interval_affine_exact_on_point () =
  let m = Mat.of_rows [| [| 1.0; -2.0 |]; [| 0.5; 0.5 |] |] in
  let b = [| 1.0; 0.0 |] in
  let x = [| 3.0; 4.0 |] in
  let itv = Interval.of_box (Box.of_point x) in
  let out = Interval.affine m b itv in
  let expected = Vec.add (Mat.matvec m x) b in
  for i = 0 to 1 do
    let lo, hi = Interval.bounds out i in
    Util.check_close "point lo" expected.(i) lo;
    Util.check_close "point hi" expected.(i) hi
  done

let test_interval_relu_exact () =
  let itv = Interval.of_bounds ~lo:[| -2.0; 1.0; -3.0 |] ~hi:[| -1.0; 2.0; 4.0 |] in
  let out = Interval.relu itv in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "negative" (0.0, 0.0)
    (Interval.bounds out 0);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "positive" (1.0, 2.0)
    (Interval.bounds out 1);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "crossing" (0.0, 4.0)
    (Interval.bounds out 2)

let test_interval_meets () =
  let itv = Interval.of_bounds ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  (match Interval.meet_ge0 itv 0 with
  | Some m ->
      Alcotest.(check (pair (float 0.0) (float 0.0))) "ge0" (0.0, 2.0)
        (Interval.bounds m 0)
  | None -> Alcotest.fail "expected non-empty meet");
  (match Interval.meet_le0 itv 0 with
  | Some m ->
      Alcotest.(check (pair (float 0.0) (float 0.0))) "le0" (-1.0, 0.0)
        (Interval.bounds m 0)
  | None -> Alcotest.fail "expected non-empty meet");
  let pos = Interval.of_bounds ~lo:[| 1.0 |] ~hi:[| 2.0 |] in
  Util.check_true "empty meet" (Interval.meet_le0 pos 0 = None)

(* ------------------------------------------------------------------ *)
(* Zonotope specifics *)

let test_zonotope_affine_exact () =
  (* Affine maps of zonotopes are exact: bounds after the map equal the
     true range of the affine image over the box corners. *)
  Util.repeat ~seed:67 (fun rng _ ->
      let box = Util.small_box rng 2 in
      let z = Zonotope.of_box box in
      let w = Mat.init 2 2 (fun _ _ -> Rng.gaussian rng) in
      let b = Vec.init 2 (fun _ -> Rng.gaussian rng) in
      let out = Zonotope.affine w b z in
      for i = 0 to 1 do
        let lo, hi = Zonotope.bounds out i in
        let best_lo = ref infinity and best_hi = ref neg_infinity in
        for mask = 0 to 3 do
          let y = Vec.add (Mat.matvec w (Box.corner box mask)) b in
          best_lo := Stdlib.min !best_lo y.(i);
          best_hi := Stdlib.max !best_hi y.(i)
        done;
        Util.check_close ~eps:1e-7 "exact lo" !best_lo lo;
        Util.check_close ~eps:1e-7 "exact hi" !best_hi hi
      done)

let test_zonotope_tracks_correlation () =
  (* y0 - y1 with y = [x; x] is exactly 0 for a zonotope but [-1, 1]
     for intervals on the unit box. *)
  let box = unit_box 1 in
  let w = Mat.of_rows [| [| 1.0 |]; [| 1.0 |] |] in
  let z = Zonotope.affine w (Vec.zeros 2) (Zonotope.of_box box) in
  let diff = Zonotope.linear_lower z ~coeffs:[| 1.0; -1.0 |] in
  Util.check_close "x - x = 0" 0.0 diff;
  let itv = Interval.affine w (Vec.zeros 2) (Interval.of_box box) in
  Util.check_close "interval loses it" (-1.0)
    (Interval.linear_lower itv ~coeffs:[| 1.0; -1.0 |])

let test_zonotope_relu_sound_per_dim () =
  Util.repeat ~seed:68 (fun rng _ ->
      let box = Util.small_box rng 3 in
      let z = Zonotope.of_box box in
      let w = Mat.init 3 3 (fun _ _ -> Rng.gaussian rng) in
      let pre = Zonotope.affine w (Vec.zeros 3) z in
      let post = Zonotope.relu pre in
      for _ = 1 to 40 do
        let p = Zonotope.sample rng pre in
        let q = Vec.relu p in
        for i = 0 to 2 do
          let lo, hi = Zonotope.bounds post i in
          Util.check_true "relu image covered"
            (q.(i) >= lo -. 1e-7 && q.(i) <= hi +. 1e-7)
        done
      done)

let test_zonotope_meet_ge0_sound () =
  Util.repeat ~seed:69 (fun rng _ ->
      let box = Util.small_box rng 2 in
      let w = Mat.init 2 2 (fun _ _ -> Rng.gaussian rng) in
      let z = Zonotope.affine w (Vec.zeros 2) (Zonotope.of_box box) in
      let lo, hi = Zonotope.bounds z 0 in
      if lo < 0.0 && hi > 0.0 then begin
        match Zonotope.meet_ge0 z 0 with
        | None -> Alcotest.fail "crossing meet should not be empty"
        | Some m ->
            let mb = Zonotope.to_box m in
            for _ = 1 to 60 do
              let p = Zonotope.sample rng z in
              if p.(0) >= 0.0 then
                Array.iteri
                  (fun i v ->
                    Util.check_true "meet keeps the half-space points"
                      (v >= mb.Box.lo.(i) -. 1e-7 && v <= mb.Box.hi.(i) +. 1e-7))
                  p
            done
      end)

let test_zonotope_meet_detects_empty () =
  let z = Zonotope.create ~center:[| -5.0 |] ~gens:[| [| 1.0 |] |] in
  Util.check_true "empty" (Zonotope.meet_ge0 z 0 = None);
  Util.check_true "non-empty other side" (Zonotope.meet_le0 z 0 <> None)

let test_zonotope_project_zero () =
  let z = Zonotope.create ~center:[| 1.0; 2.0 |] ~gens:[| [| 0.5; 0.5 |] |] in
  let p = Zonotope.project_zero z 0 in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "dim 0 pinned" (0.0, 0.0)
    (Zonotope.bounds p 0);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "dim 1 kept" (1.5, 2.5)
    (Zonotope.bounds p 1)

let test_zonotope_join_contains_both () =
  Util.repeat ~seed:70 (fun rng _ ->
      let mk () =
        let c = Vec.init 2 (fun _ -> Rng.gaussian rng) in
        let gens =
          Array.init (1 + Rng.int rng 3) (fun _ ->
              Vec.init 2 (fun _ -> 0.3 *. Rng.gaussian rng))
        in
        Zonotope.create ~center:c ~gens
      in
      let a = mk () and b = mk () in
      let j = Zonotope.join a b in
      let jb = Zonotope.to_box j in
      List.iter
        (fun z ->
          Array.iter
            (fun p ->
              Array.iteri
                (fun i v ->
                  Util.check_true "join covers members"
                    (v >= jb.Box.lo.(i) -. 1e-7 && v <= jb.Box.hi.(i) +. 1e-7))
                p)
            (Zonotope.contains_sample z))
        [ a; b ])

let test_zonotope_order_reduce_sound () =
  Util.repeat ~seed:71 (fun rng _ ->
      let gens =
        Array.init 20 (fun _ -> Vec.init 3 (fun _ -> 0.1 *. Rng.gaussian rng))
      in
      let z = Zonotope.create ~center:(Vec.zeros 3) ~gens in
      let r = Zonotope.order_reduce z ~max_gens:8 in
      Util.check_true "gen count reduced" (Zonotope.num_generators r <= 8 + 3);
      let rb = Zonotope.to_box r in
      for _ = 1 to 40 do
        let p = Zonotope.sample rng z in
        Array.iteri
          (fun i v ->
            Util.check_true "reduction over-approximates"
              (v >= rb.Box.lo.(i) -. 1e-7 && v <= rb.Box.hi.(i) +. 1e-7))
          p
      done)

(* ------------------------------------------------------------------ *)
(* Powerset specifics *)

module PZ2 =
  Powerset.Over
    (Zonotope)
    (struct
      let max = 2
    end)

let test_powerset_respects_budget () =
  Util.repeat ~seed:72 ~count:15 (fun rng _ ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let out = Absint.Analyzer.propagate (module PZ2) net (PZ2.of_box box) in
      Util.check_true "at most 2 disjuncts" (PZ2.disjuncts out <= 2))

let test_powerset_separation_on_ex23 () =
  (* The paper's Example 2.3: ZJ1 fails, ZJ2 proves. *)
  let net = Nn.Init.example_2_3 () in
  let box = unit_box 2 in
  let zj1 = Absint.Analyzer.margin_lower net box ~k:1 Domain.zonotope_join in
  let zj2 =
    Absint.Analyzer.margin_lower net box ~k:1
      (Domain.powerset Domain.Zonotope_join_base 2)
  in
  Util.check_true "ZJ1 cannot prove" (zj1 <= 0.0);
  Util.check_true "ZJ2 proves" (zj2 > 0.0)

(* ------------------------------------------------------------------ *)
(* Symbolic-interval domain (the beyond-the-paper extension) *)

let test_symbolic_soundness () =
  soundness_check (module Symbolic) ~seed:73 ~count:25 ()

let test_symbolic_identity_on_inputs () =
  let box = Box.create ~lo:[| -1.0; 0.5 |] ~hi:[| 2.0; 0.75 |] in
  let s = Symbolic.of_box box in
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "input 0" (-1.0, 2.0)
    (Symbolic.bounds s 0);
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "input 1" (0.5, 0.75)
    (Symbolic.bounds s 1)

let test_symbolic_affine_exact () =
  (* One affine layer: symbolic bounds are exact (match corner sweep). *)
  Util.repeat ~seed:120 (fun rng _ ->
      let box = Util.small_box rng 2 in
      let w = Mat.init 2 2 (fun _ _ -> Rng.gaussian rng) in
      let b = Vec.init 2 (fun _ -> Rng.gaussian rng) in
      let s = Symbolic.affine w b (Symbolic.of_box box) in
      for i = 0 to 1 do
        let lo, hi = Symbolic.bounds s i in
        let best_lo = ref infinity and best_hi = ref neg_infinity in
        for mask = 0 to 3 do
          let y = Vec.add (Mat.matvec w (Box.corner box mask)) b in
          best_lo := Stdlib.min !best_lo y.(i);
          best_hi := Stdlib.max !best_hi y.(i)
        done;
        Util.check_close ~eps:1e-8 "exact lo" !best_lo lo;
        Util.check_close ~eps:1e-8 "exact hi" !best_hi hi
      done)

let test_symbolic_tracks_correlation () =
  let box = unit_box 1 in
  let w = Mat.of_rows [| [| 1.0 |]; [| 1.0 |] |] in
  let s = Symbolic.affine w (Vec.zeros 2) (Symbolic.of_box box) in
  Util.check_close "x - x = 0" 0.0 (Symbolic.linear_lower s ~coeffs:[| 1.0; -1.0 |])

let test_symbolic_proves_example_2_2 () =
  let net = Nn.Init.example_2_2 () in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 1.0 |] in
  Util.check_true "symbolic proves Example 2.2"
    (Absint.Analyzer.margin_lower net box ~k:1 Domain.symbolic > 0.0)

let test_symbolic_maxpool_fallback_sound () =
  soundness_maxpool (module Symbolic) ~seed:74 ()

let test_symbolic_rejects_powerset () =
  Alcotest.check_raises "no powerset lift"
    (Invalid_argument
       "Domain.powerset: the symbolic-interval domain has no half-space meet \
        and cannot be lifted to a powerset") (fun () ->
      ignore (Domain.powerset Domain.Symbolic_base 2))

let test_symbolic_string_roundtrip () =
  match Domain.of_string (Domain.to_string Domain.symbolic) with
  | Some s -> Util.check_true "S1 roundtrip" (Domain.equal s Domain.symbolic)
  | None -> Alcotest.fail "S1 must parse"

(* ------------------------------------------------------------------ *)
(* Domain dispatch *)

let test_domain_string_roundtrip () =
  List.iter
    (fun spec ->
      match Domain.of_string (Domain.to_string spec) with
      | Some spec' -> Util.check_true "roundtrip" (Domain.equal spec spec')
      | None -> Alcotest.failf "failed to parse %s" (Domain.to_string spec))
    (Domain.all_cheap
    @ [ Domain.zonotope_join; Domain.powerset Domain.Zonotope_join_base 64 ])

let test_domain_of_string_rejects () =
  List.iter
    (fun s -> Util.check_true s (Domain.of_string s = None))
    [ ""; "X3"; "Z0"; "Z-1"; "ZJ"; "I"; "Zfoo" ]

let test_domain_get_names () =
  let (module D) = Domain.get Domain.interval in
  Alcotest.(check string) "interval" "interval" D.name;
  let (module D) = Domain.get (Domain.powerset Domain.Zonotope_base 4) in
  Alcotest.(check string) "powerset name" "zonotope-powerset-4" D.name

let () =
  Alcotest.run "domains"
    [
      ( "box",
        [
          Util.case "basics" test_box_basics;
          Util.case "rejects inverted bounds" test_box_rejects_inverted;
          Util.case "rejects non-finite bounds" test_box_rejects_non_finite;
          Util.case "split covers parent" test_box_split_covers;
          Util.case "split shrinks diameter (Assumption 1)"
            test_box_split_shrinks_diameter;
          Util.case "clamp projects" test_box_clamp_projects;
          Util.case "samples inside" test_box_sample_inside;
          Util.case "hull" test_box_hull;
          Util.case "corner" test_box_corner;
          Util.case "equal is bitwise" test_box_equal_is_bitwise;
        ] );
      ( "soundness",
        [
          Util.case "interval" test_interval_soundness;
          Util.case "zonotope (DeepZ)" test_zonotope_soundness;
          Util.case "zonotope (AI2 join)" test_zonotope_join_soundness;
          Util.case "powersets" test_powerset_soundness;
          Util.case "interval + maxpool" test_interval_maxpool_soundness;
          Util.case "zonotope + maxpool" test_zonotope_maxpool_soundness;
        ] );
      ( "interval",
        [
          Util.case "affine exact on points" test_interval_affine_exact_on_point;
          Util.case "relu exact" test_interval_relu_exact;
          Util.case "meets" test_interval_meets;
        ] );
      ( "zonotope",
        [
          Util.case "affine exact" test_zonotope_affine_exact;
          Util.case "tracks correlations" test_zonotope_tracks_correlation;
          Util.case "relu sound" test_zonotope_relu_sound_per_dim;
          Util.case "meet_ge0 sound" test_zonotope_meet_ge0_sound;
          Util.case "meet detects empty" test_zonotope_meet_detects_empty;
          Util.case "project zero" test_zonotope_project_zero;
          Util.case "join contains both" test_zonotope_join_contains_both;
          Util.case "order reduction sound" test_zonotope_order_reduce_sound;
        ] );
      ( "powerset",
        [
          Util.case "disjunct budget" test_powerset_respects_budget;
          Util.case "example 2.3 separation" test_powerset_separation_on_ex23;
        ] );
      ( "symbolic",
        [
          Util.case "sound on random nets" test_symbolic_soundness;
          Util.case "identity on inputs" test_symbolic_identity_on_inputs;
          Util.case "affine exact" test_symbolic_affine_exact;
          Util.case "tracks correlations" test_symbolic_tracks_correlation;
          Util.case "proves example 2.2" test_symbolic_proves_example_2_2;
          Util.case "maxpool fallback sound" test_symbolic_maxpool_fallback_sound;
          Util.case "rejects powerset lift" test_symbolic_rejects_powerset;
          Util.case "string roundtrip" test_symbolic_string_roundtrip;
        ] );
      ( "dispatch",
        [
          Util.case "string roundtrip" test_domain_string_roundtrip;
          Util.case "rejects malformed" test_domain_of_string_rejects;
          Util.case "module names" test_domain_get_names;
        ] );
    ]
