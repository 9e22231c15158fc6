(* QCheck property-based tests over the core data structures and the
   key soundness invariants, with shrinking generators (complementing
   the seeded-loop style checks in the other suites). *)

open Linalg
open Domains
open QCheck2

(* ------------------------------------------------------------------ *)
(* Generators *)

let finite_float = Gen.float_range (-100.0) 100.0

let vec_gen dim = Gen.array_size (Gen.return dim) finite_float

let sized_vec_gen = Gen.(2 -- 5 >>= fun d -> vec_gen d)

let box_gen dim =
  Gen.map2
    (fun lo deltas ->
      let hi = Array.mapi (fun i d -> lo.(i) +. (1e-3 +. abs_float d)) deltas in
      Box.create ~lo ~hi)
    (Gen.array_size (Gen.return dim) (Gen.float_range (-2.0) 2.0))
    (Gen.array_size (Gen.return dim) (Gen.float_range 0.0 1.5))

(* A small random ReLU network together with an input box and a target
   class, seeded through our own deterministic generator so shapes and
   weights shrink together. *)
let problem_gen =
  Gen.map2
    (fun seed dim ->
      let rng = Rng.create seed in
      let hidden = 3 + Rng.int rng 4 in
      let classes = 2 + Rng.int rng 2 in
      let net = Nn.Init.dense rng ~layer_sizes:[ dim; hidden; classes ] in
      let center = Vec.init dim (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let box = Box.of_center_radius center (0.05 +. Rng.float rng 0.4) in
      (net, box, Rng.int rng classes))
    (Gen.int_range 0 1_000_000) (Gen.int_range 2 4)

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Vector algebra laws *)

let vec_pair_gen = Gen.(2 -- 5 >>= fun d -> pair (vec_gen d) (vec_gen d))

let prop_add_commutative =
  qtest "vec add commutes" vec_pair_gen (fun (a, b) ->
      Vec.approx_equal (Vec.add a b) (Vec.add b a))

let prop_dot_symmetric =
  qtest "dot symmetric" vec_pair_gen (fun (a, b) ->
      abs_float (Vec.dot a b -. Vec.dot b a) < 1e-9)

let prop_triangle_inequality =
  qtest "triangle inequality" vec_pair_gen (fun (a, b) ->
      Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-9)

let prop_cauchy_schwarz =
  qtest "cauchy-schwarz" vec_pair_gen (fun (a, b) ->
      abs_float (Vec.dot a b) <= (Vec.norm2 a *. Vec.norm2 b) +. 1e-6)

let prop_relu_idempotent =
  qtest "relu idempotent" sized_vec_gen (fun v ->
      Vec.approx_equal (Vec.relu v) (Vec.relu (Vec.relu v)))

let prop_argmax_is_max =
  qtest "argmax picks the max" sized_vec_gen (fun v ->
      v.(Vec.argmax v) = Vec.max v)

(* ------------------------------------------------------------------ *)
(* Box laws *)

let prop_box_center_inside =
  qtest "box center inside"
    Gen.(2 -- 5 >>= box_gen)
    (fun b -> Box.contains b (Box.center b))

let prop_box_clamp_fixpoint =
  qtest "clamp is a projection"
    Gen.(2 -- 4 >>= fun d -> pair (box_gen d) (vec_gen d))
    (fun (b, x) ->
      let c = Box.clamp b x in
      Box.contains b c && Vec.approx_equal c (Box.clamp b c))

let prop_box_hull_contains =
  qtest "hull contains both boxes"
    Gen.(2 -- 4 >>= fun d -> pair (box_gen d) (box_gen d))
    (fun (a, b) ->
      let h = Box.hull a b in
      Box.contains h (Box.center a) && Box.contains h (Box.center b)
      && Box.contains h a.Box.lo && Box.contains h b.Box.hi)

let prop_box_split_diameters =
  qtest "split shrinks diameters (Assumption 1)"
    Gen.(2 -- 4 >>= fun d -> pair (box_gen d) (Gen.float_range 0.0 1.0))
    (fun (b, frac) ->
      let d = Box.longest_dim b in
      let at = b.Box.lo.(d) +. (frac *. Box.width b d) in
      let l, r = Box.split b ~dim:d ~at in
      Box.diameter l < Box.diameter b && Box.diameter r < Box.diameter b)

(* ------------------------------------------------------------------ *)
(* Abstract-domain soundness on generated verification problems *)

let sound_against_samples spec (net, box, _k) =
  let (module D) = Domain.get spec in
  let out = Absint.Analyzer.propagate (module D) net (D.of_box box) in
  let rng = Rng.create 99 in
  let ok = ref true in
  for _ = 1 to 15 do
    let y = Nn.Network.eval net (Box.sample rng box) in
    for i = 0 to net.Nn.Network.output_dim - 1 do
      let lo, hi = D.bounds out i in
      if not (y.(i) >= lo -. 1e-6 && y.(i) <= hi +. 1e-6) then ok := false
    done
  done;
  !ok

let prop_interval_sound =
  qtest "interval domain sound" ~count:60 problem_gen
    (sound_against_samples Domain.interval)

let prop_zonotope_sound =
  qtest "zonotope domain sound" ~count:60 problem_gen
    (sound_against_samples Domain.zonotope)

let prop_symbolic_sound =
  qtest "symbolic domain sound" ~count:60 problem_gen
    (sound_against_samples Domain.symbolic)

let prop_powerset_sound =
  qtest "powerset domain sound" ~count:40 problem_gen
    (sound_against_samples (Domain.powerset Domain.Zonotope_join_base 3))

let prop_symbolic_at_least_interval_linear =
  (* Without ReLU the symbolic forms are exact, so they dominate
     interval propagation.  (Through ReLU the linear lower relaxation
     s*x can locally be weaker than the interval clamp at 0 — the same
     caveat as for DeepZ zonotopes — so domination is only asserted for
     the linear case.) *)
  qtest "symbolic dominates interval on linear nets" ~count:60
    (Gen.map
       (fun seed ->
         let rng = Rng.create seed in
         let d = 2 + Rng.int rng 3 in
         let m = 2 + Rng.int rng 2 in
         let w1 = Mat.init d d (fun _ _ -> Rng.gaussian rng) in
         let w2 = Mat.init m d (fun _ _ -> Rng.gaussian rng) in
         let net =
           Nn.Network.create ~input_dim:d
             [ Nn.Layer.affine w1 (Vec.zeros d);
               Nn.Layer.affine w2 (Vec.zeros m) ]
         in
         let center = Vec.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
         (net, Box.of_center_radius center 0.3, Rng.int rng m))
       (Gen.int_range 0 1_000_000))
    (fun (net, box, k) ->
      let mi = Absint.Analyzer.margin_lower net box ~k Domain.interval in
      let ms = Absint.Analyzer.margin_lower net box ~k Domain.symbolic in
      ms >= mi -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Wqueue: heap behaviour against a sorted-list model under random
   push/pop interleavings, driven as one worker drives the search loop
   (push, then pop and finish) *)

let wqueue_ops_gen =
  Gen.(list_size (1 -- 80) (pair bool (float_range (-100.0) 100.0)))

let prop_wqueue_matches_model =
  qtest "wqueue matches sorted-list model" ~count:200 wqueue_ops_gen
    (fun ops ->
      let q = Parallel.Wqueue.create () in
      (* The model is the sorted multiset of pending priorities; each
         item is its own priority. *)
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_pop, priority) ->
          if is_pop then (
            match (Util.pop_finish q, !model) with
            | None, [] -> ()
            | Some p, m :: rest ->
                if p <> m then ok := false;
                model := rest
            | Some _, [] | None, _ :: _ -> ok := false)
          else begin
            Parallel.Wqueue.push q ~priority priority;
            model := List.merge compare [ priority ] !model
          end;
          if Parallel.Wqueue.size q <> List.length !model then ok := false)
        ops;
      (* Drain what is left: pops must come out exactly as the sorted
         model (min-first ordering = the heap property, observed through
         the API). *)
      List.iter
        (fun m ->
          match Util.pop_finish q with
          | Some p -> if p <> m then ok := false
          | None -> ok := false)
        !model;
      !ok && Util.pop_finish q = None)

(* ------------------------------------------------------------------ *)
(* Zonotope meet_halfspace soundness *)

let halfspace_gen =
  Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 3 in
      let ngens = 1 + Rng.int rng 4 in
      let center = Vec.init dim (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let gens =
        Array.init ngens (fun _ ->
            Vec.init dim (fun _ -> 0.5 *. Rng.gaussian rng))
      in
      let z = Zonotope.create ~center ~gens in
      (z, Rng.int rng dim, (if Rng.bool rng then 1.0 else -1.0), seed))
    (Gen.int_range 0 1_000_000)

let prop_meet_halfspace_sound =
  (* Soundness of the constrained-zonotope meet: every concrete point of
     the zonotope that satisfies the half-space must stay inside the
     meet (so concrete execution through a ReLU branch split stays
     inside the branch's abstract value), and the meet never grows
     beyond the original zonotope. *)
  qtest "meet_halfspace sound" ~count:200 halfspace_gen
    (fun (z, i, sign, seed) ->
      let rng = Rng.create (seed + 17) in
      let zb = Zonotope.to_box z in
      match Zonotope.meet_halfspace z ~dim:i ~sign with
      | Some m ->
          let mb = Zonotope.to_box m in
          let inside b (p : Vec.t) =
            let ok = ref true in
            Array.iteri
              (fun j v ->
                if not (v >= b.Box.lo.(j) -. 1e-7 && v <= b.Box.hi.(j) +. 1e-7)
                then ok := false)
              p;
            !ok
          in
          let ok = ref (inside zb (Box.center mb)) in
          for _ = 1 to 40 do
            let p = Zonotope.sample rng z in
            if sign *. p.(i) >= 0.0 && not (inside mb p) then ok := false
          done;
          !ok
      | None ->
          (* Provably empty meet: no sampled point of the zonotope may
             satisfy the half-space. *)
          let ok = ref true in
          for _ = 1 to 40 do
            let p = Zonotope.sample rng z in
            if sign *. p.(i) > 1e-7 then ok := false
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* Matrix-backed zonotope vs per-row reference transformers

   The zonotope stores its generator set as one matrix so affine maps
   run as a single GEMM.  These properties pin the matrix-backed
   transformers against straightforward per-row reference
   implementations (the representation the domain used before), so a
   kernel or layout bug cannot silently change the abstraction. *)

let ref_norm1 g = Array.fold_left (fun acc x -> acc +. abs_float x) 0.0 g

let ref_prune gens =
  Array.of_list
    (List.filter (fun g -> ref_norm1 g > 1e-300) (Array.to_list gens))

let ref_radii ~dimz ~gens =
  let r = Vec.zeros dimz in
  Array.iter
    (fun g -> Array.iteri (fun i x -> r.(i) <- r.(i) +. abs_float x) g)
    gens;
  r

let ref_affine w b ~center ~gens =
  ( Vec.add (Mat.matvec w center) b,
    ref_prune (Array.map (fun g -> Mat.matvec w g) gens) )

let ref_relu ~center ~gens =
  let d = Vec.dim center in
  let r = ref_radii ~dimz:d ~gens in
  let c = Vec.copy center and gs = Array.map Vec.copy gens in
  let fresh = ref [] in
  for i = 0 to d - 1 do
    let lo = center.(i) -. r.(i) and hi = center.(i) +. r.(i) in
    if hi <= 0.0 then begin
      c.(i) <- 0.0;
      Array.iter (fun g -> g.(i) <- 0.0) gs
    end
    else if lo < 0.0 then begin
      let lambda = hi /. (hi -. lo) in
      let mu = -.lambda *. lo /. 2.0 in
      c.(i) <- (lambda *. c.(i)) +. mu;
      Array.iter (fun g -> g.(i) <- lambda *. g.(i)) gs;
      fresh := (i, mu) :: !fresh
    end
  done;
  (* [fresh] is in descending-dimension order; rev_map restores the
     ascending order in which the implementation appends fresh rows. *)
  let fresh_rows =
    List.rev_map
      (fun (i, mu) ->
        let g = Vec.zeros d in
        g.(i) <- mu;
        g)
      !fresh
  in
  (c, ref_prune (Array.append gs (Array.of_list fresh_rows)))

let ref_order_reduce ~max_gens ~center ~gens =
  let n = Array.length gens in
  if n <= max_gens then (center, gens)
  else begin
    let d = Vec.dim center in
    let keep = Stdlib.max 0 (max_gens - d) in
    let norms = Array.map ref_norm1 gens in
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> Float.compare norms.(b) norms.(a)) order;
    let box_r = Vec.zeros d in
    for k = keep to n - 1 do
      Array.iteri
        (fun i x -> box_r.(i) <- box_r.(i) +. abs_float x)
        gens.(order.(k))
    done;
    let kept = Array.init keep (fun k -> gens.(order.(k))) in
    let extra = ref [] in
    Array.iteri
      (fun i ri ->
        if ri > 0.0 then begin
          let g = Vec.zeros d in
          g.(i) <- ri;
          extra := g :: !extra
        end)
      box_r;
    (center, Array.append kept (Array.of_list (List.rev !extra)))
  end

let same_zonotope (c, gens) z =
  Vec.approx_equal ~eps:1e-9 c (Zonotope.center z)
  &&
  let zg = Zonotope.generators z in
  Array.length gens = Array.length zg
  && Array.for_all Fun.id
       (Array.mapi (fun i g -> Vec.approx_equal ~eps:1e-9 g zg.(i)) gens)

let zono_case_gen =
  Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 4 in
      let ngens = Rng.int rng 7 in
      let center = Vec.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let gens =
        Array.init ngens (fun _ ->
            Vec.init d (fun _ -> 0.5 *. Rng.gaussian rng))
      in
      (center, gens, seed))
    (Gen.int_range 0 1_000_000)

let prop_matrix_affine_matches_per_row =
  qtest "matrix affine = per-row affine" ~count:200 zono_case_gen
    (fun (center, gens, seed) ->
      let rng = Rng.create (seed + 1) in
      let d = Vec.dim center in
      let rows = 1 + Rng.int rng 5 in
      let w = Mat.init rows d (fun _ _ -> Rng.gaussian rng) in
      let b = Vec.init rows (fun _ -> Rng.gaussian rng) in
      let z = Zonotope.affine w b (Zonotope.create ~center ~gens) in
      same_zonotope (ref_affine w b ~center ~gens) z)

let prop_matrix_relu_matches_per_row =
  qtest "matrix relu = per-row relu" ~count:200 zono_case_gen
    (fun (center, gens, _) ->
      same_zonotope (ref_relu ~center ~gens)
        (Zonotope.relu (Zonotope.create ~center ~gens)))

let prop_matrix_order_reduce_matches_per_row =
  qtest "matrix order_reduce = per-row order_reduce" ~count:200 zono_case_gen
    (fun (center, gens, seed) ->
      let rng = Rng.create (seed + 2) in
      let max_gens = 1 + Rng.int rng (Array.length gens + 2) in
      same_zonotope
        (ref_order_reduce ~max_gens ~center ~gens)
        (Zonotope.order_reduce (Zonotope.create ~center ~gens) ~max_gens))

(* ------------------------------------------------------------------ *)
(* End-to-end: Algorithm 1 verdicts against ground truth sampling *)

let prop_verify_verdicts_consistent =
  qtest "verify verdicts consistent with sampling" ~count:40 problem_gen
    (fun (net, box, k) ->
      let prop = Common.Property.create ~region:box ~target:k () in
      let report =
        Charon.Verify.run
          ~budget:(Common.Budget.of_steps 5_000)
          ~rng:(Rng.create 7) ~policy:Charon.Policy.default net prop
      in
      match report.Charon.Verify.outcome with
      | Common.Outcome.Verified ->
          Common.Property.check_samples (Rng.create 8) net prop ~n:200 = None
      | Common.Outcome.Refuted x ->
          Box.contains box x
          && Optim.Objective.is_delta_counterexample
               (Optim.Objective.create net ~k)
               ~delta:1e-4 x
      | Common.Outcome.Timeout -> true
      | Common.Outcome.Unknown -> false)

let prop_pgd_never_beats_abstract_lower_bound =
  (* The abstract margin is a lower bound on F; PGD's achieved value can
     never fall below it. *)
  qtest "pgd value >= abstract margin" ~count:60 problem_gen
    (fun (net, box, k) ->
      let margin = Absint.Analyzer.margin_lower net box ~k Domain.zonotope in
      let obj = Optim.Objective.create net ~k in
      let _, v = Optim.Pgd.minimize ~rng:(Rng.create 3) obj box in
      v >= margin -. 1e-6)

let () =
  Alcotest.run "properties"
    [
      ( "vector-laws",
        [
          prop_add_commutative;
          prop_dot_symmetric;
          prop_triangle_inequality;
          prop_cauchy_schwarz;
          prop_relu_idempotent;
          prop_argmax_is_max;
        ] );
      ( "box-laws",
        [
          prop_box_center_inside;
          prop_box_clamp_fixpoint;
          prop_box_hull_contains;
          prop_box_split_diameters;
        ] );
      ("wqueue", [ prop_wqueue_matches_model ]);
      ( "domain-soundness",
        [
          prop_interval_sound;
          prop_zonotope_sound;
          prop_symbolic_sound;
          prop_powerset_sound;
          prop_symbolic_at_least_interval_linear;
          prop_meet_halfspace_sound;
        ] );
      ( "matrix-vs-per-row",
        [
          prop_matrix_affine_matches_per_row;
          prop_matrix_relu_matches_per_row;
          prop_matrix_order_reduce_matches_per_row;
        ] );
      ( "end-to-end",
        [ prop_verify_verdicts_consistent; prop_pgd_never_beats_abstract_lower_bound ] );
    ]
