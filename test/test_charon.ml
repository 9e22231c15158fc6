open Linalg
open Domains

let unit_box dim = Box.create ~lo:(Vec.zeros dim) ~hi:(Vec.create dim 1.0)

let default_policy = Charon.Policy.default

let run ?budget ?config ~seed net prop =
  Charon.Verify.run ?budget ?config ~rng:(Rng.create seed) ~policy:default_policy
    net prop

(* ------------------------------------------------------------------ *)
(* Features and selection *)

let feature_input ~seed =
  let rng = Rng.create seed in
  let net = Util.small_net rng in
  let region = Util.small_box rng net.Nn.Network.input_dim in
  let xstar = Box.sample rng region in
  let obj = Optim.Objective.create net ~k:0 in
  {
    Charon.Features.net;
    region;
    target = 0;
    xstar;
    fstar = Optim.Objective.value obj xstar;
  }

let test_features_shape_and_range () =
  for seed = 1 to 20 do
    let input = feature_input ~seed in
    let f = Charon.Features.compute input in
    Alcotest.(check int) "dimension" Charon.Features.dim (Vec.dim f);
    Util.check_close ~eps:0.0 "bias feature" 1.0 f.(Charon.Features.dim - 1);
    Array.iter
      (fun v ->
        Util.check_true "bounded features" (v >= -1.0 && v <= 1.0))
      f
  done

let test_select_clip () =
  Util.check_close ~eps:0.0 "below" 0.0 (Charon.Select.clip01 (-3.0));
  Util.check_close ~eps:0.0 "above" 1.0 (Charon.Select.clip01 7.0);
  Util.check_close ~eps:0.0 "inside" 0.4 (Charon.Select.clip01 0.4)

let test_select_domain_mapping () =
  let d v = Charon.Select.domain_of_vector v in
  Util.check_true "low first coord = interval"
    (Domain.equal (d [| 0.0; 0.0 |]) Domain.interval);
  Util.check_true "high first coord = zonotope"
    (Domain.equal (d [| 1.0; 0.0 |]) Domain.zonotope);
  Util.check_true "mid second coord = 2 disjuncts"
    (Domain.equal (d [| 1.0; 0.5 |]) (Domain.powerset Domain.Zonotope_base 2));
  Util.check_true "high second coord = 4 disjuncts"
    (Domain.equal (d [| 0.0; 1.0 |]) (Domain.powerset Domain.Interval_base 4))

let test_select_partition_in_region () =
  for seed = 1 to 20 do
    let input = feature_input ~seed in
    let rng = Rng.create (seed * 31) in
    let v = Vec.init Charon.Select.partition_dim (fun _ -> Rng.gaussian rng) in
    let dim, at = Charon.Select.partition_of_vector input v in
    let region = input.Charon.Features.region in
    Util.check_true "valid dimension" (dim >= 0 && dim < Box.dim region);
    (* The split point may be requested anywhere; Box.split clamps, so
       the resulting halves are always valid. *)
    let l, r = Box.split region ~dim ~at in
    Util.check_true "halves shrink"
      (Box.diameter l < Box.diameter region && Box.diameter r < Box.diameter region)
  done

(* ------------------------------------------------------------------ *)
(* Policy *)

let test_policy_vector_roundtrip () =
  let rng = Rng.create 140 in
  let v = Vec.init Charon.Policy.num_params (fun _ -> Rng.gaussian rng) in
  match Charon.Policy.to_vector (Charon.Policy.of_vector v) with
  | Some v' -> Util.check_vec ~eps:0.0 "roundtrip" v v'
  | None -> Alcotest.fail "linear policy must expose parameters"

let test_policy_file_roundtrip () =
  let rng = Rng.create 141 in
  let v = Vec.init Charon.Policy.num_params (fun _ -> Rng.gaussian rng) in
  let policy = Charon.Policy.of_vector v in
  let path = Filename.temp_file "charon_policy" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Charon.Policy.save path policy;
      match Charon.Policy.to_vector (Charon.Policy.load path) with
      | Some v' -> Util.check_vec ~eps:0.0 "file roundtrip" v v'
      | None -> Alcotest.fail "expected linear policy")

let test_policy_custom_not_serializable () =
  Alcotest.check_raises "hand-written policies have no parameters"
    (Invalid_argument "Policy.save: cannot persist a hand-written policy")
    (fun () -> Charon.Policy.save "/dev/null" Charon.Policy.default)

let test_policy_decisions_well_formed () =
  for seed = 1 to 20 do
    let input = feature_input ~seed in
    let rng = Rng.create (seed * 77) in
    let v = Vec.init Charon.Policy.num_params (fun _ -> Rng.gaussian rng) in
    let policy = Charon.Policy.of_vector v in
    let spec = Charon.Policy.choose_domain policy input in
    Util.check_true "sane disjunct count"
      (spec.Domain.disjuncts >= 1 && spec.Domain.disjuncts <= 4);
    let dim, _ = Charon.Policy.choose_split policy input in
    Util.check_true "dim in range"
      (dim >= 0 && dim < Box.dim input.Charon.Features.region)
  done

(* ------------------------------------------------------------------ *)
(* Verify: paper examples *)

let test_verify_xor () =
  let net = Nn.Init.xor () in
  let region = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  let good = Common.Property.create ~region ~target:1 () in
  let report = run ~seed:1 net good in
  Util.check_true "verified" (report.Charon.Verify.outcome = Common.Outcome.Verified);
  let bad = Common.Property.create ~region ~target:0 () in
  match (run ~seed:1 net bad).Charon.Verify.outcome with
  | Common.Outcome.Refuted x ->
      Util.check_true "witness in region" (Box.contains region x)
  | _ -> Alcotest.fail "expected refutation"

let test_verify_example_2_2 () =
  let net = Nn.Init.example_2_2 () in
  let robust =
    Common.Property.create ~region:(Box.create ~lo:[| -1.0 |] ~hi:[| 1.0 |]) ~target:1 ()
  in
  Util.check_true "robust interval verified"
    ((run ~seed:2 net robust).Charon.Verify.outcome = Common.Outcome.Verified);
  let fragile =
    Common.Property.create ~region:(Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |]) ~target:1 ()
  in
  match (run ~seed:2 net fragile).Charon.Verify.outcome with
  | Common.Outcome.Refuted _ -> ()
  | _ -> Alcotest.fail "expected refutation"

let test_verify_example_2_3 () =
  let net = Nn.Init.example_2_3 () in
  let prop = Common.Property.create ~region:(unit_box 2) ~target:1 () in
  Util.check_true "verified"
    ((run ~seed:3 net prop).Charon.Verify.outcome = Common.Outcome.Verified)

(* ------------------------------------------------------------------ *)
(* Verify: soundness and delta-completeness on random problems
   (Theorems 5.2 and 5.4 as executable properties) *)

let test_verify_soundness_and_delta_completeness () =
  Util.repeat ~seed:142 ~count:40 (fun rng i ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let prop = Common.Property.create ~region:box ~target:k () in
      let delta = 1e-4 in
      let report =
        run ~seed:i ~budget:(Common.Budget.of_steps 20_000) net prop
      in
      match report.Charon.Verify.outcome with
      | Common.Outcome.Verified ->
          (* Soundness: no sampled point violates the property. *)
          (match Common.Property.check_samples rng net prop ~n:500 with
          | None -> ()
          | Some x ->
              Alcotest.failf "unsound! verified but %s violates"
                (Format.asprintf "%a" Vec.pp x))
      | Common.Outcome.Refuted x ->
          (* Delta-completeness: the witness is a delta-counterexample. *)
          Util.check_true "witness in region" (Box.contains box x);
          Util.check_true "witness is a delta-cex"
            (Optim.Objective.is_delta_counterexample
               (Optim.Objective.create net ~k)
               ~delta x)
      | Common.Outcome.Timeout -> ()
      | Common.Outcome.Unknown ->
          (* Precision limit (depth cap or zero-width region): allowed,
             it just must never masquerade as a verdict. *)
          ())

let test_verify_terminates_with_budget () =
  (* Termination in practice: a generous step budget always ends the
     recursion on tiny problems (Theorem 5.2's guarantee needs finite
     diameter and delta > 0, both true here). *)
  Util.repeat ~seed:143 ~count:10 (fun rng i ->
      let net = Util.small_net rng in
      let box = Box.of_center_radius (Vec.zeros net.Nn.Network.input_dim) 0.05 in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let prop = Common.Property.create ~region:box ~target:k () in
      let report = run ~seed:i net prop in
      Util.check_true "no timeout on tiny regions"
        (report.Charon.Verify.outcome <> Common.Outcome.Timeout))

let test_verify_respects_step_budget () =
  let rng = Rng.create 144 in
  let net = Util.random_dense rng [ 6; 16; 16; 3 ] in
  let prop = Common.Property.create ~region:(unit_box 6) ~target:0 () in
  let budget = Common.Budget.of_steps 5 in
  let report = run ~budget ~seed:9 net prop in
  match report.Charon.Verify.outcome with
  | Common.Outcome.Timeout -> Util.check_true "few nodes" (report.Charon.Verify.nodes <= 10)
  | _ -> ()

let test_verify_no_cex_search_still_sound () =
  let config =
    { Charon.Verify.default_config with Charon.Verify.use_cex_search = false }
  in
  Util.repeat ~seed:145 ~count:15 (fun rng i ->
      let net = Util.small_net rng in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let prop = Common.Property.create ~region:box ~target:k () in
      let report =
        run ~config ~seed:i ~budget:(Common.Budget.of_steps 20_000) net prop
      in
      match report.Charon.Verify.outcome with
      | Common.Outcome.Verified ->
          Util.check_true "sound without PGD"
            (Common.Property.check_samples rng net prop ~n:300 = None)
      | Common.Outcome.Refuted x ->
          Util.check_true "delta cex without PGD"
            (Optim.Objective.is_delta_counterexample
               (Optim.Objective.create net ~k)
               ~delta:1e-4 x)
      | Common.Outcome.Timeout -> ()
      | Common.Outcome.Unknown -> ());
  (* And the ablation must not call PGD at all. *)
  let rng = Rng.create 146 in
  let net = Util.small_net rng in
  let prop =
    Common.Property.create
      ~region:(Util.small_box rng net.Nn.Network.input_dim)
      ~target:0 ()
  in
  let report = run ~config ~seed:10 net prop in
  Alcotest.(check int) "no pgd calls" 0 report.Charon.Verify.pgd_calls

let test_verify_rejects_nonpositive_delta () =
  let net = Nn.Init.xor () in
  let prop = Common.Property.create ~region:(unit_box 2) ~target:1 () in
  let config = { Charon.Verify.default_config with Charon.Verify.delta = 0.0 } in
  Alcotest.check_raises "delta must be positive"
    (Invalid_argument "Verify.run: delta must be positive") (fun () ->
      ignore (run ~config ~seed:1 net prop))

let test_verify_depth_cap_answers_unknown () =
  (* Regression: hitting max_depth used to be reported as Timeout, but
     it is a precision limit — budget to spare, we just refuse to
     refine further — so the answer must be Unknown, same as the
     zero-width-dimension branch. *)
  let net = Nn.Init.dense (Rng.create 11) ~layer_sizes:[ 3; 24; 24; 3 ] in
  let center = [| 0.2; -0.4; 0.6 |] in
  let region = Box.of_center_radius center 0.55 in
  let prop =
    Common.Property.create ~region ~target:(Nn.Network.classify net center) ()
  in
  (* Provable with splitting (about 400 nodes), but never at the root:
     with the cap at 0 the first split already overruns it. *)
  let config = { Charon.Verify.default_config with Charon.Verify.max_depth = 0 } in
  let report = run ~config ~seed:5 net prop in
  (match report.Charon.Verify.outcome with
  | Common.Outcome.Unknown -> ()
  | o ->
      Alcotest.failf "expected unknown at the depth cap, got %s"
        (Common.Outcome.label o));
  (* The generous default budget rules out a genuine timeout. *)
  Util.check_true "budget not exhausted" (report.Charon.Verify.nodes < 100);
  (* A shard hits the same cap, and an Unknown hands back no frontier:
     no budget can decide the rest, so there is nothing to re-deal. *)
  let r, frontier =
    Charon.Verify.run_subtree ~config ~rng:(Rng.create 5)
      ~policy:default_policy net prop
  in
  (match r.Charon.Verify.outcome with
  | Common.Outcome.Unknown -> ()
  | o ->
      Alcotest.failf "expected unknown from a shard at the depth cap, got %s"
        (Common.Outcome.label o));
  Alcotest.(check int) "no frontier with Unknown" 0 (List.length frontier)

let test_verify_settle_keeps_refutation () =
  (* Regression for the parallel settle race: a worker that exhausts
     the step budget settles Timeout while another worker is still
     probing a refutable corner.  The counterexample, once found, must
     win — so whenever the refuted-regions counter moved, the run's
     outcome has to be Refuted, never the raced Timeout/Unknown.  The
     telemetry counter is the oracle for "a refutation was found". *)
  let c_refuted = Telemetry.Metrics.counter "verify.refuted_regions" in
  let config =
    { Charon.Verify.default_config with Charon.Verify.use_cex_search = false }
  in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let refuted_runs = ref 0 in
      Util.repeat ~seed:148 ~count:12 (fun rng i ->
          let net = Util.small_net rng in
          let box = Util.small_box rng net.Nn.Network.input_dim in
          let k = Rng.int rng net.Nn.Network.output_dim in
          let prop = Common.Property.create ~region:box ~target:k () in
          let before = Telemetry.Metrics.value c_refuted in
          let report =
            Charon.Verify.run ~config ~workers:4
              ~budget:(Common.Budget.of_steps 2_000)
              ~rng:(Rng.create i) ~policy:default_policy net prop
          in
          let found = Telemetry.Metrics.value c_refuted - before in
          if found > 0 then begin
            incr refuted_runs;
            match report.Charon.Verify.outcome with
            | Common.Outcome.Refuted _ -> ()
            | o ->
                Alcotest.failf
                  "settle dropped a found counterexample: %d refuted \
                   region(s) but outcome %s"
                  found (Common.Outcome.label o)
          end);
      (* The oracle must actually fire, or this test checks nothing. *)
      Util.check_true "at least one run found a counterexample"
        (!refuted_runs > 0))

let test_verify_report_counters () =
  let net = Nn.Init.xor () in
  let region = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  let prop = Common.Property.create ~region ~target:1 () in
  let report = run ~seed:4 net prop in
  Util.check_true "nodes >= 1" (report.Charon.Verify.nodes >= 1);
  Util.check_true "analyze calls >= 1" (report.Charon.Verify.analyze_calls >= 1);
  Util.check_true "pgd calls >= 1" (report.Charon.Verify.pgd_calls >= 1);
  Util.check_true "domains recorded" (report.Charon.Verify.domains_used <> []);
  Util.check_true "transformer calls counted"
    (report.Charon.Verify.transformer_calls >= Nn.Network.num_layers net)

(* A shard that yields hands back its pending regions deepest first,
   the one pop order (Algorithm 1's depth-first recursion), each inside
   the shard's region.  Yielding at the first poll hands back the root. *)
let test_verify_subtree_frontier_deepest_first () =
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | [ _ ] | [] -> true
  in
  Util.repeat ~seed:149 ~count:10 (fun rng i ->
      let net, prop = Util.boundary_problem rng in
      let root = prop.Common.Property.region in
      List.iter
        (fun k ->
          let polls = ref 0 in
          let yield () =
            incr polls;
            !polls > k
          in
          let r, frontier =
            Charon.Verify.run_subtree ~yield ~rng:(Rng.create i)
              ~policy:default_policy net prop
          in
          let depths = List.map snd frontier in
          let shown = String.concat ";" (List.map string_of_int depths) in
          match r.Charon.Verify.outcome with
          | Common.Outcome.Timeout ->
              Util.check_true "pending regions handed back" (frontier <> []);
              if k = 0 then
                Alcotest.(check string) "root only" "0" shown;
              Util.check_true
                (Printf.sprintf "depths [%s] deepest first" shown)
                (non_increasing depths);
              List.iter
                (fun (box, _) ->
                  Util.check_true "inside the root"
                    (Box.contains root box.Box.lo && Box.contains root box.Box.hi))
                frontier
          | Common.Outcome.Verified | Common.Outcome.Refuted _
          | Common.Outcome.Unknown ->
              Alcotest.(check string) "no frontier" "" shown)
        [ 0; 1; 3; 10 ])

(* ------------------------------------------------------------------ *)
(* Pinned one-worker search trees.

   A one-worker run must explore exactly these trees.  The policy that
   Bayesian optimisation learns is a function of their step counts
   (perfbench/inputs.md5 records its digest), so a change to the order
   regions are popped in, or to the RNG stream they draw from, shows up
   here first.  Seeds are fixed, not CHARON_TEST_SEED-overridable: the
   table holds numbers, not a property. *)

let golden_problems () =
  let rng = Rng.create 2019 in
  let random = List.init 20 (fun _ -> Util.boundary_problem (Rng.split rng)) in
  let xor = Nn.Init.xor () in
  let region = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  random
  @ [
      (xor, Common.Property.create ~region ~target:1 ());
      (xor, Common.Property.create ~region ~target:0 ());
    ]

let golden_run_row ~tag ?(steps = 20_000)
    ?(max_depth = Charon.Verify.default_config.Charon.Verify.max_depth) ~seed
    net prop =
  let config = { Charon.Verify.default_config with Charon.Verify.max_depth } in
  let depths = Buffer.create 256 in
  let on_progress ~nodes:_ ~depth = Printf.bprintf depths "%d," depth in
  let r =
    Charon.Verify.run ~config ~budget:(Common.Budget.of_steps steps)
      ~on_progress ~rng:(Rng.create seed) ~policy:default_policy net prop
  in
  Printf.sprintf "%s %s nodes=%d analyze=%d pgd=%d transformer=%d depth=%d %s"
    tag
    (Common.Outcome.label r.Charon.Verify.outcome)
    r.Charon.Verify.nodes r.Charon.Verify.analyze_calls
    r.Charon.Verify.pgd_calls r.Charon.Verify.transformer_calls
    r.Charon.Verify.peak_depth
    (Digest.to_hex (Digest.string (Buffer.contents depths)))

(* [run_subtree] asked to yield once [k] regions are done. *)
let golden_subtree_row ~tag ~k ?(steps = 20_000) ~seed net prop =
  let polls = ref 0 in
  let yield () =
    incr polls;
    !polls > k
  in
  let r, frontier =
    Charon.Verify.run_subtree ~budget:(Common.Budget.of_steps steps) ~yield
      ~rng:(Rng.create seed) ~policy:default_policy net prop
  in
  let keys = Buffer.create 256 in
  List.iter
    (fun (box, depth) ->
      Printf.bprintf keys "%d:%s;" depth (Partition.key_of_box box))
    frontier;
  Printf.sprintf "%s %s nodes=%d frontier=[%s] %s" tag
    (match r.Charon.Verify.outcome with
    | Common.Outcome.Verified -> "proved"
    | Common.Outcome.Refuted _ -> "refuted"
    | Common.Outcome.Unknown -> "unknown"
    | Common.Outcome.Timeout -> "yielded")
    r.Charon.Verify.nodes
    (String.concat ";" (List.map (fun (_, d) -> string_of_int d) frontier))
    (Digest.to_hex (Digest.string (Buffer.contents keys)))

let golden_rows () =
  let problems = golden_problems () in
  let rows =
    List.concat
      (List.mapi
         (fun i (net, prop) ->
           let seed = 300 + i in
           [
             golden_run_row ~tag:(Printf.sprintf "dfs/%d" i) ~seed net prop;
             golden_subtree_row ~tag:(Printf.sprintf "subtree/%d" i) ~k:3
               ~seed net prop;
           ])
         problems)
  in
  (* The deepest tree again, cut short by each limit in turn. *)
  let net, prop = List.hd problems in
  let seed = 300 in
  rows
  @ [
      golden_run_row ~tag:"dfs-steps/0" ~steps:300 ~seed net prop;
      golden_run_row ~tag:"dfs-depth/0" ~max_depth:4 ~seed net prop;
      golden_subtree_row ~tag:"subtree-k20/0" ~k:20 ~seed net prop;
      golden_subtree_row ~tag:"subtree-steps/0" ~k:max_int ~steps:300 ~seed
        net prop;
    ]

let golden_expected =
  [
    "dfs/0 verified nodes=271 analyze=271 pgd=271 transformer=1355 depth=15 24d8bc46c6c9dd771ba9015e39541379";
    "subtree/0 yielded nodes=3 frontier=[3;3;2;1] 3d52e3e68e6786eb8c56bd3983540bad";
    "dfs/1 verified nodes=1 analyze=1 pgd=1 transformer=5 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/1 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/2 verified nodes=1 analyze=1 pgd=1 transformer=3 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/2 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/3 falsified nodes=1 analyze=0 pgd=1 transformer=0 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/3 refuted nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/4 verified nodes=1 analyze=1 pgd=1 transformer=5 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/4 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/5 falsified nodes=3 analyze=2 pgd=3 transformer=6 depth=1 d996d6b0f585d1b178edef0b8c3c9472";
    "subtree/5 refuted nodes=3 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/6 falsified nodes=1 analyze=0 pgd=1 transformer=0 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/6 refuted nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/7 falsified nodes=1 analyze=0 pgd=1 transformer=0 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/7 refuted nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/8 verified nodes=7 analyze=7 pgd=7 transformer=21 depth=3 fb597bf470da22278f7bb13ae8bdfb95";
    "subtree/8 yielded nodes=3 frontier=[2;2] c6f944e4446159dd02a4fc6cbd963e6c";
    "dfs/9 verified nodes=1 analyze=1 pgd=1 transformer=5 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/9 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/10 verified nodes=1 analyze=1 pgd=1 transformer=3 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/10 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/11 verified nodes=1 analyze=1 pgd=1 transformer=5 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/11 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/12 verified nodes=27 analyze=27 pgd=27 transformer=81 depth=8 d2804b0fdb40fe8848ba8bda293748b1";
    "subtree/12 yielded nodes=3 frontier=[3;3;2;1] c6f67b0395cd8ebd6dd1c9d4bbc5b7ce";
    "dfs/13 falsified nodes=1 analyze=0 pgd=1 transformer=0 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/13 refuted nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/14 falsified nodes=30 analyze=29 pgd=30 transformer=145 depth=10 ba812827707d3c37e4be0cbeb84bc505";
    "subtree/14 yielded nodes=3 frontier=[2;1] 7c2fc4f9b2051f7ea06a75ce7c94d8f5";
    "dfs/15 verified nodes=29 analyze=29 pgd=29 transformer=87 depth=7 9adbd58318982b695f375bbde4b49515";
    "subtree/15 yielded nodes=3 frontier=[2;1] 0f8ffbb2635bf55facba78015151bc1d";
    "dfs/16 verified nodes=1 analyze=1 pgd=1 transformer=5 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/16 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/17 verified nodes=1 analyze=1 pgd=1 transformer=3 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/17 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/18 verified nodes=1 analyze=1 pgd=1 transformer=5 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/18 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/19 falsified nodes=1 analyze=0 pgd=1 transformer=0 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/19 refuted nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/20 verified nodes=1 analyze=1 pgd=1 transformer=3 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/20 proved nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs/21 falsified nodes=1 analyze=0 pgd=1 transformer=0 depth=0 36b8e1133a9d046fbd840f67896716b7";
    "subtree/21 refuted nodes=1 frontier=[] d41d8cd98f00b204e9800998ecf8427e";
    "dfs-steps/0 timeout nodes=61 analyze=60 pgd=60 transformer=300 depth=12 048d594f3ee35abac5d479e826a63bfd";
    "dfs-depth/0 unknown nodes=11 analyze=10 pgd=10 transformer=50 depth=5 5262ea0f54064cb517291bb5ca29cd06";
    "subtree-k20/0 yielded nodes=20 frontier=[8;7;6;5;4;3;1] 813484fd00d5dfd2362feae5fd70507c";
    "subtree-steps/0 yielded nodes=60 frontier=[6;6;4;3;1] 1be7f109054be841bc5650363e4dbfe6";
  ]

let test_verify_golden_trees () =
  Alcotest.(check (list string)) "one-worker trees" golden_expected
    (golden_rows ())

(* [run_subtree] that never yields, on an unlimited budget, is [run] at
   one worker: one report, field for field, and nothing left over.  The
   cached pair also pins the proof-cache counters. *)
let test_verify_subtree_report_is_run_report () =
  let summary (r : Charon.Verify.report) =
    let outcome =
      match r.Charon.Verify.outcome with
      | Common.Outcome.Refuted x ->
          Printf.sprintf "refuted %s"
            (String.concat ","
               (Array.to_list
                  (Array.map
                     (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
                     x)))
      | o -> Common.Outcome.label o
    in
    let domains =
      List.sort compare
        (List.map
           (fun (spec, n) ->
             Printf.sprintf "%s:%d" (Domains.Domain.to_string spec) n)
           r.Charon.Verify.domains_used)
    in
    Printf.sprintf
      "%s nodes=%d analyze=%d pgd=%d transformer=%d depth=%d domains=[%s] \
       lookups=%d hits=%d"
      outcome r.Charon.Verify.nodes r.Charon.Verify.analyze_calls
      r.Charon.Verify.pgd_calls r.Charon.Verify.transformer_calls
      r.Charon.Verify.peak_depth
      (String.concat ";" domains)
      r.Charon.Verify.cache_lookups r.Charon.Verify.cache_hits
  in
  List.iteri
    (fun i (net, prop) ->
      List.iter
        (fun cached ->
          let cache () =
            if cached then Some (Charon.Proofcache.create ()) else None
          in
          let seed = 300 + i in
          let ran =
            Charon.Verify.run ?proofcache:(cache ()) ~rng:(Rng.create seed)
              ~policy:default_policy net prop
          in
          let shard, frontier =
            Charon.Verify.run_subtree ?proofcache:(cache ())
              ~yield:(fun () -> false)
              ~rng:(Rng.create seed) ~policy:default_policy net prop
          in
          let tag = Printf.sprintf "golden/%d cached=%b" i cached in
          Alcotest.(check string) tag (summary ran) (summary shard);
          Alcotest.(check int) (tag ^ " frontier") 0 (List.length frontier))
        [ false; true ])
    (golden_problems ())

(* ------------------------------------------------------------------ *)
(* Learn *)

let tiny_problems ~seed =
  let rng = Rng.create seed in
  let net = Util.random_dense rng [ 2; 6; 2 ] in
  List.init 4 (fun i ->
      let c = [| 0.2 +. (0.2 *. float_of_int i); 0.5 |] in
      let region = Box.of_center_radius c 0.08 in
      let target = Nn.Network.classify net c in
      { Charon.Learn.net; property = Common.Property.create ~region ~target () })

let fast_learn_config =
  {
    Charon.Learn.default_config with
    Charon.Learn.per_problem = Charon.Learn.Steps 400;
    bopt =
      {
        Bayesopt.Bopt.default_config with
        Bayesopt.Bopt.init_samples = 4;
        iterations = 4;
        candidates = 64;
        local_candidates = 16;
      };
  }

let test_learn_returns_linear_policy () =
  let result =
    Charon.Learn.train ~config:fast_learn_config ~rng:(Rng.create 150)
      (tiny_problems ~seed:150)
  in
  Util.check_true "linear policy"
    (Charon.Policy.to_vector result.Charon.Learn.policy <> None);
  Alcotest.(check int) "evaluation count" 8 result.Charon.Learn.evaluations

let test_learn_cost_deterministic () =
  let problems = tiny_problems ~seed:151 in
  let policy = Charon.Policy.of_vector (Vec.create Charon.Policy.num_params 0.1) in
  let c1 = Charon.Learn.cost fast_learn_config ~seed:5 problems policy in
  let c2 = Charon.Learn.cost fast_learn_config ~seed:5 problems policy in
  Util.check_close ~eps:0.0 "deterministic" c1 c2

let test_learn_best_score_is_best_in_history () =
  let result =
    Charon.Learn.train ~config:fast_learn_config ~rng:(Rng.create 152)
      (tiny_problems ~seed:152)
  in
  List.iter
    (fun (e : Bayesopt.Bopt.evaluation) ->
      Util.check_true "best dominates history"
        (result.Charon.Learn.best_score >= e.Bayesopt.Bopt.value))
    result.Charon.Learn.bopt.Bayesopt.Bopt.history

let () =
  Alcotest.run "charon"
    [
      ( "features-select",
        [
          Util.case "feature vector shape" test_features_shape_and_range;
          Util.case "clip01" test_select_clip;
          Util.case "domain selection mapping" test_select_domain_mapping;
          Util.case "partition stays in region" test_select_partition_in_region;
        ] );
      ( "policy",
        [
          Util.case "vector roundtrip" test_policy_vector_roundtrip;
          Util.case "file roundtrip" test_policy_file_roundtrip;
          Util.case "custom not serializable" test_policy_custom_not_serializable;
          Util.case "decisions well-formed" test_policy_decisions_well_formed;
        ] );
      ( "verify-examples",
        [
          Util.case "xor both ways" test_verify_xor;
          Util.case "example 2.2 both ways" test_verify_example_2_2;
          Util.case "example 2.3" test_verify_example_2_3;
        ] );
      ( "verify-theorems",
        [
          Util.case "soundness and delta-completeness"
            test_verify_soundness_and_delta_completeness;
          Util.case "terminates on tiny regions" test_verify_terminates_with_budget;
          Util.case "respects step budget" test_verify_respects_step_budget;
          Util.case "sound without cex search" test_verify_no_cex_search_still_sound;
          Util.case "rejects nonpositive delta" test_verify_rejects_nonpositive_delta;
          Util.case "depth cap answers unknown" test_verify_depth_cap_answers_unknown;
          Util.case "parallel settle keeps refutations"
            test_verify_settle_keeps_refutation;
          Util.case "report counters" test_verify_report_counters;
          Util.case "subtree frontier deepest first"
            test_verify_subtree_frontier_deepest_first;
        ] );
      ( "verify-golden",
        [
          Util.case "one-worker search trees" test_verify_golden_trees;
          Util.case "subtree report is the run report"
            test_verify_subtree_report_is_run_report;
        ] );
      ( "learn",
        [
          Util.case "returns linear policy" test_learn_returns_linear_policy;
          Util.case "cost deterministic" test_learn_cost_deterministic;
          Util.case "best dominates history" test_learn_best_score_is_best_in_history;
        ] );
    ]
