(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) and runs Bechamel micro-benchmarks of the system's
   components.

   Usage:
     dune exec bench/main.exe                     # everything, quick scale
     dune exec bench/main.exe -- fig6             # one figure
     dune exec bench/main.exe -- all --per-network 86 --timeout 10
   Modes: all fig6 cactus fig14 fig15 rq2 ablation delta curve replicate
   micro.
   Options: --per-network N (properties per net), --timeout S (per
   benchmark), --seed S, --no-learn (skip policy training),
   --workers/-j N (worker domains for the suite runs; JSON artifacts
   record the worker count and wall clock per run). *)

open Experiments

type options = {
  mode : string;
  per_network : int;
  timeout : float;
  seed : int;
  learn : bool;
  seeds : int;  (** replications for the summary experiment *)
  workers : int;  (** worker domains for suite runs (1 = sequential) *)
}

let parse_options () =
  let opts =
    ref
      {
        mode = "all";
        per_network = 12;
        timeout = 1.0;
        seed = 2019;
        learn = true;
        seeds = 1;
        workers = 1;
      }
  in
  let rec go = function
    | [] -> ()
    | "--per-network" :: v :: rest ->
        opts := { !opts with per_network = int_of_string v };
        go rest
    | "--timeout" :: v :: rest ->
        opts := { !opts with timeout = float_of_string v };
        go rest
    | "--seed" :: v :: rest ->
        opts := { !opts with seed = int_of_string v };
        go rest
    | "--no-learn" :: rest ->
        opts := { !opts with learn = false };
        go rest
    | "--seeds" :: v :: rest ->
        opts := { !opts with seeds = int_of_string v };
        go rest
    | ("--workers" | "-j") :: v :: rest ->
        let workers =
          match int_of_string_opt v with
          | Some w when w >= 1 -> w
          | _ ->
              Printf.eprintf
                "bench: --workers expects a positive integer (got %s)\n" v;
              exit 2
        in
        opts := { !opts with workers };
        go rest
    | mode :: rest ->
        opts := { !opts with mode };
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  !opts

let artifacts = "_artifacts"

let progress (r : Runner.result) =
  Printf.eprintf "  [%s] %s/%s: %s (%.2fs)\n%!" r.Runner.tool r.Runner.network
    r.Runner.property
    (Common.Outcome.label r.Runner.outcome)
    r.Runner.time

let policy_of opts =
  if opts.learn then begin
    Printf.printf "training verification policy on ACAS-like problems...\n%!";
    let t0 = Unix.gettimeofday () in
    let policy =
      Training.learned_policy
        ~cache:(Filename.concat artifacts "policy.txt")
        ~seed:opts.seed ()
    in
    Printf.printf "policy ready (%.1fs)\n%!" (Unix.gettimeofday () -. t0);
    policy
  end
  else Charon.Policy.default

let workload opts =
  Printf.printf "building benchmark suite (7 networks, %d properties each)...\n%!"
    opts.per_network;
  let t0 = Unix.gettimeofday () in
  let w =
    Datasets.Suite.benchmark ~cache_dir:artifacts ~seed:opts.seed
      ~per_network:opts.per_network ()
  in
  List.iter
    (fun ((e : Datasets.Suite.entry), _) ->
      Printf.printf "  %-14s %-45s acc=%.2f\n" e.Datasets.Suite.name
        e.Datasets.Suite.description e.Datasets.Suite.test_accuracy)
    w;
  Printf.printf "suite ready (%.1fs)\n%!" (Unix.gettimeofday () -. t0);
  w

let non_conv w =
  List.filter
    (fun ((e : Datasets.Suite.entry), _) -> not e.Datasets.Suite.convolutional)
    w

(* Suite runs go through one wrapper so every experiment also leaves a
   JSON record with the worker count, end-to-end wall clock, and the
   aggregate telemetry counters for that run — the fields BENCH_*.json
   archives and bin/benchdiff.exe use to track speedup and work done.
   Metrics are reset per suite so each JSON's counters cover exactly
   its own run. *)
let timed_suite opts ~json tools w =
  Telemetry.enable ();
  Telemetry.Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let results =
    Runner.run_suite ~progress ~jobs:opts.workers ~seed:opts.seed
      ~timeout:opts.timeout tools w
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "suite run done: %.1fs wall with %d worker(s)\n%!" wall
    opts.workers;
  Runner.save_json ~workers:opts.workers ~wall_seconds:wall
    ~counters:(Telemetry.Metrics.counters ())
    (Filename.concat artifacts json)
    results;
  results

(* Figures 6-13 share one run of {Charon, AI2-Zonotope, AI2-Bounded64}. *)
let run_ai2_experiment opts policy w =
  Printf.printf "\nrunning Charon vs AI2 (%d benchmarks x 3 tools)...\n%!"
    (List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 w);
  timed_suite opts ~json:"ai2_results.json" (Tool.all_figure6 ~policy) w

(* Figures 14-15 and §7.3 share one run of {Charon, ReluVal, Reluplex}
   on the fully-connected networks. *)
let run_complete_experiment opts policy w =
  let w = non_conv w in
  Printf.printf "\nrunning Charon vs complete tools (%d benchmarks x 3 tools)...\n%!"
    (List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 w);
  timed_suite opts ~json:"complete_results.json" (Tool.all_complete ~policy) w

(* Bechamel micro-benchmarks: one group per paper artefact, measuring
   the dominant kernel behind it. *)
let micro opts =
  let open Bechamel in
  let seed = opts.seed in
  let entry = Datasets.Suite.build_network ~seed "mnist-3x100" in
  let net = entry.Datasets.Suite.net in
  let prop = List.hd (Datasets.Suite.properties ~seed entry ~count:1) in
  let region = prop.Common.Property.region in
  let k = prop.Common.Property.target in
  let margin spec () =
    ignore (Absint.Analyzer.margin_lower net region ~k spec)
  in
  let pgd () =
    let rng = Linalg.Rng.create seed in
    let obj = Optim.Objective.create net ~k in
    ignore (Optim.Pgd.minimize ~rng obj region)
  in
  let gp_fit () =
    let rng = Linalg.Rng.create seed in
    let box =
      Domains.Box.create ~lo:(Linalg.Vec.create 5 (-1.0))
        ~hi:(Linalg.Vec.create 5 1.0)
    in
    let inputs = Bayesopt.Latin.sample rng box ~n:24 in
    let targets = Array.map (fun x -> Linalg.Vec.norm2 x) inputs in
    ignore
      (Bayesopt.Gp.fit (Bayesopt.Kernel.matern52 ~length:0.3 ()) ~inputs ~targets)
  in
  let symbolic () =
    ignore (Absint.Analyzer.output_bounds net region Domains.Domain.symbolic)
  in
  let lp () =
    let enc = Reluplex.Encoding.build net region in
    let lp = Simplex.Lp.create ~nvars:enc.Reluplex.Encoding.nvars in
    Array.iteri
      (fun i (lo, hi) -> Simplex.Lp.set_bounds lp i ~lo ~hi)
      enc.Reluplex.Encoding.var_bounds;
    Array.iter
      (fun (row, b) -> Simplex.Lp.add_eq lp row b)
      enc.Reluplex.Encoding.equalities;
    ignore
      (Simplex.Lp.maximize lp [ (enc.Reluplex.Encoding.output_vars.(0), 1.0) ])
  in
  let charon () =
    let rng = Linalg.Rng.create seed in
    ignore
      (Charon.Verify.run ~budget:(Common.Budget.of_steps 500) ~rng
         ~policy:Charon.Policy.default net prop)
  in
  let tests =
    [
      Test.make_grouped ~name:"fig6-domains"
        [
          Test.make ~name:"interval" (Staged.stage (margin Domains.Domain.interval));
          Test.make ~name:"zonotope" (Staged.stage (margin Domains.Domain.zonotope));
          Test.make ~name:"ai2-zonotope"
            (Staged.stage (margin Domains.Domain.zonotope_join));
          Test.make ~name:"ai2-bounded4"
            (Staged.stage
               (margin (Domains.Domain.powerset Domains.Domain.Zonotope_join_base 4)));
        ];
      Test.make_grouped ~name:"fig14-solvers"
        [
          Test.make ~name:"charon-500steps" (Staged.stage charon);
          Test.make ~name:"reluval-symbolic-pass" (Staged.stage symbolic);
          Test.make ~name:"reluplex-lp-relaxation" (Staged.stage lp);
        ];
      Test.make_grouped ~name:"training-phase"
        [
          Test.make ~name:"pgd-counterexample-search" (Staged.stage pgd);
          Test.make ~name:"gp-fit-24pts" (Staged.stage gp_fit);
        ];
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  Printf.printf "\n== Bechamel micro-benchmarks ==\n%!";
  List.iter
    (fun group ->
      let results = benchmark group in
      Hashtbl.iter
        (fun _measure tbl ->
          Hashtbl.iter
            (fun name ols ->
              match Analyze.OLS.estimates ols with
              | Some [ t ] -> Printf.printf "%-45s %12.1f ns/run\n" name t
              | Some _ | None -> Printf.printf "%-45s (no estimate)\n" name)
            tbl)
        results)
    tests

let () =
  let opts = parse_options () in
  (try if not (Sys.file_exists artifacts) then Sys.mkdir artifacts 0o755
   with Sys_error _ -> ());
  Printf.printf
    "charon benchmark harness: mode=%s per-network=%d timeout=%.1fs seed=%d\n%!"
    opts.mode opts.per_network opts.timeout opts.seed;
  match opts.mode with
  | "micro" -> micro opts
  | "replicate" ->
      (* Statistical replication of the Figure 6 headline across seeds:
         solved counts per tool, mean and standard deviation. *)
      let policy = policy_of opts in
      let runs =
        List.init (Stdlib.max 1 opts.seeds) (fun i ->
            let seed = opts.seed + (1000 * i) in
            let w =
              Datasets.Suite.benchmark ~seed ~per_network:opts.per_network ()
            in
            Printf.printf "seed %d...
%!" seed;
            Runner.run_suite ~jobs:opts.workers ~seed ~timeout:opts.timeout
              (Tool.all_figure6 ~policy) w)
      in
      Printf.printf "
== Figure 6 replicated over %d seeds ==
"
        (List.length runs);
      Printf.printf "%-16s %14s %14s
" "tool" "solved (mean)" "stddev";
      List.iter
        (fun tool ->
          let counts =
            Array.of_list
              (List.map
                 (fun results ->
                   float_of_int
                     (List.length (Runner.solved (Runner.by_tool results tool))))
                 runs)
          in
          Printf.printf "%-16s %14.1f %14.2f
" tool
            (Linalg.Stats.mean counts)
            (Linalg.Stats.stddev counts))
        [ "Charon"; "AI2-Zonotope"; "AI2-Bounded64" ]
  | "fig6" | "cactus" ->
      let policy = policy_of opts in
      let results = run_ai2_experiment opts policy (workload opts) in
      Figures.fig6 results;
      Figures.cactus_per_network results;
      Figures.consistency results
  | "fig14" | "fig15" | "rq2" ->
      let policy = policy_of opts in
      let results = run_complete_experiment opts policy (workload opts) in
      Figures.fig14 results;
      Figures.fig15 results;
      Figures.rq2 results;
      Figures.consistency results
  | "curve" ->
      let policy = policy_of opts in
      let entry = Datasets.Suite.build_network ~seed:opts.seed "mnist-3x100" in
      let rng = Linalg.Rng.create (opts.seed + 5) in
      let spec =
        { entry.Datasets.Suite.image_spec with Datasets.Synth_images.noise = 0.45 }
      in
      let images =
        Array.init 20 (fun i -> Datasets.Synth_images.sample rng spec (i mod 10))
      in
      let points =
        Robustness_curve.compute ~timeout:opts.timeout ~policy ~seed:opts.seed
          entry.Datasets.Suite.net ~images
          ~epsilons:[ 0.005; 0.01; 0.02; 0.04; 0.08; 0.16 ]
      in
      Robustness_curve.print ~total:(Array.length images) points
  | "delta" ->
      let policy = policy_of opts in
      let w = non_conv (workload opts) in
      Delta_sweep.run ~seed:opts.seed ~timeout:opts.timeout ~policy
        ~deltas:[ 1e-6; 1e-4; 1e-2; 1e-1; 0.5 ]
        w
  | "ablation" ->
      let policy = policy_of opts in
      let w = non_conv (workload opts) in
      let _results =
        Ablation.policies ~seed:opts.seed ~timeout:opts.timeout ~policy w
      in
      let entry = Datasets.Suite.build_network ~seed:opts.seed "mnist-3x100" in
      Ablation.transformers entry.Datasets.Suite.net
        (Datasets.Suite.properties ~seed:opts.seed entry ~count:24)
  | "all" ->
      let policy = policy_of opts in
      let w = workload opts in
      let ai2_results = run_ai2_experiment opts policy w in
      Runner.save_csv (Filename.concat artifacts "ai2_results.csv") ai2_results;
      Figures.fig6 ai2_results;
      Figures.cactus_per_network ai2_results;
      let complete_results = run_complete_experiment opts policy w in
      Runner.save_csv
        (Filename.concat artifacts "complete_results.csv")
        complete_results;
      Figures.fig14 complete_results;
      Figures.fig15 complete_results;
      Figures.rq2 complete_results;
      Figures.consistency (ai2_results @ complete_results);
      let _abl =
        Ablation.policies ~seed:opts.seed ~timeout:opts.timeout ~policy
          (non_conv w)
      in
      let entry = Datasets.Suite.build_network ~seed:opts.seed "mnist-3x100" in
      Ablation.transformers entry.Datasets.Suite.net
        (Datasets.Suite.properties ~seed:opts.seed entry ~count:24);
      Delta_sweep.run ~seed:opts.seed ~timeout:opts.timeout ~policy
        ~deltas:[ 1e-6; 1e-4; 1e-2; 1e-1; 0.5 ]
        (non_conv w);
      (let entry = Datasets.Suite.build_network ~seed:opts.seed "mnist-3x100" in
       let rng = Linalg.Rng.create (opts.seed + 5) in
       let spec =
         { entry.Datasets.Suite.image_spec with Datasets.Synth_images.noise = 0.45 }
       in
       let images =
         Array.init 20 (fun i -> Datasets.Synth_images.sample rng spec (i mod 10))
       in
       let points =
         Robustness_curve.compute ~timeout:opts.timeout ~policy ~seed:opts.seed
           entry.Datasets.Suite.net ~images
           ~epsilons:[ 0.005; 0.01; 0.02; 0.04; 0.08; 0.16 ]
       in
       Robustness_curve.print ~total:(Array.length images) points);
      micro opts
  | other ->
      Printf.eprintf
        "unknown mode %S (expected \
         all/fig6/cactus/fig14/fig15/rq2/ablation/delta/curve/replicate/micro)\n"
        other;
      exit 2
