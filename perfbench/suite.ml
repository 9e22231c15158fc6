(* The [suite] workload: sequential [Verify.run], one property at a
   time, with the learned policy over a seeded draw from all seven suite
   networks, each property under the suite's step budget.  The slice is
   verified pass after pass until the run's seconds are spent; times are
   medians over passes. *)

open Util

let names = Datasets.Suite.network_names

type item = { c : Inputs.candidate; secs : float; rep : Charon.Verify.report }

type pass = { wall : float; items : item list }

let verify ~max_steps ~policy nets (c : Inputs.candidate) =
  Telemetry.Span.wrap "bench.verify" (fun () ->
      Inputs.verify_candidate ~max_steps ~policy (List.assoc c.Inputs.net nets) c)

let run_pass ~max_steps ~policy nets slice =
  let t0 = now () in
  let items =
    List.map
      (fun c ->
        let secs, rep = time (fun () -> verify ~max_steps ~policy nets c) in
        { c; secs; rep })
      slice
  in
  { wall = now () -. t0; items }

(* The [Verify.report] fields a repeated or traced run must reproduce. *)
let signature (rep : Charon.Verify.report) =
  Charon.Verify.
    ( Common.Outcome.label rep.outcome,
      rep.nodes,
      rep.analyze_calls,
      rep.pgd_calls,
      rep.transformer_calls,
      rep.peak_depth )

let same_runs r ~what (a : pass) (b : pass) =
  List.iter2
    (fun x y ->
      if signature x.rep <> signature y.rep then
        Report.fail r ~problem:x.c.Inputs.prop.Common.Property.name
          (what ^ " changed the verdict class or the report counts"))
    a.items b.items

(* The program's set-up, repeated; the median is [setup_s]. *)
let setup (cfg : Config.t) names =
  let runs =
    List.init cfg.Config.setup_repeats (fun _ ->
        time (fun () -> Inputs.load_models ~model_seed:cfg.Config.model_seed names))
  in
  (median (List.map fst runs), snd (List.nth runs (List.length runs - 1)))

let gate_verdicts (cfg : Config.t) ~seed r nets (p : pass) =
  let rng = Linalg.Rng.create (seed + 31) in
  List.iter
    (fun it ->
      Report.attempt r;
      Report.gate r ~problem:it.c.Inputs.prop.Common.Property.name
        (Gates.check ~rng ~samples:cfg.Config.attack_samples
           ~delta:Charon.Verify.default_config.Charon.Verify.delta
           (List.assoc it.c.Inputs.net nets) it.c.Inputs.prop
           it.rep.Charon.Verify.outcome))
    p.items

let slice (cfg : Config.t) ~seed =
  let s = cfg.Config.suite in
  let pool =
    Inputs.pool ~model_seed:cfg.Config.model_seed ~size:s.Config.pool_size
  in
  let slice = Inputs.draw ~seed ~per_network:s.Config.per_network names pool in
  Inputs.record_draw ~seed ~tag:"suite" slice;
  slice

let measure (cfg : Config.t) ~seed ~seconds r =
  let s = cfg.Config.suite in
  let slice = slice cfg ~seed in
  let setup_s, (nets, policy) = setup cfg names in
  let pass () = run_pass ~max_steps:s.Config.max_steps ~policy nets slice in
  let t0 = now () in
  let first = pass () in
  let passes = ref [ first ] in
  (* Another pass only if it fits in the run's seconds. *)
  while now () -. t0 +. first.wall <= seconds do
    let p = pass () in
    same_runs r ~what:"a repeated pass" first p;
    passes := p :: !passes
  done;
  gate_verdicts cfg ~seed r nets first;
  let passes = !passes in
  let per_prop =
    List.mapi
      (fun i _ -> median (List.map (fun p -> (List.nth p.items i).secs *. 1e3) passes))
      slice
  in
  let limit = s.Config.latency_limit_ms in
  let solved =
    List.length
      (List.filter (fun it -> Common.Outcome.is_solved it.rep.Charon.Verify.outcome) first.items)
  in
  Report.e2e r "setup_s" "s" setup_s;
  Report.e2e r "wall_s" "s" (median (List.map (fun p -> p.wall) passes));
  Report.e2e r "inproc_wall_s" "s"
    (median (List.map (fun p -> sum (List.map (fun it -> it.secs) p.items)) passes));
  Report.e2e r "verdict_ms.p50" "ms" (quantile 0.5 per_prop);
  Report.e2e r "verdict_ms.p90" "ms" (quantile 0.9 per_prop);
  Report.e2e r "latency_ms.p50" "ms" (quantile 0.5 per_prop);
  Report.e2e r "latency_ms.p95" "ms" (quantile 0.95 per_prop);
  Report.e2e r "goodput_rps" "1/s"
    (median
       (List.map
          (fun p ->
            float_of_int
              (List.length (List.filter (fun it -> it.secs *. 1e3 <= limit) p.items))
            /. p.wall)
          passes));
  Report.e2e r "solved_share" "share"
    (share (float_of_int solved) (float_of_int (List.length slice)));
  Report.e2e r "peak_rss_mb" "MB" (peak_rss_mb ());
  Printf.printf "suite: %d properties, %d solved; pass walls %s\n" (List.length slice) solved
    (String.concat " " (List.rev_map (fun p -> Printf.sprintf "%.3fs" p.wall) passes))

(* The traced run: one untraced pass, one pass with the trace on, then
   the probes; the ledger splits the traced pass by layer. *)
let traced (cfg : Config.t) ~seed ~out r =
  let s = cfg.Config.suite in
  let slice = slice cfg ~seed in
  let _, (nets, policy) = setup cfg names in
  let pass () = run_pass ~max_steps:s.Config.max_steps ~policy nets slice in
  let plain = pass () in
  let trace_path = Filename.concat out "suite.jsonl" in
  Telemetry.enable ~path:trace_path ();
  let traced = pass () in
  Telemetry.disable ();
  same_runs r ~what:"tracing" plain traced;
  gate_verdicts cfg ~seed r nets traced;
  let l = Ledger.read trace_path in
  Layers.verify_ledger r ~tol:cfg.Config.reconcile_tolerance ~what:"suite" l
    ~bench_wall:(sum (List.map (fun it -> it.secs) traced.items));
  let reps = List.map (fun it -> it.rep) traced.items in
  Layers.verify_reports r reps;
  Report.layer r "telemetry.overhead_share.suite" "share" ((traced.wall /. plain.wall) -. 1.0);
  Telemetry.enable ~path:(Filename.concat out "probes.jsonl") ();
  Layers.probes r ~seed ~model_seed:cfg.Config.model_seed nets
    (List.map (fun (c : Inputs.candidate) -> (c.Inputs.net, c.Inputs.prop)) slice);
  Telemetry.disable ()

let run cfg ~seed ~seconds ~trace ~out r =
  if trace then traced cfg ~seed ~out r else measure cfg ~seed ~seconds r
