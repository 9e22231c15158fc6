(* The [split] workload: the staircase family (known answer: Verified,
   cost geometric in the input dimension) solved two ways, closed loop,
   one caller — in process with [Verify.run ~workers] and through the
   dverify coordinator ([Server.Coordinator.run]) with worker processes
   that re-execute this binary.  Each round is one in-process solve
   followed by [dverify_per_inproc] dverify solves.

   The two modes solve different members of the family.  The
   coordinator's main loop ends on its 50 ms timer, so a dverify solve
   must span many ticks for its wall to follow the work: d6 takes two
   ticks, d7 ten to twenty.  In process, d7 takes ~20 s, too long to
   repeat in a run, so in-process solves use d6.  The traced run also
   solves d6 with dverify, to set both node counts side by side. *)

open Util

let worker_flag = "--charon-dverify-worker"
let rss_env = "PERFBENCH_RSS_DIR"

(* A dverify worker: serve the coordinator, then leave this process's
   peak RSS where the benchmark can read it. *)
let worker_main () =
  let code = Server.Worker.main () in
  (match Sys.getenv_opt rss_env with
  | Some dir when Sys.file_exists dir ->
      write_file
        (Filename.concat dir (Printf.sprintf "worker-%d.rss" (Unix.getpid ())))
        (Printf.sprintf "%.3f\n" (peak_rss_mb ()))
  | Some _ | None -> ());
  code

let eps = 0.05

(* Margin >= eps everywhere, but interval and zonotope proofs only land
   after splitting essentially every input dimension. *)
let staircase dim =
  let open Linalg in
  let w1 = Mat.init (2 * dim) dim (fun r c -> if r mod dim = c then 1.0 else 0.0) in
  let b1 = Vec.init (2 * dim) (fun r -> if r < dim then 0.0 else -1.0) in
  let w2 =
    Mat.init 2 (2 * dim) (fun r c -> if r = 1 then 0.0 else if c < dim then 1.0 else -1.0)
  in
  Nn.Network.create ~input_dim:dim
    [ Nn.Layer.affine w1 b1; Nn.Layer.Relu; Nn.Layer.affine w2 [| 0.0; -.eps |] ]

let box dim = Domains.Box.of_center_radius (Linalg.Vec.create dim 0.25) 1.25

(* The search's PGD stream is fixed, so every run explores the same
   tree: PGD-guided split points make the in-process tree size swing
   several-fold from one stream to another.  The run seed draws the
   attack samples of the verdict gate. *)
let search_seed = 1

let generate dim =
  let dir = Filename.concat Inputs.cache_root "split" in
  let path = Filename.concat dir (Printf.sprintf "staircase-d%d.net" dim) in
  if not (Sys.file_exists path) then begin
    mkdir_p dir;
    write_file path (Nn.Serial.to_string (staircase dim))
  end;
  path

type solve = { secs : float; outcome : Common.Outcome.t }

type problem = {
  dim : int;
  text : string;
  net : Nn.Network.t;
  prop : Common.Property.t;
  spec : Server.Protocol.job_spec;
}

(* The coordinator's timer period, which quantises every dverify wall. *)
let tick_s = 0.05

let problem dim =
  let text = read_file (generate dim) in
  let net = Nn.Serial.of_string text in
  let prop =
    Common.Property.create ~name:(Printf.sprintf "staircase-d%d" dim) ~region:(box dim)
      ~target:0 ()
  in
  let spec =
    {
      Server.Protocol.name = prop.Common.Property.name;
      network = text;
      box = box dim;
      target = 0;
      delta = Charon.Verify.default_config.Charon.Verify.delta;
      timeout = Some 120.0;
      max_steps = None;
      seed = search_seed;
    }
  in
  { dim; text; net; prop; spec }

let run (cfg : Config.t) ~seed ~seconds ~trace ~out r =
  let p = cfg.Config.split in
  let ip = problem p.Config.inproc_dim and dp = problem p.Config.dverify_dim in
  (* Set-up: parse the networks of both modes.  That takes microseconds,
     so one sample catches the host's speed at one instant; the samples
     are spread over the run, [setup_repeats] before each round. *)
  let setups = ref [] in
  let sample_setup () =
    for _ = 1 to cfg.Config.setup_repeats do
      let secs, () =
        time (fun () ->
            List.iter
              (fun q ->
                ignore
                  (Telemetry.Span.wrap "bench.nn.parse" (fun () -> Nn.Serial.of_string q.text)))
              [ ip; dp ])
      in
      setups := secs :: !setups
    done
  in
  let rss_dir = Filename.concat out "rss" in
  mkdir_p rss_dir;
  Unix.putenv rss_env rss_dir;
  let inproc () =
    time (fun () ->
        Telemetry.Span.wrap "bench.verify" (fun () ->
            Charon.Verify.run ~workers:cfg.Config.nproc
              ~budget:(Common.Budget.of_seconds 120.0)
              ~rng:(Linalg.Rng.create search_seed) ~policy:Charon.Policy.default ip.net
              ip.prop))
  in
  let dverify ?trace_dir q =
    let config =
      { (Server.Coordinator.default_config ~workers:cfg.Config.nproc) with trace_dir }
    in
    time (fun () ->
        Telemetry.Span.wrap "bench.coordinator.run" (fun () ->
            Server.Coordinator.run ~worker_cmd:[| Sys.executable_name; worker_flag |] ~config
              q.spec))
  in
  let gate_rng = Linalg.Rng.create (seed + 31) in
  let gated = ref [] in
  let judge ~mode q outcome =
    Report.attempt r;
    let problem = Printf.sprintf "%s (%s)" q.prop.Common.Property.name mode in
    (match outcome with
    | Common.Outcome.Verified -> ()
    | o -> Report.fail r ~problem ("ended " ^ Common.Outcome.label o ^ ", not verified"));
    (* One random attack per problem and mode is enough: every solve of
       it is the same problem. *)
    if not (List.mem problem !gated) then begin
      gated := problem :: !gated;
      Report.gate r ~problem
        (Gates.check ~rng:gate_rng ~samples:cfg.Config.attack_samples
           ~delta:q.spec.Server.Protocol.delta q.net q.prop outcome)
    end
  in
  let workers_rss () =
    Array.fold_left
      (fun acc f ->
        if not (Filename.check_suffix f ".rss") then acc
        else
          match float_of_string_opt (String.trim (read_file (Filename.concat rss_dir f))) with
          | Some v -> Float.max acc v
          | None -> acc)
      0.0 (Sys.readdir rss_dir)
  in
  if not trace then begin
    let t0 = now () in
    let ins = ref [] and dvs = ref [] in
    let round = ref 0.0 in
    (* Another round only if it fits in the run's seconds. *)
    while !ins = [] || now () -. t0 +. !round <= seconds do
      let r0 = now () in
      sample_setup ();
      let secs, rep = inproc () in
      judge ~mode:"in-process" ip rep.Charon.Verify.outcome;
      ins := { secs; outcome = rep.Charon.Verify.outcome } :: !ins;
      for _ = 1 to p.Config.dverify_per_inproc do
        let secs, res = dverify dp in
        judge ~mode:"dverify" dp res.Server.Coordinator.outcome;
        dvs := { secs; outcome = res.Server.Coordinator.outcome } :: !dvs
      done;
      round := now () -. r0
    done;
    let dv_ms = List.map (fun s -> s.secs *. 1e3) !dvs in
    (* Time to verdict over every solve of the run, both modes: with
       [dverify_per_inproc] dverify solves per in-process one, the median
       falls on dverify solves and the upper percentiles on in-process
       ones. *)
    let all_ms = List.map (fun s -> s.secs *. 1e3) (!ins @ !dvs) in
    let solved =
      List.length
        (List.filter (fun s -> Common.Outcome.is_solved s.outcome) (!ins @ !dvs))
    in
    Report.e2e r "setup_s" "s" (median !setups);
    Report.e2e r "wall_s" "s" (median (List.map (fun s -> s.secs) !dvs));
    Report.e2e r "inproc_wall_s" "s" (median (List.map (fun s -> s.secs) !ins));
    Report.e2e r "verdict_ms.p50" "ms" (quantile 0.5 all_ms);
    Report.e2e r "verdict_ms.p90" "ms" (quantile 0.9 all_ms);
    Report.e2e r "latency_ms.p50" "ms" (quantile 0.5 all_ms);
    Report.e2e r "latency_ms.p95" "ms" (quantile 0.95 all_ms);
    Report.e2e r "goodput_rps" "1/s"
      (share
         (float_of_int
            (List.length (List.filter (fun ms -> ms <= p.Config.split_latency_limit_ms) dv_ms)))
         (sum (List.map (fun s -> s.secs) !dvs)));
    Report.e2e r "solved_share" "share"
      (share (float_of_int solved) (float_of_int (List.length !ins + List.length !dvs)));
    Report.e2e r "peak_rss_mb" "MB" (peak_rss_mb () +. workers_rss ());
    Printf.printf "split: %d in-process solves of d%d, %d dverify solves of d%d\n"
      (List.length !ins) ip.dim (List.length !dvs) dp.dim;
    Printf.printf "  dverify_wall_s (reported as wall_s): %.6g s\n"
      (median (List.map (fun s -> s.secs) !dvs))
  end
  else begin
    (* In process: one untraced and one traced solve, which must agree
       on the verdict class and every report count. *)
    ignore (inproc ());
    let plain_s, plain = inproc () in
    judge ~mode:"in-process" ip plain.Charon.Verify.outcome;
    let inproc_trace = Filename.concat out "split-inproc.jsonl" in
    Telemetry.enable ~path:inproc_trace ();
    let traced_s, traced = inproc () in
    Telemetry.disable ();
    judge ~mode:"in-process" ip traced.Charon.Verify.outcome;
    if Suite.signature plain <> Suite.signature traced then
      Report.fail r ~problem:ip.prop.Common.Property.name
        "tracing changed the verdict class or the report counts";
    let l = Ledger.read inproc_trace in
    Report.layer r "telemetry.overhead_share.split" "share" ((traced_s /. plain_s) -. 1.0);
    Layers.verify_reports r [ traced ];
    Report.layer r "parallel.busy_share" "share"
      (share (Ledger.total l "verify.region" /. 1e9)
         (float_of_int cfg.Config.nproc *. traced_s));
    Report.layer r "parallel.nodes_per_s" "1/s"
      (float_of_int traced.Charon.Verify.nodes /. traced_s);
    Report.layer r "optim.pgd.calls" "count" (float_of_int (Ledger.spans l "optim.pgd"));
    Report.layer r "absint.transformer.calls" "count"
      (float_of_int (Ledger.spans l "absint.layer"));
    (* dverify with worker traces; the coordinator's trace goes beside
       them. *)
    let traced_dverify q =
      let dir = Filename.concat out (Printf.sprintf "dverify-d%d" q.dim) in
      mkdir_p dir;
      Telemetry.enable ~path:(Filename.concat dir "coordinator.jsonl") ();
      let wall, res = dverify ~trace_dir:dir q in
      Telemetry.disable ();
      judge ~mode:"dverify" q res.Server.Coordinator.outcome;
      let workers = Ledger.empty () in
      Array.iter
        (fun f ->
          if String.length f > 7 && String.sub f 0 7 = "worker-" then
            ignore (Ledger.read ~into:workers (Filename.concat dir f)))
        (Sys.readdir dir);
      (wall, res.Server.Coordinator.stats, Ledger.counter workers "dverify.worker.regions")
    in
    let wall, st, worker_nodes = traced_dverify dp in
    let c name v = Report.layer r ("server.coordinator." ^ name) "count" (float_of_int v) in
    c "dealt" st.Server.Coordinator.dealt;
    c "stolen" st.Server.Coordinator.stolen;
    c "escalated" st.Server.Coordinator.escalated;
    c "reassigned" st.Server.Coordinator.reassigned;
    c "worker_deaths" st.Server.Coordinator.worker_deaths;
    let shards = List.map snd st.Server.Coordinator.shard_walls in
    let longest = List.fold_left Float.max 0.0 shards in
    Report.layer r "server.coordinator.busy_share" "share"
      (share (sum shards) (float_of_int cfg.Config.nproc *. wall));
    Report.layer r "server.coordinator.overhead_s" "s" (wall -. longest);
    Report.layer r "server.worker.nodes" "count" (float_of_int worker_nodes);
    (* Like for like: both modes on the in-process dimension. *)
    let like_wall, _, like_nodes = traced_dverify ip in
    Printf.printf
      "split: d%d in process %d nodes in %.3fs; d%d dverify %d worker nodes in %.3fs; d%d \
       dverify %d worker nodes in %.3fs\n"
      ip.dim traced.Charon.Verify.nodes traced_s ip.dim like_nodes like_wall dp.dim worker_nodes
      wall;
    (* Reconciliation: the coordinator's fixed cost (spawning and
       greeting the fleet, dealing, the closing tick and teardown) is
       timed apart, as the median wall of a one-dimensional staircase
       whose splits are proved at once.  The longest shard plus that cost
       must account for the dverify wall to within the tolerance plus one
       timer tick, or the fleet sat idle. *)
    let trivial = problem 1 in
    let fixed =
      median (List.init 5 (fun _ -> fst (dverify trivial)))
    in
    Report.check r "reconcile.split"
      (Float.abs (longest +. fixed -. wall) <= (cfg.Config.reconcile_tolerance *. wall) +. tick_s)
      (Printf.sprintf
         "longest shard %.3fs + fixed coordinator cost %.3fs (timed apart) = %.3fs vs dverify \
          wall %.3fs (shard walls %s; tolerance %.0f%% + one %.0f ms tick)"
         longest fixed (longest +. fixed) wall
         (String.concat ", " (List.map (Printf.sprintf "%.3fs") shards))
         (100. *. cfg.Config.reconcile_tolerance) (tick_s *. 1e3));
    Report.layer r "nn.parse_ms" "ms" (Probes.parse_ms [ ip.text; dp.text ])
  end
