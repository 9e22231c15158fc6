(* Smoke mode, the benchmark's own test: every workload at a tiny size
   on the held-out seed, untraced and traced.  Every verdict gate runs;
   the run fails if any gate or check fails, or if a metric that
   BENCHMARK.json declares is not printed with its declared unit.  No
   timing is judged: the reconciliation checks are printed only. *)

let tiny (cfg : Config.t) =
  {
    cfg with
    Config.setup_repeats = 2;
    suite = { cfg.Config.suite with Config.per_network = 2 };
    serve = { cfg.Config.serve with Config.rate_rps = 6.0 };
    split =
      { cfg.Config.split with Config.inproc_dim = 4; dverify_dim = 4; dverify_per_inproc = 1 };
  }

(* End-to-end metrics every workload prints although BENCHMARK.json
   does not gate them (README.md says why). *)
let ungated = [ ("latency_ms.p50", "ms"); ("latency_ms.p95", "ms") ]

let run (cfg : Config.t) run_workload =
  let cfg = tiny cfg in
  let seed = cfg.Config.heldout_seed in
  let ok = ref true in
  List.iter
    (fun trace ->
      let seen = ref [] in
      List.iter
        (fun workload ->
          Printf.printf "== smoke: %s, trace %b ==\n%!" workload trace;
          let r = run_workload cfg ~workload ~seed ~seconds:2.0 ~trace in
          Report.print r ~trace;
          (* Reconciliations are timing checks: shown, not judged. *)
          if r.Report.failures <> [] then begin
            Printf.printf "smoke: %s failed its gates or checks\n" workload;
            ok := false
          end;
          let mine = List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.unit)) (if trace then r.Report.layer else r.Report.e2e) in
          seen := mine @ !seen;
          if not trace then
            List.iter
              (fun d ->
                if not (List.mem d mine) then begin
                  Printf.printf "smoke: %s did not print %s (%s)\n" workload (fst d) (snd d);
                  ok := false
                end)
              (Report.declared ~trace @ ungated))
        [ "suite"; "serve"; "split" ];
      if trace then
        List.iter
          (fun d ->
            if not (List.mem d !seen) then begin
              Printf.printf "smoke: no traced run printed %s (%s)\n" (fst d) (snd d);
              ok := false
            end)
          (Report.declared ~trace))
    [ false; true ];
  Printf.printf "smoke %s\n" (if !ok then "ok" else "FAILED");
  if !ok then 0 else 1
