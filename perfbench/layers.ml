(* Per-layer metrics shared by the workloads' traced runs: the
   verifier's phase split read from a trace, the counts carried by
   [Verify.report]s, and the nn / optim / absint probes. *)

open Util

(* PGD, abstract interpretation and the search's self time inside
   [verify.run], as shares of its total; they must add back to the
   verifier wall the benchmark timed itself ([bench_wall], seconds)
   within [tol]. *)
let verify_ledger ?(gate = true) r ~tol ~what (l : Ledger.t) ~bench_wall =
  let run_ns = Ledger.total l "verify.run" in
  let pgd = Ledger.pgd_ns l and absint = Ledger.absint_ns l in
  let self = Ledger.verify_self_ns l in
  Report.layer r "optim.pgd.calls" "count" (float_of_int (Ledger.spans l "optim.pgd"));
  Report.layer r "optim.pgd.steps" "count" (float_of_int (Ledger.counter l "optim.pgd.steps"));
  Report.layer r "optim.pgd.share" "share" (share pgd run_ns);
  Report.layer r "absint.analyze.calls" "count"
    (float_of_int (Ledger.counter l "verify.analyze_calls"));
  Report.layer r "absint.transformer.calls" "count"
    (float_of_int (Ledger.spans l "absint.layer"));
  Report.layer r "absint.share" "share" (share absint run_ns);
  List.iter
    (fun kind ->
      Report.layer r ("absint.layer_ms." ^ kind) "ms" (Ledger.layer l kind /. 1e6))
    [ "affine"; "conv"; "relu"; "maxpool" ];
  Report.layer r "core.verify.self_share" "share" (share self run_ns);
  let parts = (pgd +. absint +. self) /. 1e9 in
  let residual = share (Float.abs (parts -. bench_wall)) bench_wall in
  let detail =
    Printf.sprintf
       "pgd %.3fs + absint %.3fs + verify self %.3fs = %.3fs vs Verify.run wall %.3fs (residual %.1f%%, tolerance %.0f%%)"
       (pgd /. 1e9) (absint /. 1e9) (self /. 1e9) parts bench_wall (100. *. residual)
       (100. *. tol)
  in
  if gate then Report.check r ("reconcile." ^ what) (residual <= tol) detail
  else Printf.printf "ledger %s: %s\n" what detail

let verify_reports r (reps : Charon.Verify.report list) =
  let total f = float_of_int (List.fold_left (fun a rep -> a + f rep) 0 reps) in
  Report.layer r "core.verify.nodes" "count" (total (fun rep -> rep.Charon.Verify.nodes));
  Report.layer r "core.verify.peak_depth" "count"
    (float_of_int
       (List.fold_left (fun a rep -> max a rep.Charon.Verify.peak_depth) 0 reps));
  let lookups = total (fun rep -> rep.Charon.Verify.cache_lookups) in
  Report.layer r "core.proofcache.lookups" "count" lookups;
  Report.layer r "core.proofcache.hit_rate" "share"
    (share (total (fun rep -> rep.Charon.Verify.cache_hits)) lookups);
  Report.layer r "parallel.kernel_fanouts" "count"
    (total (fun rep -> rep.Charon.Verify.kernel_fanouts))

(* The nn, optim and absint probes on the workload's networks at its
   properties' roots. *)
let probes r ~seed ~model_seed nets (props : (string * Common.Property.t) list) =
  let texts =
    List.map (fun (name, _) -> read_file (Inputs.net_path ~model_seed name)) nets
  in
  Report.layer r "nn.parse_ms" "ms" (Probes.parse_ms texts);
  let pgd_ms = ref [] in
  List.iter
    (fun (name, net) ->
      let mine = List.filter_map (fun (n, p) -> if String.equal n name then Some p else None) props in
      if mine <> [] then begin
        Report.layer r ("nn.value_grad_us." ^ name) "us" (Probes.value_grad_us net mine);
        Report.layer r ("absint.analyze_us." ^ name) "us" (Probes.analyze_us net mine);
        pgd_ms := Probes.pgd_root_ms ~seed net mine @ !pgd_ms
      end)
    nets;
  Report.layer r "optim.pgd.root_ms.p50" "ms" (median !pgd_ms)
