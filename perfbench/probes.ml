(* Per-layer probes: one layer's public entry point timed in isolation
   on the workload's own networks and root regions.  Each call sits in a
   [bench.probe.*] span so a trace shows the probes beside the run. *)

open Util

(* Median per-call time of [f], in seconds, over [reps] batches of
   calls sized to last ~[batch_s] each. *)
let per_call ?(reps = 5) ?(batch_s = 0.02) f =
  let once, () = time f in
  let n = max 1 (int_of_float (batch_s /. Float.max once 1e-7)) in
  median
    (List.init reps (fun _ ->
         let t, () = time (fun () -> for _ = 1 to n do f () done) in
         t /. float_of_int n))

(* [Optim.Objective.value_grad] (one forward and one backward pass) at
   each property's region centre. *)
let value_grad_us net (props : Common.Property.t list) =
  let points =
    List.map
      (fun (p : Common.Property.t) ->
        ( Optim.Objective.create net ~k:p.Common.Property.target,
          Domains.Box.center p.Common.Property.region ))
      props
  in
  1e6
  *. per_call (fun () ->
         Telemetry.Span.wrap "bench.probe.value_grad" (fun () ->
             List.iter
               (fun (obj, x) -> ignore (Optim.Objective.value_grad obj x))
               points))
  /. float_of_int (List.length points)

(* [Nn.Serial.of_string] over network texts, ms per pass. *)
let parse_ms texts =
  1e3
  *. per_call ~batch_s:0.05 (fun () ->
         Telemetry.Span.wrap "bench.probe.parse" (fun () ->
             List.iter (fun s -> ignore (Nn.Serial.of_string s)) texts))

(* [Optim.Pgd.minimize] on each root region with [Verify]'s PGD
   configuration; per-root times in ms. *)
let pgd_root_ms ~seed net (props : Common.Property.t list) =
  let cfg = Charon.Verify.default_config in
  let pgd = { cfg.Charon.Verify.pgd with Optim.Pgd.early_stop = Some cfg.Charon.Verify.delta } in
  List.map
    (fun (p : Common.Property.t) ->
      let obj = Optim.Objective.create net ~k:p.Common.Property.target in
      1e3
      *. per_call ~reps:3 ~batch_s:0.005 (fun () ->
             Telemetry.Span.wrap "bench.probe.pgd" (fun () ->
                 ignore
                   (Optim.Pgd.minimize ~config:pgd ~rng:(Linalg.Rng.create seed)
                      obj p.Common.Property.region))))
    props

(* [Absint.Analyzer.analyze] with the zonotope domain at each root,
   µs per call. *)
let analyze_us net (props : Common.Property.t list) =
  1e6
  *. per_call (fun () ->
         Telemetry.Span.wrap "bench.probe.analyze" (fun () ->
             List.iter
               (fun (p : Common.Property.t) ->
                 ignore
                   (Absint.Analyzer.analyze net p.Common.Property.region
                      ~k:p.Common.Property.target Domains.Domain.zonotope))
               props))
  /. float_of_int (List.length props)
