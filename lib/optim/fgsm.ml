open Linalg
open Domains

let c_calls = Telemetry.Metrics.counter "optim.fgsm.calls"

let attack obj region ~from =
  Telemetry.Metrics.incr c_calls;
  let x0 = Box.clamp region from in
  let g = Objective.gradient obj (Objective.eval obj x0) in
  (* Move each coordinate to the face that decreases F: against the
     gradient sign.  Coordinates with zero gradient stay put. *)
  let x =
    Vec.init (Vec.dim x0) (fun i ->
        if g.(i) > 0.0 then region.Box.lo.(i)
        else if g.(i) < 0.0 then region.Box.hi.(i)
        else x0.(i))
  in
  (x, Objective.value obj x)

let attack_center obj region = attack obj region ~from:(Box.center region)
