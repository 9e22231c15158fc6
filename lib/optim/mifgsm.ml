open Linalg
open Domains

type config = { steps : int; momentum : float; step_scale : float }

let default_config = { steps = 20; momentum = 0.9; step_scale = 0.1 }

let norm1 v = Array.fold_left (fun acc x -> acc +. abs_float x) 0.0 v

let c_calls = Telemetry.Metrics.counter "optim.mifgsm.calls"

let attack ?(config = default_config) obj region ~from =
  Telemetry.Metrics.incr c_calls;
  let p = ref (Objective.eval obj (Box.clamp region from)) in
  let best_x = ref !p.Objective.x in
  let best_v = ref !p.Objective.value in
  let accum = Vec.zeros (Box.dim region) in
  let step = config.step_scale *. Box.mean_width region in
  for _ = 1 to config.steps do
    let g = Objective.gradient obj !p in
    let n1 = norm1 g in
    if n1 > 1e-12 then begin
      (* accum <- mu * accum + g / |g|_1, the MI-FGSM update. *)
      Array.iteri
        (fun i gi -> accum.(i) <- (config.momentum *. accum.(i)) +. (gi /. n1))
        g;
      let x = !p.Objective.x in
      let next =
        Objective.eval obj
          (Box.clamp region
             (Vec.init (Vec.dim x) (fun i ->
                  (* descend: move against the accumulated direction *)
                  x.(i) -. (step *. Float.of_int (Float.compare accum.(i) 0.0)))))
      in
      p := next;
      if next.Objective.value < !best_v then begin
        best_v := next.Objective.value;
        best_x := next.Objective.x
      end
    end
  done;
  (!best_x, !best_v)

let attack_center ?config obj region =
  attack ?config obj region ~from:(Box.center region)
