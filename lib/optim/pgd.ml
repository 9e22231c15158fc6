open Linalg
open Domains

type config = {
  steps : int;
  restarts : int;
  step_scale : float;
  early_stop : float option;
}

let default_config =
  { steps = 40; restarts = 5; step_scale = 0.25; early_stop = None }

let c_calls = Telemetry.Metrics.counter "optim.pgd.calls"

let c_steps = Telemetry.Metrics.counter "optim.pgd.steps"

let c_restarts = Telemetry.Metrics.counter "optim.pgd.restarts"

(* The projected step [clamp region (x - s g)] in one pass.  The product
   goes through [y.(i)] so that it is rounded before the subtraction, as
   in a separate scaling pass: a backend that fuses [a -. b *. c] into
   one multiply-subtract (arm64) would otherwise round once, and move
   every later iterate. *)
let step_into region x g s =
  let lo = region.Box.lo and hi = region.Box.hi in
  let y = Array.create_float (Vec.dim x) in
  for i = 0 to Vec.dim x - 1 do
    y.(i) <- s *. g.(i);
    let v = x.(i) -. y.(i) in
    y.(i) <- (if v < lo.(i) then lo.(i) else if v > hi.(i) then hi.(i) else v)
  done;
  y

let run_from ~config obj region x0 =
  let base_step = config.step_scale *. Box.mean_width region in
  (* [p] is the current iterate, evaluated once: its value is compared
     with the best so far, and its trace gives the next gradient. *)
  let p = ref (Objective.eval obj (Box.clamp region x0)) in
  let best_x = ref !p.Objective.x in
  let best_v = ref !p.Objective.value in
  let stop = ref false in
  let step = ref 0 in
  while (not !stop) && !step < config.steps do
    incr step;
    let g = Objective.gradient obj !p in
    let gnorm = Vec.norm2 g in
    if gnorm <= 1e-12 then stop := true
    else begin
      (* Diminishing step: eta_t = base / sqrt(t), normalized gradient. *)
      let eta = base_step /. sqrt (float_of_int !step) in
      let next =
        Objective.eval obj (step_into region !p.Objective.x g (eta /. gnorm))
      in
      if next.Objective.value < !best_v then begin
        best_v := next.Objective.value;
        best_x := next.Objective.x
      end;
      p := next;
      match config.early_stop with
      | Some threshold when !best_v <= threshold -> stop := true
      | Some _ | None -> ()
    end
  done;
  Telemetry.Metrics.add c_steps !step;
  (!best_x, !best_v)

let minimize ?(config = default_config) ~rng obj region =
  if Box.dim region <> (Objective.network obj).Nn.Network.input_dim then
    invalid_arg "Pgd.minimize: region dimension mismatch";
  Telemetry.Metrics.incr c_calls;
  let sp = Telemetry.Span.enter "optim.pgd" in
  let starts =
    Array.init (Stdlib.max 1 config.restarts) (fun i ->
        if i = 0 then Box.center region else Box.sample rng region)
  in
  let best = ref None in
  let restarts_used = ref 0 in
  Array.iter
    (fun x0 ->
      let stop_now =
        match (config.early_stop, !best) with
        | Some threshold, Some (_, v) -> v <= threshold
        | _ -> false
      in
      if not stop_now then begin
        Telemetry.Metrics.incr c_restarts;
        incr restarts_used;
        let x, v = run_from ~config obj region x0 in
        match !best with
        | Some (_, bv) when bv <= v -> ()
        | Some _ | None -> best := Some (x, v)
      end)
    starts;
  match !best with
  | Some (_, v) as result ->
      Telemetry.Span.exit sp
        ~attrs:(fun () ->
          [
            ("restarts", Telemetry.Jsonw.Int !restarts_used);
            ("best", Telemetry.Jsonw.Float v);
          ]);
      Option.get result
  | None -> assert false
