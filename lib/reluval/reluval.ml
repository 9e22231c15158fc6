open Linalg
open Domains

type smear = Gradient_interval | Point_gradient

type config = { delta : float; max_regions : int; smear : smear }

let default_config =
  { delta = 1e-4; max_regions = 1_000_000; smear = Gradient_interval }

type report = {
  outcome : Common.Outcome.t;
  elapsed : float;
  regions_analyzed : int;
  max_depth : int;
}

(* What the interval backward pass needs from each layer, recorded by
   [forward] last layer first. *)
type step = Linear of Mat.t | Relu_mask of (float * float) array

(* ReluVal's forward pass: one symbolic-interval fold over the network,
   recording each linear layer's weights and each ReLU's mask interval
   (from its pre-activation bounds, biases included).  It is ReluVal's
   own fold rather than [Absint.Analyzer.propagate], so baseline work is
   not booked to Charon's spans and counters.
   @raise Failure on max pooling, which ReluVal does not support. *)
let forward net region =
  List.fold_left
    (fun (steps, sym) layer ->
      match Nn.Layer.lower layer with
      | `Linear (w, b) -> (Linear w :: steps, Symbolic.affine w b sym)
      | `Relu ->
          let mask i =
            let lo, hi = Symbolic.bounds sym i in
            if lo >= 0.0 then (1.0, 1.0)
            else if hi <= 0.0 then (0.0, 0.0)
            else (0.0, 1.0)
          in
          ( Relu_mask (Array.init (Symbolic.dim sym) mask) :: steps,
            Symbolic.relu sym )
      | `Maxpool _ -> failwith "Reluval: max pooling is not supported")
    ([], Symbolic.of_box region) net.Nn.Network.layers

type region_verdict = Proved | Violated | Split_needed

(* Bounds on [y_target - y_j]: the symbolic lower bound of
   [e_target - e_j], and the negated lower bound of [e_j - e_target]. *)
let pair_bounds out ~target ~j =
  let diff a b =
    Vec.init (Symbolic.dim out) (fun i ->
        if i = a then 1.0 else if i = b then -1.0 else 0.0)
  in
  ( Symbolic.linear_lower out ~coeffs:(diff target j),
    -.Symbolic.linear_lower out ~coeffs:(diff j target) )

let margin_bounds net region ~target ~j =
  pair_bounds (snd (forward net region)) ~target ~j

let analyze_region out ~target =
  let verdict = ref Proved in
  (try
     for j = 0 to Symbolic.dim out - 1 do
       if j <> target then begin
         let lo, hi = pair_bounds out ~target ~j in
         if hi < 0.0 then begin
           (* The whole region scores class j above the target. *)
           verdict := Violated;
           raise Exit
         end;
         if lo <= 0.0 then verdict := Split_needed
       end
     done
   with Exit -> ());
  !verdict

(* ReluVal computes *interval* gradient bounds over the whole region:
   the backward pass runs in interval arithmetic, from the target
   one-hot through [steps], with each unstable ReLU contributing the
   mask interval [0, 1].  Returns per-input magnitude upper bounds on
   |dN_target/dx_i| over the region. *)
let gradient_bounds steps ~output_dim ~target =
  let g_lo = ref (Vec.init output_dim (fun i -> if i = target then 1.0 else 0.0)) in
  let g_hi = ref (Vec.copy !g_lo) in
  List.iter
    (fun step ->
      match step with
      | Linear w ->
          (* [W^T g]: scalar-by-interval products summed per column. *)
          let n = w.Mat.cols in
          let lo = Vec.zeros n and hi = Vec.zeros n in
          for i = 0 to w.Mat.rows - 1 do
            for j = 0 to n - 1 do
              let c = Mat.get w i j in
              if c > 0.0 then begin
                lo.(j) <- lo.(j) +. (c *. !g_lo.(i));
                hi.(j) <- hi.(j) +. (c *. !g_hi.(i))
              end
              else if c < 0.0 then begin
                lo.(j) <- lo.(j) +. (c *. !g_hi.(i));
                hi.(j) <- hi.(j) +. (c *. !g_lo.(i))
              end
            done
          done;
          g_lo := lo;
          g_hi := hi
      | Relu_mask masks ->
          let n = Array.length masks in
          let lo = Vec.zeros n and hi = Vec.zeros n in
          for i = 0 to n - 1 do
            let mlo, mhi = masks.(i) in
            (* Interval product [mlo, mhi] * [g_lo, g_hi] with
               0 <= mlo <= mhi. *)
            let candidates =
              [| mlo *. !g_lo.(i); mlo *. !g_hi.(i); mhi *. !g_lo.(i);
                 mhi *. !g_hi.(i) |]
            in
            lo.(i) <- Vec.min candidates;
            hi.(i) <- Vec.max candidates
          done;
          g_lo := lo;
          g_hi := hi)
    steps;
  Vec.init (Vec.dim !g_lo) (fun i ->
      Float.max (abs_float !g_lo.(i)) (abs_float !g_hi.(i)))

let gradient_interval net region ~target =
  let steps, _ = forward net region in
  gradient_bounds steps ~output_dim:net.Nn.Network.output_dim ~target

(* ReluVal's smear split heuristic: the input dimension with the
   largest |gradient| * width product — gradient bounds over the whole
   region by default, or the cheaper point gradient at the center. *)
let smear_dim config net region steps ~target =
  let g =
    match config.smear with
    | Gradient_interval ->
        gradient_bounds steps ~output_dim:net.Nn.Network.output_dim ~target
    | Point_gradient ->
        Vec.map abs_float
          (Nn.Grad.grad_output net ~x:(Box.center region) ~k:target)
  in
  let best = ref 0 and best_score = ref neg_infinity in
  for i = 0 to Vec.dim g - 1 do
    let score = g.(i) *. Box.width region i in
    if score > !best_score then begin
      best_score := score;
      best := i
    end
  done;
  if Box.width region !best > 0.0 then !best else Box.longest_dim region

let run ?(config = default_config) ?(budget = Common.Budget.unlimited ()) net
    (prop : Common.Property.t) =
  let started = Unix.gettimeofday () in
  let regions = ref 0 and max_depth = ref 0 in
  let finish outcome =
    {
      outcome;
      elapsed = Unix.gettimeofday () -. started;
      regions_analyzed = !regions;
      max_depth = !max_depth;
    }
  in
  let target = prop.Common.Property.target in
  let objective = Optim.Objective.create net ~k:target in
  match
    let rec loop = function
      | [] -> Common.Outcome.Verified
      | (region, depth) :: rest ->
          if Common.Budget.exhausted budget || !regions >= config.max_regions
          then Common.Outcome.Timeout
          else begin
            incr regions;
            max_depth := Stdlib.max !max_depth depth;
            Common.Budget.spend budget 1;
            let steps, out = forward net region in
            let center = Box.center region in
            let refutes () =
              Optim.Objective.value objective center <= config.delta
            in
            let split_region () =
              let d = smear_dim config net region steps ~target in
              if Box.width region d > 0.0 then begin
                let a, b = Box.split region ~dim:d ~at:center.(d) in
                loop ((a, depth + 1) :: (b, depth + 1) :: rest)
              end
              else if
                (* A point region cannot be split: its centre decides
                   it, or nothing does. *)
                refutes ()
              then Common.Outcome.Refuted center
              else Common.Outcome.Unknown
            in
            match analyze_region out ~target with
            | Proved -> loop rest
            | Violated ->
                if refutes () then Common.Outcome.Refuted center
                else
                  (* Numeric corner: the symbolic bound says the whole
                     region violates but the center check disagreed.
                     Keep refining rather than dropping the region. *)
                  split_region ()
            | Split_needed -> split_region ()
          end
    in
    loop [ (prop.Common.Property.region, 0) ]
  with
  | outcome -> finish outcome
  | exception Failure _ -> finish Common.Outcome.Unknown
