open Domains

type config = { delta : float }

let default_config = { delta = 1e-4 }

type report = {
  outcome : Common.Outcome.t;
  elapsed : float;
  lp_calls : int;
  branches : int;
  stable_units : int;
}

(* Branch-local decision for each ReLU unit. *)
type decision = Undecided | Active | Inactive

let tol = 1e-7

(* Build the LP for one branch: network equalities plus per-unit ReLU
   constraints according to the current decisions. *)
let build_lp (enc : Encoding.t) decisions =
  let lp = Simplex.Lp.create ~nvars:enc.Encoding.nvars in
  Array.iteri
    (fun i (lo, hi) -> Simplex.Lp.set_bounds lp i ~lo ~hi)
    enc.Encoding.var_bounds;
  Array.iter
    (fun (row, b) -> Simplex.Lp.add_eq lp row b)
    enc.Encoding.equalities;
  Array.iteri
    (fun i (u : Encoding.relu_unit) ->
      let fixed =
        if u.Encoding.z_lo >= 0.0 then Active
        else if u.Encoding.z_hi <= 0.0 then Inactive
        else decisions.(i)
      in
      match fixed with
      | Active ->
          Simplex.Lp.add_eq lp [ (u.Encoding.a, 1.0); (u.Encoding.z, -1.0) ] 0.0;
          Simplex.Lp.add_ge lp [ (u.Encoding.z, 1.0) ] 0.0
      | Inactive ->
          Simplex.Lp.add_eq lp [ (u.Encoding.a, 1.0) ] 0.0;
          Simplex.Lp.add_le lp [ (u.Encoding.z, 1.0) ] 0.0
      | Undecided ->
          let l = u.Encoding.z_lo and h = u.Encoding.z_hi in
          (* Triangle relaxation: a >= 0 (from bounds), a >= z, and
             a <= h (z - l) / (h - l). *)
          Simplex.Lp.add_le lp [ (u.Encoding.z, 1.0); (u.Encoding.a, -1.0) ] 0.0;
          Simplex.Lp.add_le lp
            [ (u.Encoding.a, h -. l); (u.Encoding.z, -.h) ]
            (-.h *. l))
    enc.Encoding.relus;
  lp

let run ?(config = default_config) ?(budget = Common.Budget.unlimited ()) net
    (prop : Common.Property.t) =
  let started = Unix.gettimeofday () in
  let lp_calls = ref 0 and branches = ref 0 in
  let finish outcome stable_units =
    {
      outcome;
      elapsed = Unix.gettimeofday () -. started;
      lp_calls = !lp_calls;
      branches = !branches;
      stable_units;
    }
  in
  match Encoding.build net prop.Common.Property.region with
  | exception Encoding.Unsupported _ -> finish Common.Outcome.Unknown 0
  | enc ->
      let k = prop.Common.Property.target in
      let objective = Optim.Objective.create net ~k in
      let region = prop.Common.Property.region in
      let num_units = Array.length enc.Encoding.relus in
      (* Depth-first search over ReLU phases for one adversarial class.
         Returns [Verified] when every branch is closed. *)
      let rec dfs obj_row decisions : Common.Outcome.t =
        if Common.Budget.exhausted budget then Common.Outcome.Timeout
        else begin
          incr lp_calls;
          Common.Budget.spend budget 1;
          let should_stop () = Common.Budget.exhausted budget in
          match
            Simplex.Lp.maximize ~should_stop (build_lp enc decisions) obj_row
          with
          | exception Simplex.Tableau.Aborted -> Common.Outcome.Timeout
          | Simplex.Lp.Infeasible -> Common.Outcome.Verified
          | Simplex.Lp.Unbounded ->
              (* All variables are box-bounded, so this is unreachable. *)
              assert false
          | Simplex.Lp.Optimal { x; value } ->
              if value <= tol then Common.Outcome.Verified
              else begin
                let xin =
                  Box.clamp region
                    (Array.map (fun v -> x.(v)) enc.Encoding.input_vars)
                in
                if Optim.Objective.value objective xin <= config.delta then
                  Common.Outcome.Refuted xin
                else begin
                  (* Pick an undecided unit to branch on. *)
                  let pick = ref (-1) and worst = ref tol in
                  for i = 0 to num_units - 1 do
                    let u = enc.Encoding.relus.(i) in
                    let stable = u.Encoding.z_lo >= 0.0 || u.Encoding.z_hi <= 0.0 in
                    if decisions.(i) = Undecided && not stable then begin
                      let viol =
                        abs_float
                          (x.(u.Encoding.a) -. Float.max 0.0 x.(u.Encoding.z))
                      in
                      if viol > !worst then begin
                        worst := viol;
                        pick := i
                      end
                    end
                  done;
                  if !pick < 0 then
                    (* Fully decided (or all relaxations tight): the LP
                       optimum is exact for this linear region, but the
                       concrete check disagreed beyond delta — a
                       floating-point corner.  Close the branch. *)
                    Common.Outcome.Verified
                  else begin
                    incr branches;
                    let i = !pick in
                    let u = enc.Encoding.relus.(i) in
                    (* Explore the phase suggested by the LP point
                       first. *)
                    let first, second =
                      if x.(u.Encoding.z) >= 0.0 then (Active, Inactive)
                      else (Inactive, Active)
                    in
                    let try_phase phase =
                      let d = Array.copy decisions in
                      d.(i) <- phase;
                      dfs obj_row d
                    in
                    match try_phase first with
                    | Common.Outcome.Verified -> try_phase second
                    | other -> other
                  end
                end
              end
        end
      in
      (* Adversarial classes in descending order of their score at the
         region center: likeliest violations first. *)
      let center_scores = Nn.Network.eval net (Box.center region) in
      let classes =
        List.init net.Nn.Network.output_dim Fun.id
        |> List.filter (fun j -> j <> k)
        |> List.sort (fun a b ->
               Float.compare center_scores.(b) center_scores.(a))
      in
      let rec all_classes = function
        | [] -> Common.Outcome.Verified
        | j :: rest -> begin
            let obj_row =
              [ (enc.Encoding.output_vars.(j), 1.0);
                (enc.Encoding.output_vars.(k), -1.0) ]
            in
            match dfs obj_row (Array.make num_units Undecided) with
            | Common.Outcome.Verified -> all_classes rest
            | other -> other
          end
      in
      finish (all_classes classes) (Encoding.stable_units enc)

module Encoding = Encoding
