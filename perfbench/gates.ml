(* Verdict gates.  Every verdict the workloads receive passes through
   [check]; a non-[None] answer is a failure that the run reports by
   name and counts in [failed] — failing problems stay in the workload.

   - [Refuted x]: [x] must lie in the property's box and re-evaluate,
     with [Nn.Network.eval], to a target margin of at most δ.
   - [Verified]: seeded random samples of the box are attacked; any
     sample the network classifies otherwise disproves the verdict.
   - [Timeout] and [Unknown] are never failures. *)

let margin net target x =
  let y = Nn.Network.eval net x in
  let best_other = ref neg_infinity in
  Array.iteri (fun j v -> if j <> target && v > !best_other then best_other := v) y;
  y.(target) -. !best_other

let check ~rng ~samples ~delta net (prop : Common.Property.t) outcome =
  match outcome with
  | Common.Outcome.Refuted x ->
      if not (Domains.Box.contains prop.Common.Property.region x) then
        Some "refuted witness lies outside its box"
      else
        let m = margin net prop.Common.Property.target x in
        if m > delta then
          Some (Printf.sprintf "refuted witness has margin %g > delta %g" m delta)
        else None
  | Common.Outcome.Verified -> (
      match Common.Property.check_samples rng net prop ~n:samples with
      | Some _ -> Some "a random sample of a verified box is misclassified"
      | None -> None)
  | Common.Outcome.Timeout | Common.Outcome.Unknown -> None

(* Two answers to one problem must not contradict each other. *)
let agree ~what a b =
  if Common.Outcome.agrees a b then None
  else
    Some
      (Printf.sprintf "%s: %s contradicts the sequential %s" what
         (Common.Outcome.label a) (Common.Outcome.label b))
