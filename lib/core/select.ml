open Linalg
open Domains

let domain_dim = 2

let partition_dim = 3

let clip01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let domain_of_vector v =
  if Vec.dim v <> domain_dim then
    invalid_arg "Select.domain_of_vector: expected a 2-vector";
  let base =
    if clip01 v.(0) < 0.5 then Domain.Interval_base else Domain.Zonotope_base
  in
  let k_raw = clip01 v.(1) in
  let disjuncts = if k_raw < 1.0 /. 3.0 then 1 else if k_raw < 2.0 /. 3.0 then 2 else 4 in
  Domain.powerset base disjuncts

(* The input dimension with the largest influence on the target score:
   |∂N(xstar)_K/∂x_i| times the region's width in dimension [i], the
   ReluVal-style influence measure of §6. *)
let influence_dim (input : Features.input) =
  let g =
    Nn.Grad.grad_output input.Features.net ~x:input.Features.xstar
      ~k:input.Features.target
  in
  let region = input.Features.region in
  let best = ref 0 and best_score = ref neg_infinity in
  for i = 0 to Vec.dim g - 1 do
    let score = abs_float g.(i) *. Box.width region i in
    if score > !best_score then begin
      best_score := score;
      best := i
    end
  done;
  !best

let partition_of_vector (input : Features.input) v =
  if Vec.dim v <> partition_dim then
    invalid_arg "Select.partition_of_vector: expected a 3-vector";
  let region = input.Features.region in
  let longest = Box.longest_dim region in
  let chosen =
    if clip01 v.(0) >= clip01 v.(1) then longest else influence_dim input
  in
  let dim = if Box.width region chosen > 0.0 then chosen else longest in
  let ratio = clip01 v.(2) in
  let center = Box.center region in
  let at = center.(dim) +. (ratio *. (input.Features.xstar.(dim) -. center.(dim))) in
  (dim, at)
