let erf x =
  (* Abramowitz & Stegun 7.1.26. *)
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = abs_float x in
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429
  and p = 0.3275911 in
  let t = 1.0 /. (1.0 +. (p *. x)) in
  let poly = ((((a5 *. t +. a4) *. t +. a3) *. t +. a2) *. t +. a1) *. t in
  sign *. (1.0 -. (poly *. exp (-.x *. x)))

let normal_pdf x = exp (-0.5 *. x *. x) /. sqrt (2.0 *. Float.pi)

let normal_cdf x = 0.5 *. (1.0 +. erf (x /. sqrt 2.0))
