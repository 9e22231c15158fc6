open Linalg

type t = { net : Nn.Network.t; k : int }

let create net ~k =
  let m = net.Nn.Network.output_dim in
  if m < 2 then invalid_arg "Objective.create: need at least two classes";
  if k < 0 || k >= m then invalid_arg "Objective.create: class out of range";
  { net; k }

let network t = t.net

type point = {
  x : Vec.t;
  trace : Vec.t array;
  value : float;
  runner_up : int;
}

let runner_up t scores =
  let best = ref (if t.k = 0 then 1 else 0) in
  Array.iteri
    (fun j s -> if j <> t.k && s > scores.(!best) then best := j)
    scores;
  !best

let eval t x =
  let trace = Nn.Network.forward_trace t.net x in
  let scores = trace.(Array.length trace - 1) in
  let j = runner_up t scores in
  { x; trace; value = scores.(t.k) -. scores.(j); runner_up = j }

let gradient t p =
  let dout =
    Vec.init t.net.Nn.Network.output_dim (fun i ->
        if i = t.k then 1.0 else if i = p.runner_up then -1.0 else 0.0)
  in
  Nn.Grad.backward t.net ~trace:p.trace ~dout

let value t x = (eval t x).value

let value_grad t x =
  let p = eval t x in
  (p.value, gradient t p)

let is_counterexample t x = value t x <= 0.0

let is_delta_counterexample t ~delta x = value t x <= delta
