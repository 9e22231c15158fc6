open Linalg

(* Row i of [lo_w] / [lo_b] is an affine lower bound for neuron i over
   [box]; [up_w] / [up_b] bound it from above. *)
type t = {
  box : Box.t;
  lo_w : Mat.t;
  lo_b : Vec.t;
  up_w : Mat.t;
  up_b : Vec.t;
}

let name = "symbolic-interval"

let of_box box =
  let n = Box.dim box in
  {
    box;
    lo_w = Mat.identity n;
    lo_b = Vec.zeros n;
    up_w = Mat.identity n;
    up_b = Vec.zeros n;
  }

let dim t = t.lo_w.Mat.rows

(* The input space the forms refer to changes after an interval-hull
   fallback. *)
let forms_dim t = Box.dim t.box

let form_min box w_row b =
  let acc = ref b in
  Array.iteri
    (fun j c ->
      acc := !acc +. if c >= 0.0 then c *. box.Box.lo.(j) else c *. box.Box.hi.(j))
    w_row;
  !acc

let form_max box w_row b =
  let acc = ref b in
  Array.iteri
    (fun j c ->
      acc := !acc +. if c >= 0.0 then c *. box.Box.hi.(j) else c *. box.Box.lo.(j))
    w_row;
  !acc

let bounds t i =
  ( form_min t.box (Mat.row t.lo_w i) t.lo_b.(i),
    form_max t.box (Mat.row t.up_w i) t.up_b.(i) )

let to_box t =
  let n = dim t in
  let lo = Vec.zeros n and hi = Vec.zeros n in
  for i = 0 to n - 1 do
    let l, h = bounds t i in
    lo.(i) <- l;
    hi.(i) <- h
  done;
  Box.create ~lo ~hi

let linear_lower t ~coeffs =
  if Vec.dim coeffs <> dim t then
    invalid_arg "Symbolic.linear_lower: dimension mismatch";
  (* Combine the lower form for positive coefficients with the upper
     form for negative ones, then minimize the combined affine form over
     the box: strictly tighter than combining concretized bounds. *)
  let n = forms_dim t in
  let w = Vec.zeros n in
  let b = ref 0.0 in
  Array.iteri
    (fun i c ->
      if c > 0.0 then begin
        for j = 0 to n - 1 do
          w.(j) <- w.(j) +. (c *. Mat.get t.lo_w i j)
        done;
        b := !b +. (c *. t.lo_b.(i))
      end
      else if c < 0.0 then begin
        for j = 0 to n - 1 do
          w.(j) <- w.(j) +. (c *. Mat.get t.up_w i j)
        done;
        b := !b +. (c *. t.up_b.(i))
      end)
    coeffs;
  form_min t.box w !b

let affine wm bv t =
  if wm.Mat.cols <> dim t then invalid_arg "Symbolic.affine: dimension mismatch";
  let n = forms_dim t in
  let rows = wm.Mat.rows in
  let lo_w = Mat.zeros rows n and up_w = Mat.zeros rows n in
  let lo_b = Vec.zeros rows and up_b = Vec.zeros rows in
  for r = 0 to rows - 1 do
    let lb = ref bv.(r) and ub = ref bv.(r) in
    for c = 0 to wm.Mat.cols - 1 do
      let wrc = Mat.get wm r c in
      if wrc > 0.0 then begin
        for j = 0 to n - 1 do
          Mat.set lo_w r j (Mat.get lo_w r j +. (wrc *. Mat.get t.lo_w c j));
          Mat.set up_w r j (Mat.get up_w r j +. (wrc *. Mat.get t.up_w c j))
        done;
        lb := !lb +. (wrc *. t.lo_b.(c));
        ub := !ub +. (wrc *. t.up_b.(c))
      end
      else if wrc < 0.0 then begin
        for j = 0 to n - 1 do
          Mat.set lo_w r j (Mat.get lo_w r j +. (wrc *. Mat.get t.up_w c j));
          Mat.set up_w r j (Mat.get up_w r j +. (wrc *. Mat.get t.lo_w c j))
        done;
        lb := !lb +. (wrc *. t.up_b.(c));
        ub := !ub +. (wrc *. t.lo_b.(c))
      end
    done;
    lo_b.(r) <- !lb;
    up_b.(r) <- !ub
  done;
  { t with lo_w; lo_b; up_w; up_b }

let scale_row w b i s =
  for j = 0 to w.Mat.cols - 1 do
    Mat.set w i j (s *. Mat.get w i j)
  done;
  b.(i) <- s *. b.(i)

let zero_row w b i =
  for j = 0 to w.Mat.cols - 1 do
    Mat.set w i j 0.0
  done;
  b.(i) <- 0.0

let relu t =
  let lo_w = Mat.copy t.lo_w and up_w = Mat.copy t.up_w in
  let lo_b = Vec.copy t.lo_b and up_b = Vec.copy t.up_b in
  for i = 0 to dim t - 1 do
    let l_lo = form_min t.box (Mat.row t.lo_w i) t.lo_b.(i) in
    let u_up = form_max t.box (Mat.row t.up_w i) t.up_b.(i) in
    if l_lo >= 0.0 then ()
    else if u_up <= 0.0 then begin
      zero_row lo_w lo_b i;
      zero_row up_w up_b i
    end
    else begin
      let l_up = form_min t.box (Mat.row t.up_w i) t.up_b.(i) in
      if l_up < 0.0 then begin
        let s = u_up /. (u_up -. l_up) in
        scale_row up_w up_b i s;
        up_b.(i) <- up_b.(i) -. (s *. l_up)
      end;
      let u_lo = form_max t.box (Mat.row t.lo_w i) t.lo_b.(i) in
      if u_lo <= 0.0 then zero_row lo_w lo_b i
      else begin
        let s = u_lo /. (u_lo -. l_lo) in
        scale_row lo_w lo_b i s
      end
    end
  done;
  { t with lo_w; lo_b; up_w; up_b }

(* Relational information cannot survive max pooling or joins in this
   representation; restart from the interval hull. *)
let maxpool p t = of_box (Interval.to_box (Interval.maxpool p (Interval.of_box (to_box t))))

let join a b = of_box (Box.hull (to_box a) (to_box b))

let sample rng t =
  (* Any point between the two forms evaluated at the same input is in
     the concretization. *)
  let x = Box.sample rng t.box in
  Vec.init (dim t) (fun i ->
      let lo = t.lo_b.(i) +. Vec.dot (Mat.row t.lo_w i) x in
      let hi = t.up_b.(i) +. Vec.dot (Mat.row t.up_w i) x in
      if hi > lo then Rng.uniform rng ~lo ~hi else lo)

let disjuncts _ = 1

let num_generators t = forms_dim t
