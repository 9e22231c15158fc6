open Linalg
open Domains

type relu_unit = { z : int; a : int; z_lo : float; z_hi : float }

type t = {
  nvars : int;
  input_vars : int array;
  output_vars : int array;
  relus : relu_unit array;
  var_bounds : (float * float) array;
  equalities : (Simplex.Lp.row * float) array;
}

exception Unsupported of string

let build net region =
  if Box.dim region <> net.Nn.Network.input_dim then
    invalid_arg "Encoding.build: region dimension mismatch";
  let bounds = ref [] in
  let equalities = ref [] in
  let relus = ref [] in
  let next = ref 0 in
  let alloc (lo, hi) =
    let v = !next in
    incr next;
    bounds := (lo, hi) :: !bounds;
    v
  in
  (* The current segment: variable indices plus their interval bounds. *)
  let seg_vars =
    Array.init (Box.dim region) (fun i ->
        alloc (region.Box.lo.(i), region.Box.hi.(i)))
  in
  let input_vars = Array.copy seg_vars in
  let seg_itv =
    ref (Interval.of_bounds ~lo:region.Box.lo ~hi:region.Box.hi)
  in
  let seg_vars = ref seg_vars in
  List.iter
    (fun layer ->
      match Nn.Layer.lower layer with
      | `Linear (w, b) ->
          let itv' = Interval.affine w b !seg_itv in
          let vars' =
            Array.init w.Mat.rows (fun r -> alloc (Interval.bounds itv' r))
          in
          (* z_r - Σ_c w_rc x_c = b_r *)
          for r = 0 to w.Mat.rows - 1 do
            let row = ref [ (vars'.(r), 1.0) ] in
            for c = 0 to w.Mat.cols - 1 do
              let wrc = Mat.get w r c in
              if wrc <> 0.0 then row := (!seg_vars.(c), -.wrc) :: !row
            done;
            equalities := (!row, b.(r)) :: !equalities
          done;
          seg_itv := itv';
          seg_vars := vars'
      | `Maxpool _ ->
          raise (Unsupported "max pooling is not supported by the LP encoding")
      | `Relu ->
          let itv' = Interval.relu !seg_itv in
          let vars' =
            Array.init (Interval.dim itv') (fun i -> alloc (Interval.bounds itv' i))
          in
          Array.iteri
            (fun i z ->
              let z_lo, z_hi = Interval.bounds !seg_itv i in
              relus := { z; a = vars'.(i); z_lo; z_hi } :: !relus)
            !seg_vars;
          seg_itv := itv';
          seg_vars := vars')
    net.Nn.Network.layers;
  {
    nvars = !next;
    input_vars;
    output_vars = !seg_vars;
    relus = Array.of_list (List.rev !relus);
    var_bounds = Array.of_list (List.rev !bounds);
    equalities = Array.of_list (List.rev !equalities);
  }

let stable_units t =
  Array.fold_left
    (fun acc u -> if u.z_lo >= 0.0 || u.z_hi <= 0.0 then acc + 1 else acc)
    0 t.relus
