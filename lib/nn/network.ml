open Linalg

type t = { layers : Layer.t list; input_dim : int; output_dim : int }

let create ~input_dim layers =
  if layers = [] then invalid_arg "Network.create: no layers";
  if input_dim <= 0 then invalid_arg "Network.create: input_dim must be positive";
  let output_dim =
    List.fold_left
      (fun dim layer ->
        match Layer.input_dim layer with
        | Some d when d <> dim ->
            invalid_arg
              (Printf.sprintf
                 "Network.create: layer '%s' expects input dim %d, got %d"
                 (Layer.describe layer) d dim)
        | Some _ | None -> Layer.output_dim ~given:dim layer)
      input_dim layers
  in
  { layers; input_dim; output_dim }

let eval t x =
  if Vec.dim x <> t.input_dim then
    invalid_arg "Network.eval: input dimension mismatch";
  List.fold_left (fun acc layer -> Layer.forward layer acc) x t.layers

let classify t x = Vec.argmax (eval t x)

let forward_trace t x =
  if Vec.dim x <> t.input_dim then
    invalid_arg "Network.forward_trace: input dimension mismatch";
  let rec go acc x = function
    | [] -> List.rev (x :: acc)
    | layer :: rest -> go (x :: acc) (Layer.forward layer x) rest
  in
  Array.of_list (go [] x t.layers)

let num_layers t = List.length t.layers

let num_parameters t =
  List.fold_left
    (fun acc layer ->
      match layer with
      | Layer.Affine { w; b } -> acc + (w.Mat.rows * w.Mat.cols) + Vec.dim b
      | Layer.Conv c -> acc + Array.length c.Conv.weights + Vec.dim c.Conv.bias
      | Layer.Relu | Layer.Maxpool _ | Layer.Avgpool _ -> acc)
    0 t.layers

let num_relu_units t =
  let dim = ref t.input_dim in
  List.fold_left
    (fun acc layer ->
      let acc = match layer with Layer.Relu -> acc + !dim | _ -> acc in
      dim := Layer.output_dim ~given:!dim layer;
      acc)
    0 t.layers

let lipschitz_upper t =
  (* A linear layer's sup-norm operator norm is its largest absolute row
     sum; ReLU and max pooling are 1-Lipschitz. *)
  List.fold_left
    (fun acc layer ->
      match Layer.lower layer with
      | `Linear (w, _) -> acc *. Vec.max (Mat.abs_row_sums w)
      | `Relu | `Maxpool _ -> acc)
    1.0 t.layers

let describe t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "network: %d -> %d (%d layers, %d params)\n" t.input_dim
       t.output_dim (num_layers t) (num_parameters t));
  List.iter
    (fun layer -> Buffer.add_string b ("  " ^ Layer.describe layer ^ "\n"))
    t.layers;
  Buffer.contents b

let map_affine t fw fb =
  let layers =
    List.map
      (fun layer ->
        match layer with
        | Layer.Affine { w; b } -> Layer.affine (fw w) (fb b)
        | Layer.Relu | Layer.Conv _ | Layer.Maxpool _ | Layer.Avgpool _ ->
            layer)
      t.layers
  in
  create ~input_dim:t.input_dim layers
