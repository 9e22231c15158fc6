open Linalg

(* One walk over the network, shared by the text format and the digest:
   the two differ only in how a float array is written.  Headers are
   the same text in both. *)
let render ~add_floats net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "network %d\n" net.Network.input_dim);
  List.iter
    (fun layer ->
      (match layer with
      | Layer.Affine { w; b } ->
          Buffer.add_string buf (Printf.sprintf "affine %d %d" w.Mat.rows w.Mat.cols);
          add_floats buf w.Mat.data;
          add_floats buf b
      | Layer.Relu -> Buffer.add_string buf "relu"
      | Layer.Conv c ->
          Buffer.add_string buf
            (Printf.sprintf "conv %d %d %d %d %d %d %d" c.Conv.input.Shape.channels
               c.Conv.input.Shape.height c.Conv.input.Shape.width c.Conv.out_channels
               c.Conv.kernel c.Conv.stride c.Conv.padding);
          add_floats buf c.Conv.weights;
          add_floats buf c.Conv.bias
      | Layer.Maxpool p ->
          Buffer.add_string buf
            (Printf.sprintf "maxpool %d %d %d %d %d" p.Pool.input.Shape.channels
               p.Pool.input.Shape.height p.Pool.input.Shape.width p.Pool.kernel
               p.Pool.stride)
      | Layer.Avgpool p ->
          Buffer.add_string buf
            (Printf.sprintf "avgpool %d %d %d %d %d"
               p.Avgpool.input.Shape.channels p.Avgpool.input.Shape.height
               p.Avgpool.input.Shape.width p.Avgpool.kernel p.Avgpool.stride));
      Buffer.add_char buf '\n')
    net.Network.layers;
  Buffer.add_string buf "end\n";
  buf

let to_string net =
  Buffer.contents
    (render net ~add_floats:(fun buf a ->
         Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf " %.17g" x)) a))

(* Each array is its length, then the IEEE bits of its entries, all
   little-endian int64: fixed-width, so the encoding decodes back to
   the structure and the bits, and two nets share a digest only when
   both are equal. *)
let digest net =
  Digest.string
    (Buffer.contents
       (render net ~add_floats:(fun buf a ->
            Buffer.add_int64_le buf (Int64.of_int (Array.length a));
            Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) a)))

(* A cursor over the whitespace-separated tokens of the text, scanned
   in place; a cursor is local to one [of_string] call on one
   domain. *)
type cursor = { text : string; mutable pos : int }
[@@race.domain_local]

let is_space = function ' ' | '\t' | '\n' -> true | _ -> false

let next c =
  let s = c.text in
  let n = String.length s in
  let i = ref c.pos in
  while !i < n && is_space s.[!i] do incr i done;
  if !i >= n then failwith "Serial: unexpected end of input";
  let start = !i in
  while !i < n && not (is_space s.[!i]) do incr i done;
  c.pos <- !i;
  String.sub s start (!i - start)

let next_int c =
  let t = next c in
  match int_of_string_opt t with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Serial: expected integer, got %S" t)

let next_float c =
  let t = next c in
  match float_of_string_opt t with
  | Some x -> x
  | None -> failwith (Printf.sprintf "Serial: expected float, got %S" t)

let next_floats c n = Array.init n (fun _ -> next_float c)

let expect c tok =
  let t = next c in
  if t <> tok then failwith (Printf.sprintf "Serial: expected %S, got %S" tok t)

let read_shape c =
  let channels = next_int c in
  let height = next_int c in
  let width = next_int c in
  Shape.create ~channels ~height ~width

let of_string s =
  let c = { text = s; pos = 0 } in
  expect c "network";
  let input_dim = next_int c in
  let rec layers acc =
    match next c with
    | "end" -> List.rev acc
    | "relu" -> layers (Layer.Relu :: acc)
    | "affine" ->
        let rows = next_int c in
        let cols = next_int c in
        let w = { Mat.rows; cols; data = next_floats c (rows * cols) } in
        let b = next_floats c rows in
        layers (Layer.affine w b :: acc)
    | "conv" ->
        let input = read_shape c in
        let out_channels = next_int c in
        let kernel = next_int c in
        let stride = next_int c in
        let padding = next_int c in
        let count = out_channels * input.Shape.channels * kernel * kernel in
        let weights = next_floats c count in
        let bias = next_floats c out_channels in
        layers
          (Layer.Conv
             (Conv.create ~input ~out_channels ~kernel ~stride ~padding
                ~weights ~bias)
          :: acc)
    | "maxpool" ->
        let input = read_shape c in
        let kernel = next_int c in
        let stride = next_int c in
        layers (Layer.Maxpool (Pool.create ~input ~kernel ~stride) :: acc)
    | "avgpool" ->
        let input = read_shape c in
        let kernel = next_int c in
        let stride = next_int c in
        layers (Layer.Avgpool (Avgpool.create ~input ~kernel ~stride) :: acc)
    | tok -> failwith (Printf.sprintf "Serial: unknown layer kind %S" tok)
  in
  Network.create ~input_dim (layers [])

let save path net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string net))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
