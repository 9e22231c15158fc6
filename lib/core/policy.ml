open Linalg
open Domains

type linear = { theta_domain : Mat.t; theta_partition : Mat.t }

type t =
  | Linear of linear
  | Custom of {
      name : string;
      domain : Features.input -> Domain.spec;
      split : Features.input -> int * float;
    }

let num_params = (Select.domain_dim + Select.partition_dim) * Features.dim

let of_vector v =
  if Vec.dim v <> num_params then
    invalid_arg
      (Printf.sprintf "Policy.of_vector: expected %d params, got %d" num_params
         (Vec.dim v));
  let f = Features.dim in
  let theta_domain = Mat.init Select.domain_dim f (fun i j -> v.((i * f) + j)) in
  let off = Select.domain_dim * f in
  let theta_partition =
    Mat.init Select.partition_dim f (fun i j -> v.(off + (i * f) + j))
  in
  Linear { theta_domain; theta_partition }

let to_vector = function
  | Custom _ -> None
  | Linear { theta_domain; theta_partition } ->
      Some (Array.append theta_domain.Mat.data theta_partition.Mat.data)

let default =
  Custom
    {
      name = "default";
      domain =
        (fun input ->
          (* The closer x* is to violating the property, the more
             precision we buy. *)
          let f = input.Features.fstar in
          if f > 1.0 then Domain.zonotope
          else if f > 0.25 then Domain.powerset Domain.Zonotope_base 2
          else Domain.powerset Domain.Zonotope_base 4);
      split =
        (fun input ->
          let region = input.Features.region in
          let d = Box.longest_dim region in
          let center = Box.center region in
          let at =
            center.(d) +. (0.5 *. (input.Features.xstar.(d) -. center.(d)))
          in
          (d, at));
    }

let fixed_domain spec =
  Custom
    {
      name = "fixed-" ^ Domain.to_string spec;
      domain = (fun _ -> spec);
      split =
        (fun input ->
          let region = input.Features.region in
          let d = Box.longest_dim region in
          let center = Box.center region in
          (d, center.(d)));
    }

let choose_domain t input =
  match t with
  | Custom { domain; _ } -> domain input
  | Linear { theta_domain; _ } ->
      Select.domain_of_vector (Mat.matvec theta_domain (Features.compute input))

let choose_split t input =
  match t with
  | Custom { split; _ } -> split input
  | Linear { theta_partition; _ } ->
      Select.partition_of_vector input
        (Mat.matvec theta_partition (Features.compute input))

let save path t =
  match to_vector t with
  | None -> invalid_arg "Policy.save: cannot persist a hand-written policy"
  | Some v ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc "charon-policy 1\n";
          Array.iter (fun x -> output_string oc (Printf.sprintf "%.17g\n" x)) v)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header = input_line ic in
      if header <> "charon-policy 1" then
        failwith "Policy.load: unrecognized header";
      let params =
        Array.init num_params (fun _ ->
            let line = input_line ic in
            match float_of_string_opt (String.trim line) with
            | Some x -> x
            | None -> failwith "Policy.load: malformed parameter line")
      in
      of_vector params)
