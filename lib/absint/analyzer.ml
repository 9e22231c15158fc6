open Linalg
open Domains

type verdict = Verified | Unknown

(* A [stats] record is created per analysis call and only ever mutated
   by the domain running that call; it is never shared. *)
type stats = {
  mutable peak_disjuncts : int;
  mutable peak_generators : int;
  mutable transformer_calls : int;
}
[@@race.domain_local]

let fresh_stats () =
  { peak_disjuncts = 0; peak_generators = 0; transformer_calls = 0 }

exception Out_of_budget

let c_transformer = Telemetry.Metrics.counter "absint.transformer_calls"

let c_out_of_budget = Telemetry.Metrics.counter "absint.out_of_budget"

let h_generators = Telemetry.Metrics.histogram "absint.generators"

let layer_kind = function
  | Nn.Layer.Relu -> "relu"
  | Nn.Layer.Maxpool _ -> "maxpool"
  | Nn.Layer.Affine _ -> "affine"
  | Nn.Layer.Conv _ -> "conv"
  | Nn.Layer.Avgpool _ -> "avgpool"

let propagate (type a) (module D : Domain_sig.S with type t = a) ?(jobs = 1)
    ?stats ?budget net (input : a) : a =
  (* [jobs] grants the pass ambient kernel parallelism: the generator
     GEMM inside [D.affine] picks it up through [Mat.default_jobs]
     without widening the [Domain_sig.S] interface.  Results are
     bit-identical for every value (see {!Linalg.Mat.gemm}). *)
  Mat.with_default_jobs jobs @@ fun () ->
  let poll () =
    match budget with
    | Some b when Common.Budget.exhausted b -> raise Out_of_budget
    | Some _ | None -> ()
  in
  let record (x : a) =
    match stats with
    | None -> ()
    | Some s ->
        s.transformer_calls <- s.transformer_calls + 1;
        s.peak_disjuncts <- Stdlib.max s.peak_disjuncts (D.disjuncts x);
        s.peak_generators <- Stdlib.max s.peak_generators (D.num_generators x)
  in
  let index = ref 0 in
  List.fold_left
    (fun acc layer ->
      poll ();
      Telemetry.Metrics.incr c_transformer;
      let sp = Telemetry.Span.enter "absint.layer" in
      let next =
        match Nn.Layer.lower layer with
        | `Linear (w, b) -> D.affine w b acc
        | `Relu -> D.relu acc
        | `Maxpool p -> D.maxpool p acc
      in
      record next;
      Telemetry.Metrics.observe h_generators (D.num_generators next);
      Telemetry.Span.exit sp
        ~attrs:(fun () ->
          [
            ("index", Telemetry.Jsonw.Int !index);
            ("layer", Telemetry.Jsonw.Str (layer_kind layer));
            ("generators", Telemetry.Jsonw.Int (D.num_generators next));
            ("disjuncts", Telemetry.Jsonw.Int (D.disjuncts next));
          ]);
      incr index;
      next)
    input net.Nn.Network.layers

let check_region net region =
  if Box.dim region <> net.Nn.Network.input_dim then
    invalid_arg "Analyzer: region dimension differs from network input"

let output_bounds net region spec =
  check_region net region;
  let (module D) = Domain.get spec in
  let out = propagate (module D) net (D.of_box region) in
  Array.init net.Nn.Network.output_dim (fun i -> D.bounds out i)

let margin_of (type a) (module D : Domain_sig.S with type t = a) (out : a)
    ~num_classes ~k =
  let best = ref infinity in
  for j = 0 to num_classes - 1 do
    if j <> k then begin
      let coeffs =
        Vec.init num_classes (fun i ->
            if i = k then 1.0 else if i = j then -1.0 else 0.0)
      in
      best := Stdlib.min !best (D.linear_lower out ~coeffs)
    end
  done;
  !best

let margin_lower ?jobs ?stats ?budget net region ~k spec =
  check_region net region;
  let m = net.Nn.Network.output_dim in
  if k < 0 || k >= m then invalid_arg "Analyzer: class index out of range";
  if m < 2 then invalid_arg "Analyzer: need at least two classes";
  let (module D) = Domain.get spec in
  match propagate (module D) ?jobs ?stats ?budget net (D.of_box region) with
  | out -> margin_of (module D) out ~num_classes:m ~k
  | exception Out_of_budget ->
      Telemetry.Metrics.incr c_out_of_budget;
      neg_infinity

let analyze ?jobs ?stats ?budget net region ~k spec =
  if margin_lower ?jobs ?stats ?budget net region ~k spec > 0.0 then Verified
  else Unknown
