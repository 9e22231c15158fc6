open Linalg

type row = (int * float) list

type stored = { coeffs : row; bound : float; kind : [ `Le | `Ge | `Eq ] }

(* An LP builder is confined to the solver call that created it; each
   worker domain builds its own. *)
type t = {
  n : int;
  lo : float array;
  hi : float array;
  mutable rows : stored list;  (** in reverse insertion order *)
}
[@@race.domain_local]

type solution =
  | Optimal of { x : Vec.t; value : float }
  | Infeasible
  | Unbounded

let create ~nvars =
  if nvars <= 0 then invalid_arg "Lp.create: nvars must be positive";
  { n = nvars; lo = Array.make nvars 0.0; hi = Array.make nvars 0.0; rows = [] }

let set_bounds t i ~lo ~hi =
  if i < 0 || i >= t.n then invalid_arg "Lp.set_bounds: variable out of range";
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Lp.set_bounds: bounds must be finite";
  if lo > hi then invalid_arg "Lp.set_bounds: lo > hi";
  t.lo.(i) <- lo;
  t.hi.(i) <- hi

let check_row t row =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= t.n then invalid_arg "Lp: row variable out of range")
    row

let add_le t row b =
  check_row t row;
  t.rows <- { coeffs = row; bound = b; kind = `Le } :: t.rows

let add_ge t row b =
  check_row t row;
  t.rows <- { coeffs = row; bound = b; kind = `Ge } :: t.rows

let add_eq t row b =
  check_row t row;
  t.rows <- { coeffs = row; bound = b; kind = `Eq } :: t.rows

(* Shift x = lo + x', densify rows, and append upper-bound rows
   x'_i <= hi_i - lo_i. *)
let compile t =
  let dense row =
    let a = Vec.zeros t.n in
    List.iter (fun (i, c) -> a.(i) <- a.(i) +. c) row;
    a
  in
  let shift_bound a b =
    (* a · (lo + x') <= b  <=>  a · x' <= b - a · lo *)
    b -. Vec.dot a t.lo
  in
  let rows = List.rev t.rows in
  let constrs =
    List.concat_map
      (fun { coeffs; bound; kind } ->
        let a = dense coeffs in
        let b = shift_bound a bound in
        match kind with
        | `Le -> [ Tableau.Le (a, b) ]
        | `Ge -> [ Tableau.Le (Vec.scale (-1.0) a, -.b) ]
        | `Eq -> [ Tableau.Eq (a, b) ])
      rows
  in
  let ub_rows =
    List.filter_map
      (fun i ->
        let w = t.hi.(i) -. t.lo.(i) in
        if w <= 0.0 then
          (* Degenerate variable: pin it with an equality. *)
          Some
            (Tableau.Eq
               ( Vec.init t.n (fun j -> if j = i then 1.0 else 0.0),
                 0.0 ))
        else
          Some
            (Tableau.Le
               ( Vec.init t.n (fun j -> if j = i then 1.0 else 0.0),
                 w )))
      (List.init t.n Fun.id)
  in
  Array.of_list (constrs @ ub_rows)

let run ?should_stop t obj ~sense =
  check_row t obj;
  let dense_obj = Vec.zeros t.n in
  List.iter (fun (i, c) -> dense_obj.(i) <- dense_obj.(i) +. c) obj;
  let constraints = compile t in
  let result =
    match sense with
    | `Max -> Tableau.maximize ?should_stop ~nvars:t.n constraints ~obj:dense_obj ()
    | `Min -> Tableau.minimize ?should_stop ~nvars:t.n constraints ~obj:dense_obj ()
  in
  match result with
  | Tableau.Infeasible -> Infeasible
  | Tableau.Unbounded -> Unbounded
  | Tableau.Optimal { x; value } ->
      let x0 = Vec.add x t.lo in
      Optimal { x = x0; value = value +. Vec.dot dense_obj t.lo }

let maximize ?should_stop t obj = run ?should_stop t obj ~sense:`Max

let minimize ?should_stop t obj = run ?should_stop t obj ~sense:`Min
