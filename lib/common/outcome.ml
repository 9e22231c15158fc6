type t = Verified | Refuted of Linalg.Vec.t | Timeout | Unknown

let is_solved = function
  | Verified | Refuted _ -> true
  | Timeout | Unknown -> false

let label = function
  | Verified -> "verified"
  | Refuted _ -> "falsified"
  | Timeout -> "timeout"
  | Unknown -> "unknown"

let pp fmt t =
  match t with
  | Refuted x -> Format.fprintf fmt "falsified at %a" Linalg.Vec.pp x
  | Verified | Timeout | Unknown -> Format.pp_print_string fmt (label t)

let agrees a b =
  match (a, b) with
  | Verified, Refuted _ | Refuted _, Verified -> false
  | _ -> true

let settle settled incoming =
  match (settled, incoming) with
  | None, _ | Some (Timeout | Unknown), Refuted _ -> Some incoming
  | Some _, _ -> settled
