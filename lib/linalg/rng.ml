(* One stream per owner — parallel workers get their own stream via
   [split] at push time and never touch the parent's. *)
type t = { mutable state : int64 } [@@race.domain_local]

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = s }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     small bounds used in this project, but we still mask to 62 bits to
     stay non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let u = float_of_int bits /. 9007199254740992.0 in
  u *. x

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let gaussian t =
  (* Box-Muller; we draw until u1 is nonzero to avoid log 0. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. Stdlib.log u1) *. cos (2.0 *. Float.pi *. u2)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
