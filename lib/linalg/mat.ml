type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then invalid_arg "Mat.of_rows: no rows";
  let c = Array.length rows.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Mat.of_rows: ragged rows")
    rows;
  init r c (fun i j -> rows.(i).(j))

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> get m i j)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  let n = Array.length a.data in
  let data = Array.make n 0.0 in
  let ad = a.data and bd = b.data in
  for i = 0 to n - 1 do
    Array.unsafe_set data i
      (Array.unsafe_get ad i +. Array.unsafe_get bd i)
  done;
  { a with data }

let sub a b =
  check_same "sub" a b;
  let n = Array.length a.data in
  let data = Array.make n 0.0 in
  let ad = a.data and bd = b.data in
  for i = 0 to n - 1 do
    Array.unsafe_set data i
      (Array.unsafe_get ad i -. Array.unsafe_get bd i)
  done;
  { a with data }

let add_into a b ~into =
  check_same "add_into" a b;
  check_same "add_into" a into;
  let ad = a.data and bd = b.data and dst = into.data in
  for i = 0 to Array.length ad - 1 do
    Array.unsafe_set dst i (Array.unsafe_get ad i +. Array.unsafe_get bd i)
  done

let scale c a = { a with data = Array.map (fun x -> c *. x) a.data }

let scale_inplace c a =
  let d = a.data in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (c *. Array.unsafe_get d i)
  done

let axpy alpha x y =
  check_same "axpy" x y;
  let xd = x.data and yd = y.data in
  for i = 0 to Array.length xd - 1 do
    Array.unsafe_set yd i
      ((alpha *. Array.unsafe_get xd i) +. Array.unsafe_get yd i)
  done

let matvec m x =
  if m.cols <> Array.length x then
    invalid_arg
      (Printf.sprintf "Mat.matvec: %dx%d with vector of dim %d" m.rows m.cols
         (Array.length x));
  let y = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let matvec_t m x =
  if m.rows <> Array.length x then
    invalid_arg
      (Printf.sprintf "Mat.matvec_t: %dx%d with vector of dim %d" m.rows
         m.cols (Array.length x));
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (m.data.(base + j) *. xi)
      done
  done;
  y

(* ------------------------------------------------------------------ *)
(* Batched GEMM.

   [gemm] computes [c <- alpha * op(a) * op(b) + beta * c] where [op]
   is the identity or the transpose.  Two register-tiled inner kernels
   cover the storage layouts without ever packing [b]:

   - [B^T] products ([transb]) use a 4x4 tile of dot products — both
     operands are then streamed along contiguous rows, so the hot
     zonotope case [G W^T] (and single-row layer forwards) needs no
     transpose copy at all;
   - plain products use a 4x4 tile that broadcasts [a] values over
     contiguous row segments of [b].

   Each tile is unrolled twice over the inner dimension: 16
   accumulators live in unboxed float cells while 16 operand loads feed
   32 multiply-adds per unrolled step, instead of the 1 load : 1
   multiply ratio of a row-at-a-time matvec sweep.  A transposed [a] is
   packed once into a contiguous buffer (O(m*k), amortized over all of
   [n]).  Outer loops block the [n] and [k] dimensions so the streamed
   panel of [b] stays cache-resident for every row block of [a]. *)

(* Transpose staging for [transa]: writes [m]^T into [t] (a scratch
   borrow of exactly [rows * cols] floats, so no allocation on the hot
   path). *)
let transpose_into m t =
  let r = m.rows and c = m.cols in
  for i = 0 to r - 1 do
    let base = i * c in
    for j = 0 to c - 1 do
      Array.unsafe_set t ((j * r) + i) (Array.unsafe_get m.data (base + j))
    done
  done

(* Blocking parameters: a [block_n]-wide panel of [b] over [block_k]
   inner steps is ~512KB of doubles, sized to stay within L2 (and to
   keep the inner dimension of typical verifier layers in one block, so
   accumulator tiles are loaded and flushed only once per output). *)
let block_n = 128

let block_k = 512

(* cd (m x n) += alpha * ad (m x k, row-major) * bd^T, where bd holds
   n rows of length k.  Every row is streamed contiguously. *)
let gemm_nt ~m ~n ~k ~alpha ad bd cd =
  (* Dot-product edge kernel for tile remainders. *)
  let edge i_lo i_hi j_lo j_hi p_lo p_hi =
    for i = i_lo to i_hi - 1 do
      let abase = i * k and cbase = i * n in
      for j = j_lo to j_hi - 1 do
        let bbase = j * k in
        let acc = ref 0.0 in
        for p = p_lo to p_hi - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get ad (abase + p)
                *. Array.unsafe_get bd (bbase + p))
        done;
        Array.unsafe_set cd (cbase + j)
          (Array.unsafe_get cd (cbase + j) +. (alpha *. !acc))
      done
    done
  in
  let tile4x4 i0 j0 p_lo p_hi =
    let r0 = i0 * k and r1 = (i0 + 1) * k
    and r2 = (i0 + 2) * k and r3 = (i0 + 3) * k in
    let s0 = j0 * k and s1 = (j0 + 1) * k
    and s2 = (j0 + 2) * k and s3 = (j0 + 3) * k in
    let c00 = ref 0.0 and c01 = ref 0.0 and c02 = ref 0.0 and c03 = ref 0.0
    and c10 = ref 0.0 and c11 = ref 0.0 and c12 = ref 0.0 and c13 = ref 0.0
    and c20 = ref 0.0 and c21 = ref 0.0 and c22 = ref 0.0 and c23 = ref 0.0
    and c30 = ref 0.0 and c31 = ref 0.0 and c32 = ref 0.0 and c33 = ref 0.0
    in
    (* 4-way k-unroll: without flambda each accumulator [:=] is a heap
       store, so folding four multiply-adds into one update quarters
       the accumulator traffic per flop.  The tile is processed as two
       2x4 halves so only ~12 float values are live at once (8 hoisted
       [a] values plus one [b] quad) — a full 4x4 body keeps 32 values
       live against 16 xmm registers and spills.  Products are summed
       as a tree to keep the accumulator dependency chain one add
       deep. *)
    let p = ref p_lo in
    while !p + 3 < p_hi do
      let pa = !p in
      (* Rows i0, i0+1. *)
      let a00 = Array.unsafe_get ad (r0 + pa)
      and a01 = Array.unsafe_get ad (r0 + pa + 1)
      and a02 = Array.unsafe_get ad (r0 + pa + 2)
      and a03 = Array.unsafe_get ad (r0 + pa + 3)
      and a10 = Array.unsafe_get ad (r1 + pa)
      and a11 = Array.unsafe_get ad (r1 + pa + 1)
      and a12 = Array.unsafe_get ad (r1 + pa + 2)
      and a13 = Array.unsafe_get ad (r1 + pa + 3) in
      (let b0 = Array.unsafe_get bd (s0 + pa)
       and b1 = Array.unsafe_get bd (s0 + pa + 1)
       and b2 = Array.unsafe_get bd (s0 + pa + 2)
       and b3 = Array.unsafe_get bd (s0 + pa + 3) in
       c00 := !c00 +. (((a00 *. b0) +. (a01 *. b1)) +. ((a02 *. b2) +. (a03 *. b3)));
       c10 := !c10 +. (((a10 *. b0) +. (a11 *. b1)) +. ((a12 *. b2) +. (a13 *. b3))));
      (let b0 = Array.unsafe_get bd (s1 + pa)
       and b1 = Array.unsafe_get bd (s1 + pa + 1)
       and b2 = Array.unsafe_get bd (s1 + pa + 2)
       and b3 = Array.unsafe_get bd (s1 + pa + 3) in
       c01 := !c01 +. (((a00 *. b0) +. (a01 *. b1)) +. ((a02 *. b2) +. (a03 *. b3)));
       c11 := !c11 +. (((a10 *. b0) +. (a11 *. b1)) +. ((a12 *. b2) +. (a13 *. b3))));
      (let b0 = Array.unsafe_get bd (s2 + pa)
       and b1 = Array.unsafe_get bd (s2 + pa + 1)
       and b2 = Array.unsafe_get bd (s2 + pa + 2)
       and b3 = Array.unsafe_get bd (s2 + pa + 3) in
       c02 := !c02 +. (((a00 *. b0) +. (a01 *. b1)) +. ((a02 *. b2) +. (a03 *. b3)));
       c12 := !c12 +. (((a10 *. b0) +. (a11 *. b1)) +. ((a12 *. b2) +. (a13 *. b3))));
      (let b0 = Array.unsafe_get bd (s3 + pa)
       and b1 = Array.unsafe_get bd (s3 + pa + 1)
       and b2 = Array.unsafe_get bd (s3 + pa + 2)
       and b3 = Array.unsafe_get bd (s3 + pa + 3) in
       c03 := !c03 +. (((a00 *. b0) +. (a01 *. b1)) +. ((a02 *. b2) +. (a03 *. b3)));
       c13 := !c13 +. (((a10 *. b0) +. (a11 *. b1)) +. ((a12 *. b2) +. (a13 *. b3))));
      (* Rows i0+2, i0+3. *)
      let a20 = Array.unsafe_get ad (r2 + pa)
      and a21 = Array.unsafe_get ad (r2 + pa + 1)
      and a22 = Array.unsafe_get ad (r2 + pa + 2)
      and a23 = Array.unsafe_get ad (r2 + pa + 3)
      and a30 = Array.unsafe_get ad (r3 + pa)
      and a31 = Array.unsafe_get ad (r3 + pa + 1)
      and a32 = Array.unsafe_get ad (r3 + pa + 2)
      and a33 = Array.unsafe_get ad (r3 + pa + 3) in
      (let b0 = Array.unsafe_get bd (s0 + pa)
       and b1 = Array.unsafe_get bd (s0 + pa + 1)
       and b2 = Array.unsafe_get bd (s0 + pa + 2)
       and b3 = Array.unsafe_get bd (s0 + pa + 3) in
       c20 := !c20 +. (((a20 *. b0) +. (a21 *. b1)) +. ((a22 *. b2) +. (a23 *. b3)));
       c30 := !c30 +. (((a30 *. b0) +. (a31 *. b1)) +. ((a32 *. b2) +. (a33 *. b3))));
      (let b0 = Array.unsafe_get bd (s1 + pa)
       and b1 = Array.unsafe_get bd (s1 + pa + 1)
       and b2 = Array.unsafe_get bd (s1 + pa + 2)
       and b3 = Array.unsafe_get bd (s1 + pa + 3) in
       c21 := !c21 +. (((a20 *. b0) +. (a21 *. b1)) +. ((a22 *. b2) +. (a23 *. b3)));
       c31 := !c31 +. (((a30 *. b0) +. (a31 *. b1)) +. ((a32 *. b2) +. (a33 *. b3))));
      (let b0 = Array.unsafe_get bd (s2 + pa)
       and b1 = Array.unsafe_get bd (s2 + pa + 1)
       and b2 = Array.unsafe_get bd (s2 + pa + 2)
       and b3 = Array.unsafe_get bd (s2 + pa + 3) in
       c22 := !c22 +. (((a20 *. b0) +. (a21 *. b1)) +. ((a22 *. b2) +. (a23 *. b3)));
       c32 := !c32 +. (((a30 *. b0) +. (a31 *. b1)) +. ((a32 *. b2) +. (a33 *. b3))));
      (let b0 = Array.unsafe_get bd (s3 + pa)
       and b1 = Array.unsafe_get bd (s3 + pa + 1)
       and b2 = Array.unsafe_get bd (s3 + pa + 2)
       and b3 = Array.unsafe_get bd (s3 + pa + 3) in
       c23 := !c23 +. (((a20 *. b0) +. (a21 *. b1)) +. ((a22 *. b2) +. (a23 *. b3)));
       c33 := !c33 +. (((a30 *. b0) +. (a31 *. b1)) +. ((a32 *. b2) +. (a33 *. b3))));
      p := !p + 4
    done;
    while !p < p_hi do
      let pa = !p in
      let a0 = Array.unsafe_get ad (r0 + pa)
      and a1 = Array.unsafe_get ad (r1 + pa)
      and a2 = Array.unsafe_get ad (r2 + pa)
      and a3 = Array.unsafe_get ad (r3 + pa) in
      let b0 = Array.unsafe_get bd (s0 + pa)
      and b1 = Array.unsafe_get bd (s1 + pa)
      and b2 = Array.unsafe_get bd (s2 + pa)
      and b3 = Array.unsafe_get bd (s3 + pa) in
      c00 := !c00 +. (a0 *. b0);
      c01 := !c01 +. (a0 *. b1);
      c02 := !c02 +. (a0 *. b2);
      c03 := !c03 +. (a0 *. b3);
      c10 := !c10 +. (a1 *. b0);
      c11 := !c11 +. (a1 *. b1);
      c12 := !c12 +. (a1 *. b2);
      c13 := !c13 +. (a1 *. b3);
      c20 := !c20 +. (a2 *. b0);
      c21 := !c21 +. (a2 *. b1);
      c22 := !c22 +. (a2 *. b2);
      c23 := !c23 +. (a2 *. b3);
      c30 := !c30 +. (a3 *. b0);
      c31 := !c31 +. (a3 *. b1);
      c32 := !c32 +. (a3 *. b2);
      c33 := !c33 +. (a3 *. b3);
      incr p
    done;
    let st row v0 v1 v2 v3 =
      let base = (row * n) + j0 in
      Array.unsafe_set cd base (Array.unsafe_get cd base +. (alpha *. v0));
      Array.unsafe_set cd (base + 1)
        (Array.unsafe_get cd (base + 1) +. (alpha *. v1));
      Array.unsafe_set cd (base + 2)
        (Array.unsafe_get cd (base + 2) +. (alpha *. v2));
      Array.unsafe_set cd (base + 3)
        (Array.unsafe_get cd (base + 3) +. (alpha *. v3))
    in
    st i0 !c00 !c01 !c02 !c03;
    st (i0 + 1) !c10 !c11 !c12 !c13;
    st (i0 + 2) !c20 !c21 !c22 !c23;
    st (i0 + 3) !c30 !c31 !c32 !c33
  in
  let jj = ref 0 in
  while !jj < n do
    let j_hi = Stdlib.min n (!jj + block_n) in
    let j_tiled = !jj + ((j_hi - !jj) / 4 * 4) in
    let pp = ref 0 in
    while !pp < k do
      let p_hi = Stdlib.min k (!pp + block_k) in
      let i = ref 0 in
      while !i + 3 < m do
        let j = ref !jj in
        while !j < j_tiled do
          tile4x4 !i !j !pp p_hi;
          j := !j + 4
        done;
        if j_tiled < j_hi then edge !i (!i + 4) j_tiled j_hi !pp p_hi;
        i := !i + 4
      done;
      if !i < m then edge !i m !jj j_hi !pp p_hi;
      pp := p_hi
    done;
    jj := j_hi
  done

(* cd (m x n) += alpha * ad (m x k, row-major) * bd (k x n,
   row-major). *)
let gemm_nn ~m ~n ~k ~alpha ad bd cd =
  (* Broadcast-accumulate edge kernel: streams contiguous [b] and [c]
     row segments (matvec_t style) for row remainders of the tiling. *)
  let edge i_lo i_hi j_lo j_hi p_lo p_hi =
    for i = i_lo to i_hi - 1 do
      let abase = i * k and cbase = i * n in
      for p = p_lo to p_hi - 1 do
        let av = alpha *. Array.unsafe_get ad (abase + p) in
        if av <> 0.0 then begin
          let bbase = p * n in
          for j = j_lo to j_hi - 1 do
            Array.unsafe_set cd (cbase + j)
              (Array.unsafe_get cd (cbase + j)
              +. (av *. Array.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  in
  let tile4x4 i0 j0 p_lo p_hi =
    let r0 = i0 * k and r1 = (i0 + 1) * k
    and r2 = (i0 + 2) * k and r3 = (i0 + 3) * k in
    let c00 = ref 0.0 and c01 = ref 0.0 and c02 = ref 0.0 and c03 = ref 0.0
    and c10 = ref 0.0 and c11 = ref 0.0 and c12 = ref 0.0 and c13 = ref 0.0
    and c20 = ref 0.0 and c21 = ref 0.0 and c22 = ref 0.0 and c23 = ref 0.0
    and c30 = ref 0.0 and c31 = ref 0.0 and c32 = ref 0.0 and c33 = ref 0.0
    in
    let p = ref p_lo in
    while !p + 1 < p_hi do
      let pa = !p and pb = !p + 1 in
      let a0 = Array.unsafe_get ad (r0 + pa)
      and a1 = Array.unsafe_get ad (r1 + pa)
      and a2 = Array.unsafe_get ad (r2 + pa)
      and a3 = Array.unsafe_get ad (r3 + pa)
      and a0' = Array.unsafe_get ad (r0 + pb)
      and a1' = Array.unsafe_get ad (r1 + pb)
      and a2' = Array.unsafe_get ad (r2 + pb)
      and a3' = Array.unsafe_get ad (r3 + pb) in
      let ba = (pa * n) + j0 and bb = (pb * n) + j0 in
      let b0 = Array.unsafe_get bd ba
      and b1 = Array.unsafe_get bd (ba + 1)
      and b2 = Array.unsafe_get bd (ba + 2)
      and b3 = Array.unsafe_get bd (ba + 3)
      and b0' = Array.unsafe_get bd bb
      and b1' = Array.unsafe_get bd (bb + 1)
      and b2' = Array.unsafe_get bd (bb + 2)
      and b3' = Array.unsafe_get bd (bb + 3) in
      c00 := !c00 +. (a0 *. b0) +. (a0' *. b0');
      c01 := !c01 +. (a0 *. b1) +. (a0' *. b1');
      c02 := !c02 +. (a0 *. b2) +. (a0' *. b2');
      c03 := !c03 +. (a0 *. b3) +. (a0' *. b3');
      c10 := !c10 +. (a1 *. b0) +. (a1' *. b0');
      c11 := !c11 +. (a1 *. b1) +. (a1' *. b1');
      c12 := !c12 +. (a1 *. b2) +. (a1' *. b2');
      c13 := !c13 +. (a1 *. b3) +. (a1' *. b3');
      c20 := !c20 +. (a2 *. b0) +. (a2' *. b0');
      c21 := !c21 +. (a2 *. b1) +. (a2' *. b1');
      c22 := !c22 +. (a2 *. b2) +. (a2' *. b2');
      c23 := !c23 +. (a2 *. b3) +. (a2' *. b3');
      c30 := !c30 +. (a3 *. b0) +. (a3' *. b0');
      c31 := !c31 +. (a3 *. b1) +. (a3' *. b1');
      c32 := !c32 +. (a3 *. b2) +. (a3' *. b2');
      c33 := !c33 +. (a3 *. b3) +. (a3' *. b3');
      p := !p + 2
    done;
    if !p < p_hi then begin
      let pa = !p in
      let a0 = Array.unsafe_get ad (r0 + pa)
      and a1 = Array.unsafe_get ad (r1 + pa)
      and a2 = Array.unsafe_get ad (r2 + pa)
      and a3 = Array.unsafe_get ad (r3 + pa) in
      let ba = (pa * n) + j0 in
      let b0 = Array.unsafe_get bd ba
      and b1 = Array.unsafe_get bd (ba + 1)
      and b2 = Array.unsafe_get bd (ba + 2)
      and b3 = Array.unsafe_get bd (ba + 3) in
      c00 := !c00 +. (a0 *. b0);
      c01 := !c01 +. (a0 *. b1);
      c02 := !c02 +. (a0 *. b2);
      c03 := !c03 +. (a0 *. b3);
      c10 := !c10 +. (a1 *. b0);
      c11 := !c11 +. (a1 *. b1);
      c12 := !c12 +. (a1 *. b2);
      c13 := !c13 +. (a1 *. b3);
      c20 := !c20 +. (a2 *. b0);
      c21 := !c21 +. (a2 *. b1);
      c22 := !c22 +. (a2 *. b2);
      c23 := !c23 +. (a2 *. b3);
      c30 := !c30 +. (a3 *. b0);
      c31 := !c31 +. (a3 *. b1);
      c32 := !c32 +. (a3 *. b2);
      c33 := !c33 +. (a3 *. b3)
    end;
    let st row v0 v1 v2 v3 =
      let base = (row * n) + j0 in
      Array.unsafe_set cd base (Array.unsafe_get cd base +. (alpha *. v0));
      Array.unsafe_set cd (base + 1)
        (Array.unsafe_get cd (base + 1) +. (alpha *. v1));
      Array.unsafe_set cd (base + 2)
        (Array.unsafe_get cd (base + 2) +. (alpha *. v2));
      Array.unsafe_set cd (base + 3)
        (Array.unsafe_get cd (base + 3) +. (alpha *. v3))
    in
    st i0 !c00 !c01 !c02 !c03;
    st (i0 + 1) !c10 !c11 !c12 !c13;
    st (i0 + 2) !c20 !c21 !c22 !c23;
    st (i0 + 3) !c30 !c31 !c32 !c33
  in
  let jj = ref 0 in
  while !jj < n do
    let j_hi = Stdlib.min n (!jj + block_n) in
    let j_tiled = !jj + ((j_hi - !jj) / 4 * 4) in
    let pp = ref 0 in
    while !pp < k do
      let p_hi = Stdlib.min k (!pp + block_k) in
      let i = ref 0 in
      while !i + 3 < m do
        let j = ref !jj in
        while !j < j_tiled do
          tile4x4 !i !j !pp p_hi;
          j := !j + 4
        done;
        if j_tiled < j_hi then edge !i (!i + 4) j_tiled j_hi !pp p_hi;
        i := !i + 4
      done;
      if !i < m then edge !i m !jj j_hi !pp p_hi;
      pp := p_hi
    done;
    jj := j_hi
  done

let gemm ?(transa = false) ?(transb = false) ?(alpha = 1.0)
    ?(beta = 0.0) a b c =
  let m = if transa then a.cols else a.rows
  and kd = if transa then a.rows else a.cols
  and kb = if transb then b.cols else b.rows
  and n = if transb then b.rows else b.cols in
  if kd <> kb then
    invalid_arg
      (Printf.sprintf "Mat.gemm: inner dimension mismatch (%d vs %d)" kd kb);
  if c.rows <> m || c.cols <> n then
    invalid_arg
      (Printf.sprintf "Mat.gemm: output is %dx%d, expected %dx%d" c.rows
         c.cols m n);
  let cd = c.data in
  (* Bit-exact BLAS convention: beta = 1.0 exactly means "accumulate
     into C unscaled"; a near-1.0 beta must still scale, so no epsilon. *)
  if beta = 0.0 then Array.fill cd 0 (m * n) 0.0
  else if (beta <> 1.0 [@lint.allow "float-eq"]) then
    for i = 0 to (m * n) - 1 do
      Array.unsafe_set cd i (beta *. Array.unsafe_get cd i)
    done;
  if m > 0 && n > 0 && kd > 0 && alpha <> 0.0 then begin
    let compute ad =
      if transb then gemm_nt ~m ~n ~k:kd ~alpha ad b.data cd
      else gemm_nn ~m ~n ~k:kd ~alpha ad b.data cd
    in
    if transa then
      Scratch.with_floats (m * kd) (fun t ->
          transpose_into a t;
          compute t)
    else compute a.data
  end

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul: %dx%d with %dx%d" a.rows a.cols b.rows
         b.cols);
  let c = zeros a.rows b.cols in
  gemm a b c;
  c

(* A scratch-backed matrix for internal hot-path temporaries (im2col
   patch buffers, generator staging).  Same contract as
   {!Scratch.with_floats}: zero-filled, must not escape [f]. *)
let with_scratch rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.with_scratch: negative dimension";
  Scratch.with_floats (rows * cols) (fun data -> f { rows; cols; data })

let outer u v = init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let abs_row_sums m =
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. abs_float m.data.(base + j)
      done;
      !acc)

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       for i = 0 to Array.length a.data - 1 do
         if abs_float (a.data.(i) -. b.data.(i)) > eps then ok := false
       done;
       !ok
     end

let cholesky a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: non-square matrix";
  let n = a.rows in
  let l = zeros n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !acc <= 0.0 then failwith "Mat.cholesky: matrix not positive definite";
        set l i j (sqrt !acc)
      end
      else set l i j (!acc /. get l j j)
    done
  done;
  l

let solve_lower l b =
  let n = l.rows in
  if Array.length b <> n then invalid_arg "Mat.solve_lower: dimension mismatch";
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get l i j *. x.(j))
    done;
    x.(i) <- !acc /. get l i i
  done;
  x

let solve_upper_from_lower_t l b =
  let n = l.rows in
  if Array.length b <> n then
    invalid_arg "Mat.solve_upper_from_lower_t: dimension mismatch";
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get l j i *. x.(j))
    done;
    x.(i) <- !acc /. get l i i
  done;
  x

let cholesky_solve l b = solve_upper_from_lower_t l (solve_lower l b)

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "%a@," Vec.pp (row m i)
  done;
  Format.fprintf fmt "@]"
