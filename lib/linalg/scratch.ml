(* Per-domain scratch buffers for the kernel hot path.

   The abstract interpreter re-runs the same network over thousands of
   subregions, and every conv layer used to allocate a fresh im2col
   patch matrix (and every [transa] GEMM a fresh transpose staging
   buffer) per call — megabytes of short-lived garbage per region that
   the GC then has to walk.  This arena recycles those buffers: each
   domain owns a private size-keyed free list, [with_floats] pops a
   buffer of the exact requested length (zero-filled, matching
   [Array.make n 0.0] semantics) and returns it on exit.  Because the
   propagation loop replays the same layer shapes over and over, the
   exact-size pools hit from the second propagation onward.

   Ownership: the arena lives in domain-local storage, so borrow and
   release always happen on the owning domain and need no locking.  The
   arena only manages lifetime: a buffer is never reused until its
   borrowing scope returns.

   Bounds: buffers above [max_pooled_words] are allocated fresh and not
   retained; at most [max_per_size] buffers are kept per size class, so
   a pathological shape sweep cannot pin unbounded memory.  [trim]
   drops the calling domain's free lists (tests, long-lived servers). *)

(* Buffers larger than this (in floats; 8 MB) are not worth pinning
   between calls. *)
let max_pooled_words = 1 lsl 20

let max_per_size = 4

(* Per-domain via [Domain.DLS]; [free], [words] and the hashtable are
   touched only by the owning domain. *)
type arena = {
  free : (int, float array list) Hashtbl.t;
  mutable words : int;  (* total floats allocated by this arena *)
  mutable borrows : int;
}
[@@race.domain_local]

let arena_key =
  Domain.DLS.new_key (fun () ->
      { free = Hashtbl.create 16; words = 0; borrows = 0 })

(* Global footprint accounting.  [global_words] sums every arena's
   allocation; [highwater] is its CAS-max, updated on the (rare)
   allocation path only. *)
let global_words = Atomic.make 0 [@@race.atomic]

let highwater = Atomic.make 0 [@@race.atomic]

let c_reuses = Telemetry.Metrics.counter "kernel.scratch.reuses"

let rec raise_highwater v =
  let cur = Atomic.get highwater in
  if v > cur && not (Atomic.compare_and_set highwater cur v) then
    raise_highwater v

let account arena n =
  arena.words <- arena.words + n;
  raise_highwater (n + Atomic.fetch_and_add global_words n)

let borrow arena n =
  match Hashtbl.find_opt arena.free n with
  | Some (buf : float array list) -> begin
      match buf with
      | b :: rest ->
          Hashtbl.replace arena.free n rest;
          Telemetry.Metrics.incr c_reuses;
          Array.fill b 0 n 0.0;
          b
      | [] ->
          account arena n;
          Array.make n 0.0
    end
  | None ->
      account arena n;
      Array.make n 0.0

let release arena n b =
  if n <= max_pooled_words then begin
    let existing = Option.value ~default:[] (Hashtbl.find_opt arena.free n) in
    if List.length existing < max_per_size then
      Hashtbl.replace arena.free n (b :: existing)
    else begin
      arena.words <- arena.words - n;
      ignore (Atomic.fetch_and_add global_words (-n))
    end
  end
  else begin
    arena.words <- arena.words - n;
    ignore (Atomic.fetch_and_add global_words (-n))
  end

let with_floats n f =
  if n < 0 then invalid_arg "Scratch.with_floats: negative length";
  if n = 0 then f [||]
  else begin
    let arena = Domain.DLS.get arena_key in
    let b = borrow arena n in
    arena.borrows <- arena.borrows + 1;
    Fun.protect
      ~finally:(fun () ->
        arena.borrows <- arena.borrows - 1;
        release arena n b)
      (fun () -> f b)
  end

let live_words () = (Domain.DLS.get arena_key).words

let highwater_words () = Atomic.get highwater

let trim () =
  let arena = Domain.DLS.get arena_key in
  let freed = ref 0 in
  Hashtbl.iter
    (fun n bufs -> freed := !freed + (n * List.length bufs))
    arena.free;
  Hashtbl.reset arena.free;
  arena.words <- arena.words - !freed;
  ignore (Atomic.fetch_and_add global_words (- !freed))
