(* Budgets are shared by every parallel verifier worker, so the mutable
   pieces are atomics: [spend] and [exhausted] may be called from any
   domain concurrently.

   Lock-free by design:
   - [used] is only ever fetch_and_add'ed — no read-modify-write
     cycles that could lose updates;
   - [expired] is sticky: it transitions false -> true exactly once and
     is never reset, so once any poll has seen the deadline pass, later
     polls answer without reading the clock;
   - the immutable fields are set at creation and safely shared. *)
type t = {
  deadline : float option;
  max_steps : int option;
  started : float;
  used : int Atomic.t;
  expired : bool Atomic.t;  (** sticky once the deadline passes *)
}
[@@race.atomic]

let now () = Unix.gettimeofday ()

let create ?seconds ?steps () =
  let started = now () in
  {
    deadline = Option.map (fun s -> started +. s) seconds;
    max_steps = steps;
    started;
    used = Atomic.make 0;
    expired = Atomic.make false;
  }

let unlimited () = create ()

let of_seconds s = create ~seconds:s ()

let of_steps n = create ~steps:n ()

let spend t n = ignore (Atomic.fetch_and_add t.used n)

(* Every poll reads the clock (tens of nanoseconds), so the first poll
   past the deadline exhausts: the analyzer polls once per layer, and a
   single pass must be able to see its own deadline. *)
let past_deadline t d =
  Atomic.get t.expired
  ||
  let past = now () > d in
  if past then Atomic.set t.expired true;
  past

let exhausted t =
  (match t.max_steps with Some m -> Atomic.get t.used >= m | None -> false)
  || match t.deadline with Some d -> past_deadline t d | None -> false

let elapsed t = now () -. t.started

let remaining_seconds t =
  Option.map (fun d -> Float.max 0.0 (d -. now ())) t.deadline

let steps_used t = Atomic.get t.used
