(** Thread-safe priority work queue for divide-and-conquer draining.

    Tracks outstanding work — queued items plus popped items whose
    [finish] is still pending — so [pop] can distinguish "momentarily
    empty while a peer may still push children" (block) from "the whole
    work tree is drained" (return [None]).  Worker protocol:

    {[
      match pop q with
      | None -> (* drained or closed *) ()
      | Some x -> (* ... push children ... *) finish q
    ]}

    [finish] must be called exactly once per popped item, after any
    children have been pushed.  Items are served lowest priority first.
    Built on OCaml 5 stdlib primitives ([Mutex]/[Condition]) only. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> priority:float -> 'a -> unit
(** Enqueue an item.  No-op once the queue is closed. *)

val pop : 'a t -> 'a option
(** Dequeue the lowest-priority item, blocking while the queue is empty
    but work is still outstanding.  Returns [None] once the queue is
    drained (no items, no outstanding work) or closed. *)

val finish : 'a t -> unit
(** Mark one popped item as fully processed.  Raises [Invalid_argument]
    if called more times than [pop] returned items. *)

val close : 'a t -> unit
(** End the queue: every blocked and future [pop] returns [None]
    immediately.  Used for cancellation. *)

val leftovers : 'a t -> 'a list
(** [close] the queue and return the items still queued, lowest
    priority first, leaving it empty.  Popped items are not included:
    their workers own them. *)

val closed : 'a t -> bool

val outstanding : 'a t -> int
(** Queued plus in-flight items (racy by nature; for tests/telemetry). *)

val size : 'a t -> int
(** Currently queued items (racy by nature; for tests/telemetry). *)
