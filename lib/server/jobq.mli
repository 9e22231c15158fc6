(** A domain-safe blocking, bounded, priority-aged fair-share queue —
    the multi-tenant replacement for the serving daemon's FIFO.

    Items live in per-tenant lanes (FIFO within a lane); {!pop} serves
    lanes by weighted fair queueing (stride scheduling: a lane pays
    [1/weight] virtual time per item) with linear aging on the head
    item's wait (0.05 virtual-time units per second) so no lane ever
    starves.  Pushing with the default tenant and weight degenerates
    to a plain FIFO: the dverify coordinator's event mailbox and each
    worker's split mailbox.

    [Parallel.Wqueue] terminates its consumers when the outstanding
    work tree drains; this queue instead blocks consumers until the
    producer closes it, which is the shape a daemon's scheduler
    needs. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default unbounded) bounds total queued items across
    all lanes — the daemon's backpressure limit.
    @raise Invalid_argument on [capacity < 1]. *)

val push : ?tenant:string -> ?weight:float -> 'a t -> 'a -> [ `Queued | `Busy | `Closed ]
(** Enqueue one item on [tenant]'s lane ([weight] updates the lane's
    fair share); wakes one blocked consumer.  [`Busy] when the queue
    is at capacity (the item is dropped — callers reject with a
    retryable error), [`Closed] after {!close}.
    @raise Invalid_argument when [weight <= 0]. *)

val pop : 'a t -> 'a option
(** Dequeue the fair-share winner, blocking while the queue is empty
    and open.  [None] means the queue was closed; remaining items are
    still served before [None] is reported. *)

val close : 'a t -> unit
(** Idempotent.  Blocked and future [pop]s drain leftover items, then
    return [None]; future [push]es are rejected. *)

val closed : 'a t -> bool

val length : 'a t -> int
(** Total items currently queued (the daemon's queue-depth gauge). *)

val capacity : 'a t -> int

val depths : 'a t -> (string * int) list
(** Per-tenant queued-item counts (non-empty lanes only), in lane
    creation order. *)
