(** A periodic tick on its own domain that stops at once.

    The domain waits out each period in [Unix.select] on a self-pipe,
    so {!stop} wakes it immediately rather than after the rest of the
    period: a caller that joins its timer on the way out returns when
    its work is done, not up to one period later. *)

type t

val start : period:float -> (unit -> unit) -> t
(** [start ~period tick] calls [tick ()] every [period] seconds on a
    new domain until {!stop}. *)

val stop : t -> unit
(** Wakes the ticker, joins its domain and closes its pipe.  No tick
    starts after [stop] returns.  Call it once. *)
