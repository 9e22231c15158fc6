(** Fixed-size pool of OCaml 5 domains.

    The calling domain always participates as worker 0, so [workers = 1]
    spawns nothing and runs the caller's code unchanged. *)

val run : workers:int -> (int -> unit) -> unit
(** [run ~workers f] executes [f 0], ..., [f (workers - 1)], one call
    per domain, and returns once all have finished.  If workers raise,
    every domain is still joined and the first exception is re-raised. *)

val iter : workers:int -> int -> (int -> unit) -> unit
(** [iter ~workers n f] applies [f] to every index in [0, n) exactly
    once, sharing indices across at most [workers] domains via an atomic
    cursor.  Index-to-worker assignment is nondeterministic, so [f] must
    only write worker-private or per-index state. *)
