(** Solver outcomes, shared by Charon and the baseline tools so the
    experiment harness can tabulate them uniformly (Figure 6's verified /
    falsified / timeout / unknown categories). *)

type t =
  | Verified  (** the property is proven to hold *)
  | Refuted of Linalg.Vec.t  (** a (δ-)counterexample *)
  | Timeout  (** budget exhausted *)
  | Unknown  (** the solver gave up without a verdict (incomplete tools) *)

val is_solved : t -> bool
(** [Verified] or [Refuted]. *)

val label : t -> string
(** ["verified"], ["falsified"], ["timeout"] or ["unknown"]. *)

val pp : Format.formatter -> t -> unit

val agrees : t -> t -> bool
(** Whether two outcomes are consistent with each other (solved verdicts
    must match; [Timeout]/[Unknown] are consistent with anything). *)

val settle : t option -> t -> t option
(** [settle settled incoming] is the verdict once [incoming] arrives
    after [settled] ([None] while nothing has settled yet).  The first
    outcome settles; a [Refuted] replaces a settled [Timeout] or
    [Unknown], so a counterexample found while the search winds down is
    never dropped; nothing else replaces a settled outcome. *)
