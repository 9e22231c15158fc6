(** A Reluplex-class complete robustness checker.

    Decides robustness properties exactly (up to floating-point
    tolerances) by combining an LP relaxation of the network with
    case splitting on unstable ReLU units: each branch either closes
    (the LP proves the adversarial objective negative or is infeasible)
    or yields a candidate counterexample that is validated concretely.
    Stable units and triangle relaxations prune the search, and branches
    are explored depth-first on the most-violated unit.

    This plays the role of Reluplex in §7.2's evaluation: a complete
    procedure without abstraction, learned policies, or gradient-based
    counterexample search.  (The original tool's native simplex with
    ReLU pivots is replaced by LP + branching over our own simplex; the
    procedures decide the same theory — see DESIGN.md.) *)

type config = {
  delta : float;  (** accept a candidate [x] as refutation when
                      [F(x) <= delta] *)
}

val default_config : config
(** δ = 1e-4. *)

type report = {
  outcome : Common.Outcome.t;
  elapsed : float;
  lp_calls : int;
  branches : int;  (** case splits performed *)
  stable_units : int;  (** ReLUs fixed by interval bounds up front *)
}

val run :
  ?config:config ->
  ?budget:Common.Budget.t ->
  Nn.Network.t ->
  Common.Property.t ->
  report
(** Decide the property.  [Unknown] is never returned: the procedure is
    complete, so without budget pressure it answers [Verified] or
    [Refuted].  Returns [Timeout] when the budget runs out and
    [Unknown] only if the network contains unsupported layers. *)

module Encoding = Encoding
(** Re-export of the LP encoding for tests and benchmarks. *)
