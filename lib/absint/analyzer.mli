(** Abstract interpretation of networks (the AI2 reimplementation).

    Propagates an abstraction of the input region through every layer of
    the network and checks the robustness condition on the abstract
    output.  This is the [Analyze] procedure of Algorithm 1 and also, run
    with a fixed domain, the AI2 baseline of §7.1. *)

type verdict = Verified | Unknown

type stats = {
  mutable peak_disjuncts : int;
  mutable peak_generators : int;
  mutable transformer_calls : int;
      (** Number of abstract layer applications; the deterministic cost
          unit used by budgeted experiments. *)
}

val fresh_stats : unit -> stats

exception Out_of_budget
(** Raised by {!propagate} between layers when the supplied budget runs
    out, so a single expensive abstract pass (e.g. a 64-disjunct
    powerset on the conv net) can be abandoned mid-way. *)

val propagate :
  (module Domains.Domain_sig.S with type t = 'a) ->
  ?stats:stats ->
  ?budget:Common.Budget.t ->
  Nn.Network.t ->
  'a ->
  'a
(** Push an abstract element through every layer of the network.
    @raise Out_of_budget if [budget] expires between layers. *)

val output_bounds :
  Nn.Network.t -> Domains.Box.t -> Domains.Domain.spec -> (float * float) array
(** Bounds of each output score over the input region. *)

val margin_lower :
  ?stats:stats ->
  ?budget:Common.Budget.t ->
  Nn.Network.t ->
  Domains.Box.t ->
  k:int ->
  Domains.Domain.spec ->
  float
(** Lower bound, over the input region, of
    [min_{j≠k} (N(x)_K - N(x)_j)].  The property is verified iff this is
    strictly positive.  Returns [neg_infinity] when the budget expires
    mid-pass. *)

val analyze :
  ?stats:stats ->
  ?budget:Common.Budget.t ->
  Nn.Network.t ->
  Domains.Box.t ->
  k:int ->
  Domains.Domain.spec ->
  verdict
(** [analyze net region ~k spec] attempts to prove that every point of
    [region] is classified as [k], using the abstract domain described
    by [spec].  Sound: [Verified] implies the property holds.
    @raise Invalid_argument if [k] is not a valid class or the region
    dimension differs from the network input dimension. *)
