(** Projected gradient descent over a box region (the [Minimize] call of
    Algorithm 1).

    Minimises the adversarial objective with a diminishing step schedule
    and several random restarts, projecting back into the region after
    every step.  PGD is exactly the method named in §3; FGSM lives in
    {!Fgsm}.

    Cost: a restart that takes [s] gradient steps runs the network
    forward [1 + s] times and backward [s] times.  Each iterate is
    evaluated once ({!Objective.eval}); that one forward pass serves both
    the best-value check and the next step's gradient. *)

type config = {
  steps : int;  (** gradient steps per restart *)
  restarts : int;  (** independent starts (first is the region center) *)
  step_scale : float;
      (** initial step as a fraction of the region's mean width *)
  early_stop : float option;
      (** stop as soon as the objective falls to this value or below
          (e.g. [Some delta]); [None] runs the full budget *)
}

val default_config : config
(** 40 steps, 5 restarts, step 0.25, no early stop. *)

val minimize :
  ?config:config ->
  rng:Linalg.Rng.t ->
  Objective.t ->
  Domains.Box.t ->
  Linalg.Vec.t * float
(** [(x_best, f_best)]: the best point found and its objective value.
    The returned point always lies inside the region. *)
