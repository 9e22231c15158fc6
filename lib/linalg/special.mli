(** Special functions needed by the Gaussian-process machinery. *)

val erf : float -> float
(** Error function, Abramowitz & Stegun 7.1.26 rational approximation
    (absolute error below 1.5e-7, adequate for acquisition functions). *)

val normal_pdf : float -> float
(** Standard normal density. *)

val normal_cdf : float -> float
(** Standard normal cumulative distribution function. *)
