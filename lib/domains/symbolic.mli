(** Symbolic-interval abstract domain (ReluVal-style bounds as a
    first-class domain).

    The paper compares against ReluVal externally because "our abstract
    interpretation engine does not support the domain used by ReluVal"
    (§7.4, footnote 8).  This module removes that limitation: every
    neuron is bounded below and above by affine forms over the
    {e element's input space}, which preserves input correlations that
    both intervals and (post-ReLU) zonotopes lose.

    The element tracks the affine forms relative to the box it was
    created from.  Operations that cannot be expressed relationally
    (max pooling, joins) soundly fall back to the interval hull, after
    which the forms restart as the identity over the hull box. *)

include Domain_sig.S
