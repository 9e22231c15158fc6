(** Plain-text (de)serialization of networks.

    The format is a line-oriented token stream, stable across runs, so
    trained networks can be saved by the CLI and reloaded by examples and
    benchmarks.  Floats are printed with ["%.17g"] and round-trip
    exactly.  Tokens are separated by spaces, tabs and newlines (not
    ['\r']). *)

val to_string : Network.t -> string

val digest : Network.t -> Digest.t
(** MD5 of the network's structure and the IEEE bits of its weights,
    without rendering any float as text: equal exactly when the layer
    kinds, shapes and weight bits are equal (so [0.0] and [-0.0], or
    two floats one ULP apart, give different digests).  Not the digest
    of the {!to_string} text. *)

val of_string : string -> Network.t
(** @raise Failure with a descriptive message on malformed input. *)

val save : string -> Network.t -> unit
(** [save path net] writes the network to [path]. *)

val load : string -> Network.t
(** @raise Sys_error if the file cannot be read; [Failure] if it cannot
    be parsed. *)
