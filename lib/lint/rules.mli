(** The rule registry.

    Every rule is a purely-syntactic pass over one parsed [.ml] file.
    The linter runs without the typer, so "float-typed" is a heuristic:
    float literals, applications of float primitives ([+.], [sqrt],
    [Float.*], ...), and the float constants ([nan], [infinity], ...)
    count; an identifier of float type does not.  False negatives are
    accepted; every reported finding should be worth reading. *)

type ctx = {
  file : string;  (** root-relative path, used in diagnostics *)
  in_lib : bool;  (** file lives under a [lib/] tree *)
  parallel_reachable : bool;
      (** file's library can run on [Parallel.Pool] worker domains *)
  unsafe_allowlist : string list;
      (** files where [unsafe-array] is pre-audited and silent *)
}

type rule = {
  id : string;
  summary : string;  (** one line for [--list-rules] and docs *)
  check : ctx -> Parsetree.structure -> Diagnostic.t list;
}

(** The registry, in fixed order.  Ids: [poly-compare],
    [domain-unsafe-global], [float-eq], [unsafe-array], [catch-all-exn],
    [printf-in-lib]. *)
val all : rule list
