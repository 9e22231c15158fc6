(** An approximate whole-repo call graph over parsed implementations.

    Nodes are the toplevel value bindings of every scanned [.ml] file
    (bindings inside nested [module S = struct ... end] items are
    registered under the dotted name ["S.f"]).  Edges are resolved
    identifier references: any occurrence of a name inside a binding's
    body that resolves — same file first, then a sibling module of the
    same dune library, then a fully qualified [Lib.Module.name] path
    through the library graph — counts as a reference, whether it is a
    call, a partial application, or a value use.

    On top of the graph sits **domain-reachability**: a binding is a
    spawn root when its body syntactically contains an application of a
    parallel entry point ([Domain.spawn], [Pool.run], [Pool.iter],
    [Kpool.run], matched by path suffix so any qualification works);
    the domain-reachable set is everything transitively referenced from
    a root.  Roots include the enclosing binding itself because every
    entry point in this repo also runs tasks on the calling domain.

    Known approximations (documented in docs/lint.md): references are
    name-based, so [open]ed or module-aliased paths may not resolve
    (missed edges), and locally shadowed names may over-resolve (extra
    edges).  Reachability is therefore an approximation in both
    directions; the race pass compensates by checking annotated
    disciplines in *every* function, reachable or not. *)

type decl = {
  did : int;  (** dense index, usable with [reachable] *)
  file : string;  (** root-relative path of the defining file *)
  name : string;  (** ["f"], ["Sub.f"], or ["_anonN"] for [let () = ...] *)
  body : Parsetree.expression;
  attrs : Parsetree.attributes;  (** the binding's [[@@...]] attributes *)
  loc : Location.t;
}

type t

(** Head paths (already normalised) that hand work to another domain. *)
val spawn_head : string list -> bool

val build :
  files:(string * Parsetree.structure) list -> libs:Deps.lib list -> t

val decls : t -> decl list

(** Resolve a normalised identifier path as seen from [file]. *)
val resolve : t -> file:string -> string list -> decl option

(** The binding can run on a non-main domain. *)
val reachable : t -> decl -> bool
