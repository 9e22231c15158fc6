open Parsetree

type ctx = {
  file : string;
  in_lib : bool;
  parallel_reachable : bool;
  unsafe_allowlist : string list;
}

type rule = {
  id : string;
  summary : string;
  check : ctx -> Parsetree.structure -> Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Shared syntax helpers live in [Astq] (the race pass uses them too). *)

let ident_path = Astq.ident_path

let norm = Astq.norm

let path_of_expr = Astq.path_of_expr

let iter_exprs = Astq.iter_exprs

(* Operators and functions of the stdlib that return float, used to
   decide — without the typer — that an expression is float-valued. *)
let float_prims =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "~+."; "abs_float"; "sqrt"; "exp";
    "expm1"; "log"; "log10"; "log1p"; "cos"; "sin"; "tan"; "acos"; "asin";
    "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "floor"; "ceil"; "mod_float";
    "float_of_int"; "float_of_string"; "hypot"; "copysign"; "ldexp";
  ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

(* [Float.f] calls that do NOT return float. *)
let float_mod_nonfloat =
  [
    "compare"; "equal"; "is_nan"; "is_finite"; "is_infinite"; "is_integer";
    "to_int"; "to_string"; "of_string_opt"; "sign_bit"; "classify_float";
    "hash";
  ]

let is_float_type ct =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt = Lident "float"; _ }, []) -> true
  | _ -> false

(* Syntactically float-valued: a float literal, a float constant, an
   application of a float primitive or of a value-returning [Float.*]
   function, or an explicit [(e : float)] coercion. *)
let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match Option.map norm (ident_path txt) with
      | Some [ c ] -> List.mem c float_consts
      | Some [ "Float"; c ] ->
          List.mem c
            [ "pi"; "max_float"; "min_float"; "epsilon"; "infinity";
              "neg_infinity"; "nan"; "zero"; "one"; "minus_one" ]
      | _ -> false)
  | Pexp_apply (f, _) -> (
      match path_of_expr f with
      | Some [ op ] -> List.mem op float_prims
      | Some [ "Float"; fn ] -> not (List.mem fn float_mod_nonfloat)
      | _ -> false)
  | Pexp_constraint (inner, ct) -> is_float_type ct || floatish inner
  | _ -> false

let structured e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt = Lident "::"; _ }, _) -> true
  | _ -> false

let is_float_array_type ct =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt = Lident "array"; _ }, [ elt ]) -> is_float_type elt
  | Ptyp_constr ({ txt; _ }, []) -> (
      (* Repo-local aliases for [float array] that a syntactic check
         would otherwise see through only at a constraint. *)
      match Option.map norm (ident_path txt) with
      | Some ([ "Vec"; "t" ] | [ "Linalg"; "Vec"; "t" ]) -> true
      | _ -> false)
  | _ -> false

(* Syntactically an array of floats: a literal with a float head, an
   [Array.*] constructor seeded with a float, or a [float array]
   (or [Vec.t]) type constraint.  The well-known blind spot is a bare
   identifier or field access whose float-array type only the
   typechecker knows (exactly how [Box.equal]'s [a.lo = b.lo] slipped
   through); those need an annotation somewhere in the expression to be
   caught here. *)
let rec float_arrayish e =
  match e.pexp_desc with
  | Pexp_array (x :: _) -> floatish x
  | Pexp_apply (f, args) -> (
      match path_of_expr f with
      | Some [ "Array"; "create_float" ] -> true
      | Some [ "Array"; ("make" | "init") ] -> (
          match List.rev args with
          | (_, last) :: _ -> floatish last
          | [] -> false)
      | Some [ "Array"; ("copy" | "append" | "sub" | "map") ] ->
          List.exists (fun (_, a) -> float_arrayish a) args
      | _ -> false)
  | Pexp_constraint (inner, ct) ->
      is_float_array_type ct || float_arrayish inner
  | _ -> false

let is_zero_float e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> (
      match float_of_string s with
      | f -> f = 0.0
      | exception Failure _ -> false)
  | _ -> false

let diag ctx ~rule ~loc ~message ~hint =
  Diagnostic.make ~rule ~file:ctx.file ~loc ~message ~hint

(* ------------------------------------------------------------------ *)
(* poly-compare: polymorphic compare/min/max reaching float or
   structured values.  Generic ordering operators on floats follow IEEE
   semantics in the runtime, but [compare] imposes a total order that
   disagrees with [<], and [min]/[max] drop NaN or keep it depending on
   argument order — in a verifier that silently corrupts bounds. *)

let poly_cmp_kind = function
  | [ "compare" ] -> Some "compare"
  | [ "min" ] -> Some "min"
  | [ "max" ] -> Some "max"
  | _ -> None

let poly_compare_rule =
  {
    id = "poly-compare";
    summary =
      "polymorphic compare/min/max applied to (or passed over) float or \
       structured values";
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs str (fun e ->
            match e.pexp_desc with
            | Pexp_apply (f, args) ->
                (* (Dis)equality on arrays of floats: element-wise
                   structural [=] runs the polymorphic float path, where
                   [-0.0 = 0.0] and NaN is unequal to itself — so two
                   bit-different boxes can compare equal.  Scalar float
                   (dis)equality belongs to the float-eq rule. *)
                (match (path_of_expr f, args) with
                | Some [ (("=" | "<>") as op) ], [ (_, a); (_, b) ]
                  when float_arrayish a || float_arrayish b ->
                    acc :=
                      diag ctx ~rule:"poly-compare" ~loc:e.pexp_loc
                        ~message:
                          (Printf.sprintf
                             "polymorphic %s on an array of floats compares \
                              elements with float structural equality"
                             op)
                        ~hint:
                          "compare per element with Float.equal (NaN-total, \
                           -0.0 distinct), or [@lint.allow \"poly-compare\"] \
                           when IEEE semantics are the intent"
                      :: !acc
                | _ -> ());
                (match Option.bind (path_of_expr f) poly_cmp_kind with
                | Some kind
                  when List.exists
                         (fun (_, a) -> floatish a || structured a)
                         args ->
                    let hint =
                      if String.equal kind "compare" then
                        "use Float.compare (or a field-wise compare for \
                         structured data)"
                      else
                        Printf.sprintf
                          "use Float.%s: polymorphic %s keeps or drops NaN \
                           depending on argument order" kind kind
                    in
                    acc :=
                      diag ctx ~rule:"poly-compare" ~loc:e.pexp_loc
                        ~message:
                          (Printf.sprintf
                             "polymorphic %s applied to a float or structured \
                              expression"
                             kind)
                        ~hint
                      :: !acc
                | _ -> ());
                List.iter
                  (fun (_, a) ->
                    match Option.bind (path_of_expr a) poly_cmp_kind with
                    | Some kind ->
                        acc :=
                          diag ctx ~rule:"poly-compare" ~loc:a.pexp_loc
                            ~message:
                              (Printf.sprintf
                                 "polymorphic %s passed as a comparison \
                                  function"
                                 kind)
                            ~hint:
                              (Printf.sprintf
                                 "pass Float.%s (or a type-specific function) \
                                  so NaN and structured data compare \
                                  deterministically"
                                 kind)
                          :: !acc
                    | None -> ())
                  args
            | _ -> ());
        !acc);
  }

(* ------------------------------------------------------------------ *)
(* domain-unsafe-global: toplevel mutable state, and shared-mutable type
   declarations, in libraries whose code can run on Parallel.Pool worker
   domains.  Atomics are flagged too — not as bugs, but so every piece
   of cross-domain state carries a documented discipline. *)

let mutable_maker = Astq.mutable_maker

let shared_mutable_fields = Astq.shared_mutable_fields

(* A declaration carrying any [@race.*] annotation is exempt here: it
   states a discipline that the interprocedural race pass
   machine-checks (docs/lint.md, "Interprocedural passes"). *)
let race_annotated_value vb =
  Astq.has_race_attr vb.pvb_attributes
  || Astq.has_race_attr (Astq.peel_constraint vb.pvb_expr).pexp_attributes

let race_annotated_type decl =
  Astq.has_race_attr decl.ptype_attributes
  ||
  match decl.ptype_kind with
  | Ptype_record labels ->
      List.exists (fun l -> Astq.has_race_attr l.pld_attributes) labels
  | _ -> false

let domain_unsafe_rule =
  {
    id = "domain-unsafe-global";
    summary =
      "toplevel mutable state or shared-mutable types in libraries reachable \
       from Parallel.Pool workers";
    check =
      (fun ctx str ->
        if not ctx.parallel_reachable then []
        else begin
          let acc = ref [] in
          let flag_value vb =
            match mutable_maker vb.pvb_expr with
            | Some kind when not (race_annotated_value vb) ->
                acc :=
                  diag ctx ~rule:"domain-unsafe-global" ~loc:vb.pvb_loc
                    ~message:
                      (Printf.sprintf
                         "toplevel mutable state (%s) in a module reachable \
                          from Parallel.Pool workers"
                         kind)
                    ~hint:
                      "declare the discipline with [@@race.guarded_by \
                       \"m\"] / [@@race.atomic] / [@@race.domain_local] \
                       (machine-checked by --pass race), allocate per use or \
                       per domain, or [@@lint.allow \"domain-unsafe-global\"]"
                  :: !acc
            | _ -> ()
          in
          let flag_type decl =
            match shared_mutable_fields decl with
            | _ when race_annotated_type decl -> ()
            | [] -> ()
            | fields ->
                let names = String.concat ", " (List.map fst fields) in
                let unsync =
                  List.exists (fun (_, k) -> String.equal k "mutable") fields
                in
                acc :=
                  diag ctx ~rule:"domain-unsafe-global" ~loc:decl.ptype_loc
                    ~message:
                      (Printf.sprintf
                         "%s type in a parallel-reachable library (%s): \
                          values may be shared across worker domains"
                         (if unsync then "mutable" else "shared-mutable")
                         names)
                    ~hint:
                      "declare the discipline with [@@race.guarded_by \"m\"] \
                       / [@@race.atomic] / [@@race.domain_local] on the type \
                       or its fields (machine-checked by --pass race), \
                       confine values to a single domain, or [@@lint.allow \
                       \"domain-unsafe-global\"]"
                  :: !acc
          in
          let rec walk_items items = List.iter walk_item items
          and walk_item item =
            match item.pstr_desc with
            | Pstr_value (_, vbs) -> List.iter flag_value vbs
            | Pstr_type (_, decls) -> List.iter flag_type decls
            | Pstr_module mb -> walk_module mb.pmb_expr
            | Pstr_recmodule mbs ->
                List.iter (fun mb -> walk_module mb.pmb_expr) mbs
            | Pstr_include i -> walk_module i.pincl_mod
            | _ -> ()
          and walk_module me =
            match me.pmod_desc with
            | Pmod_structure items -> walk_items items
            | Pmod_constraint (m, _) -> walk_module m
            | Pmod_functor (_, m) -> walk_module m
            | _ -> ()
          in
          walk_items str;
          !acc
        end);
  }

(* ------------------------------------------------------------------ *)
(* float-eq: (dis)equality on float values.  Comparisons against a
   literal zero are exempt — exact-zero sparsity and sign tests are
   IEEE-exact and idiomatic in the kernels.  [==]/[!=] on floats are
   flagged unconditionally: they compare boxes, not values. *)

let float_eq_rule =
  {
    id = "float-eq";
    summary = "= / == (dis)equality on float expressions";
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs str (fun e ->
            match e.pexp_desc with
            | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
                match path_of_expr f with
                | Some [ (("=" | "<>") as op) ]
                  when (floatish a || floatish b)
                       && not (is_zero_float a || is_zero_float b) ->
                    acc :=
                      diag ctx ~rule:"float-eq" ~loc:e.pexp_loc
                        ~message:
                          (Printf.sprintf
                             "float (dis)equality via polymorphic %s is \
                              representation-exact and NaN-hostile"
                             op)
                        ~hint:
                          "compare within a tolerance, or [@lint.allow \
                           \"float-eq\"] with a comment when bit-exactness is \
                           the intent (exact-zero tests are always exempt)"
                      :: !acc
                | Some [ (("==" | "!=") as op) ] when floatish a || floatish b
                  ->
                    acc :=
                      diag ctx ~rule:"float-eq" ~loc:e.pexp_loc
                        ~message:
                          (Printf.sprintf
                             "physical %s on floats compares boxes, not \
                              values"
                             op)
                        ~hint:"use Float.equal or an epsilon comparison"
                      :: !acc
                | _ -> ())
            | _ -> ());
        !acc);
  }

(* ------------------------------------------------------------------ *)
(* unsafe-array: unchecked accessors outside the audited-kernel
   allowlist.  Matches any module-qualified identifier whose last
   component starts with "unsafe_", so Bytes/String/Float.Array
   variants are covered too. *)

let unsafe_array_rule =
  {
    id = "unsafe-array";
    summary = "Array.unsafe_get/set (and friends) outside audited kernels";
    check =
      (fun ctx str ->
        if List.mem ctx.file ctx.unsafe_allowlist then []
        else begin
          let acc = ref [] in
          iter_exprs str (fun e ->
              match e.pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match Option.map norm (ident_path txt) with
                  | Some p -> (
                      (* Only module-qualified accessors: a bare local
                         identifier that happens to be named unsafe_*
                         is not an unchecked access. *)
                      match List.rev p with
                      | last :: _ :: _
                        when String.starts_with ~prefix:"unsafe_" last ->
                          acc :=
                            diag ctx ~rule:"unsafe-array" ~loc:e.pexp_loc
                              ~message:
                                (Printf.sprintf
                                   "unchecked access %s outside the audited \
                                    kernel allowlist"
                                   (String.concat "." p))
                              ~hint:
                                "prove the bounds locally and [@lint.allow \
                                 \"unsafe-array\"], or use checked indexing"
                            :: !acc
                      | _ -> ())
                  | None -> ())
              | _ -> ());
          !acc
        end);
  }

(* ------------------------------------------------------------------ *)
(* catch-all-exn: [try ... with _ ->] (or a variable pattern) that does
   not re-raise can absorb Out_of_memory, Stack_overflow or
   Assert_failure into an ordinary value — in a verifier, into a
   verdict. *)

let rec catches_everything p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catches_everything p
  | Ppat_or (a, b) -> catches_everything a || catches_everything b
  | _ -> false

(* A handler that calls one of these is either re-raising directly or
   parking the exception with its backtrace for a later
   [Printexc.raise_with_backtrace] (the failure-propagation idiom in
   Kpool: the round must still drain, so the first exception is stored
   and re-raised in the caller). *)
let reraise_names =
  [
    "raise"; "raise_notrace"; "reraise"; "raise_with_backtrace";
    "get_raw_backtrace";
  ]

let mentions_reraise e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      Ast_iterator.expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Option.map norm (ident_path txt) with
              | Some p -> (
                  match List.rev p with
                  | last :: _ when List.mem last reraise_names -> found := true
                  | _ -> ())
              | None -> ())
          | _ -> ());
          super.expr self e);
    }
  in
  it.expr it e;
  !found

let catch_all_rule =
  {
    id = "catch-all-exn";
    summary = "try ... with _ -> that swallows every exception";
    check =
      (fun ctx str ->
        let acc = ref [] in
        iter_exprs str (fun e ->
            match e.pexp_desc with
            | Pexp_try (_, cases) ->
                List.iter
                  (fun c ->
                    if
                      catches_everything c.pc_lhs
                      && Option.is_none c.pc_guard
                      && not (mentions_reraise c.pc_rhs)
                    then
                      acc :=
                        diag ctx ~rule:"catch-all-exn" ~loc:c.pc_lhs.ppat_loc
                          ~message:
                            "catch-all handler can absorb Out_of_memory / \
                             Stack_overflow / Assert_failure into a result"
                          ~hint:
                            "match the specific exceptions, re-raise after \
                             cleanup, or [@lint.allow \"catch-all-exn\"] with \
                             a comment when total absorption is intended"
                        :: !acc)
                  cases
            | _ -> ());
        !acc);
  }

(* ------------------------------------------------------------------ *)
(* printf-in-lib: stdout printing from library code corrupts composed
   output (JSON reports, piped CLIs) and bypasses the logs facility.
   Report-generator modules whose product *is* stdout text may opt out
   with a file-level [@@@lint.allow "printf-in-lib"]. *)

let stdout_printers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes";
  ]

let printf_rule =
  {
    id = "printf-in-lib";
    summary = "stdout printing from library code";
    check =
      (fun ctx str ->
        if not ctx.in_lib then []
        else begin
          let acc = ref [] in
          let flag loc name =
            acc :=
              diag ctx ~rule:"printf-in-lib" ~loc
                ~message:
                  (Printf.sprintf "library code prints to stdout (%s)" name)
                ~hint:
                  "return a string, take a Format.formatter, use Logs, or \
                   [@@@lint.allow \"printf-in-lib\"] at the top of a report \
                   module"
              :: !acc
          in
          iter_exprs str (fun e ->
              match e.pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match Option.map norm (ident_path txt) with
                  | Some ([ f ] as p) when List.mem f stdout_printers ->
                      flag e.pexp_loc (String.concat "." p)
                  | Some ([ "Printf"; "printf" ] as p) ->
                      flag e.pexp_loc (String.concat "." p)
                  | Some ([ "Format"; f ] as p)
                    when String.equal f "printf"
                         || String.starts_with ~prefix:"print_" f ->
                      flag e.pexp_loc (String.concat "." p)
                  | Some ([ "Fmt"; "pr" ] as p) ->
                      flag e.pexp_loc (String.concat "." p)
                  | _ -> ())
              | _ -> ());
          !acc
        end);
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    poly_compare_rule;
    domain_unsafe_rule;
    float_eq_rule;
    unsafe_array_rule;
    catch_all_rule;
    printf_rule;
  ]
