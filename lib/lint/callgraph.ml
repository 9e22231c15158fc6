open Parsetree

type decl = {
  did : int;
  file : string;
  name : string;
  body : Parsetree.expression;
  attrs : Parsetree.attributes;
  loc : Location.t;
}

type t = {
  all : decl array;
  by_file : (string, (string, int) Hashtbl.t) Hashtbl.t;
      (* file -> binding name -> did *)
  lib_of : (string, string) Hashtbl.t;  (* file -> dune library name *)
  module_file : (string * string, string) Hashtbl.t;
      (* (lib, Module) -> file *)
  lib_by_module : (string, string) Hashtbl.t;
      (* capitalized lib name -> lib name *)
  mutable is_reachable : bool array;
}

let spawn_suffixes =
  [
    [ "Domain"; "spawn" ];
    [ "Pool"; "run" ];
    [ "Pool"; "iter" ];
    [ "Kpool"; "run" ];
  ]

let suffix_matches path suffix =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls
  && List.equal String.equal
       (List.filteri (fun i _ -> i >= lp - ls) path)
       suffix

let spawn_head path = List.exists (suffix_matches path) spawn_suffixes

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The toplevel value bindings of one structure, descending into plain
   nested modules with a dotted prefix.  [let () = ...] and other
   unnamed patterns get a synthetic name: they cannot be referenced,
   but they can contain spawn sites and so must exist as nodes. *)
let decls_of_structure str =
  let out = ref [] in
  let anon = ref 0 in
  let add ~prefix vb =
    let name =
      match (vb.pvb_pat.ppat_desc : pattern_desc) with
      | Ppat_var { txt; _ } -> Some txt
      | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
      | _ -> None
    in
    let name =
      match name with
      | Some n -> if prefix = "" then n else prefix ^ "." ^ n
      | None ->
          incr anon;
          Printf.sprintf "_anon%d" !anon
    in
    out := (name, vb.pvb_expr, vb.pvb_attributes, vb.pvb_loc) :: !out
  in
  let sub_prefix prefix = function
    | None -> prefix
    | Some n -> if prefix = "" then n else prefix ^ "." ^ n
  in
  let rec walk_items ~prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (add ~prefix) vbs
        | Pstr_module mb ->
            walk_module ~prefix:(sub_prefix prefix mb.pmb_name.txt) mb.pmb_expr
        | Pstr_recmodule mbs ->
            List.iter
              (fun mb ->
                walk_module
                  ~prefix:(sub_prefix prefix mb.pmb_name.txt)
                  mb.pmb_expr)
              mbs
        | Pstr_include i -> walk_module ~prefix i.pincl_mod
        | _ -> ())
      items
  and walk_module ~prefix me =
    match me.pmod_desc with
    | Pmod_structure items -> walk_items ~prefix items
    | Pmod_constraint (m, _) -> walk_module ~prefix m
    | Pmod_functor (_, m) -> walk_module ~prefix m
    | _ -> ()
  in
  walk_items ~prefix:"" str;
  List.rev !out

let resolve t ~file path =
  let in_file file name =
    Option.bind (Hashtbl.find_opt t.by_file file) (fun tbl ->
        Hashtbl.find_opt tbl name)
  in
  let r =
    match path with
    | [] -> None
    | [ x ] -> in_file file x
    | first :: rest -> (
        (* A dotted path: a nested module of this file, a sibling
           module of the same library, or a fully qualified
           Lib.Module.name through the dune graph. *)
        match in_file file (String.concat "." path) with
        | Some d -> Some d
        | None -> (
            let same_lib () =
              Option.bind (Hashtbl.find_opt t.lib_of file) (fun lib ->
                  Option.bind
                    (Hashtbl.find_opt t.module_file (lib, first))
                    (fun f' -> in_file f' (String.concat "." rest)))
            in
            let cross_lib () =
              match rest with
              | m :: (_ :: _ as rest') ->
                  Option.bind
                    (Hashtbl.find_opt t.lib_by_module first)
                    (fun lib ->
                      Option.bind
                        (Hashtbl.find_opt t.module_file (lib, m))
                        (fun f' -> in_file f' (String.concat "." rest')))
              | _ -> None
            in
            match same_lib () with Some d -> Some d | None -> cross_lib ()))
  in
  Option.map (fun i -> t.all.(i)) r

let build ~files ~libs =
  let all =
    let next = ref 0 in
    Array.of_list
      (List.concat_map
         (fun (file, str) ->
           List.map
             (fun (name, body, attrs, loc) ->
               let did = !next in
               incr next;
               { did; file; name; body; attrs; loc })
             (decls_of_structure str))
         files)
  in
  let by_file = Hashtbl.create 64 in
  Array.iter
    (fun d ->
      let tbl =
        match Hashtbl.find_opt by_file d.file with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 16 in
            Hashtbl.add by_file d.file tbl;
            tbl
      in
      (* Later bindings shadow earlier ones of the same name, matching
         the language's own scoping for references below them. *)
      Hashtbl.replace tbl d.name d.did)
    all;
  let lib_of = Hashtbl.create 64 in
  let module_file = Hashtbl.create 64 in
  List.iter
    (fun (file, _) ->
      match Deps.lib_of_file libs file with
      | Some l ->
          Hashtbl.replace lib_of file l.Deps.name;
          Hashtbl.replace module_file
            (l.Deps.name, module_name_of_file file)
            file
      | None -> ())
    files;
  let lib_by_module = Hashtbl.create 16 in
  List.iter
    (fun (l : Deps.lib) ->
      Hashtbl.replace lib_by_module (String.capitalize_ascii l.name) l.name)
    libs;
  let t =
    {
      all;
      by_file;
      lib_of;
      module_file;
      lib_by_module;
      is_reachable = [||];
    }
  in
  (* Reference edges and spawn roots, in one sweep per binding. *)
  let refs = Array.make (Array.length all) [] in
  let roots = ref [] in
  Array.iter
    (fun d ->
      let acc = ref [] in
      Astq.iter_expr d.body (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Option.map Astq.norm (Astq.ident_path txt) with
              | Some path -> (
                  if spawn_head path then roots := d.did :: !roots;
                  match resolve t ~file:d.file path with
                  | Some target -> acc := target.did :: !acc
                  | None -> ())
              | None -> ())
          | _ -> ());
      refs.(d.did) <- !acc)
    all;
  let is_reachable = Array.make (Array.length all) false in
  let queue = Queue.create () in
  let visit did =
    if not is_reachable.(did) then begin
      is_reachable.(did) <- true;
      Queue.add did queue
    end
  in
  List.iter visit !roots;
  while not (Queue.is_empty queue) do
    List.iter visit refs.(Queue.pop queue)
  done;
  t.is_reachable <- is_reachable;
  t

let decls t = Array.to_list t.all

let reachable t d = t.is_reachable.(d.did)
