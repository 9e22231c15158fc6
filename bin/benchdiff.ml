(* benchdiff: compare two BENCH_*.json files and flag perf regressions.

   Usage:
     dune exec bin/benchdiff.exe -- BASE.json NEW.json
       [--threshold 0.15]   relative slowdown tolerated before a record
                            counts as a regression (default 0.15)
     [--warn-only]          report regressions but exit 0 (CI on noisy
                            shared runners)
     [--only GROUP]         compare only kernels records of that group
                            (e.g. CI's hard gate on `gemm` while conv /
                            deep-propagate stay warn-only)

   Understands both repo benchmark schemas:
     - kernels files (bench/kernels.exe): records keyed by
       (group, name, shape, workers) — the worker count defaults to 1
       when a row has no such field, so rows only ever compare
       like-for-like — metric ns_per_op;
     - suite files (Runner.save_json): records keyed by
       (tool, network, property), metric time_seconds.
   Top-level wall_seconds and telemetry counters are compared too, as
   informational context (counters measure work done, not time, so they
   never trip the gate on their own).

   Exit status: 0 no regression (or --warn-only), 1 regression beyond
   the threshold, 2 usage / IO / parse errors or nothing comparable. *)

module J = Telemetry.Jsonw

type record = { key : string; group : string option; metric : float }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchdiff: " ^ s); exit 2) fmt

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> die "%s" msg
  | ic ->
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match J.parse text with
      | json -> json
      | exception J.Parse_error msg -> die "%s: %s" path msg)

let str_field name json =
  Option.bind (J.member name json) J.to_string_opt

let float_field name json =
  Option.bind (J.member name json) J.to_float_opt

let int_field name json = Option.bind (J.member name json) J.to_int_opt

(* One comparable record per result row.  A kernels row is keyed by
   (group, name, shape) with ns_per_op; a suite row by (tool, network,
   property) with time_seconds.  Rows that fit neither schema are
   skipped — so a file mixing both, or a future schema, degrades to
   "fewer comparable records", not an error. *)
let record_of_row row =
  match (str_field "group" row, str_field "name" row, str_field "shape" row) with
  | Some g, Some n, Some s -> begin
      match float_field "ns_per_op" row with
      | Some m ->
          (* Workers join the key so a 4-worker row can only ever be
             compared against another 4-worker row; rows written before
             the field existed were all sequential. *)
          let w = Option.value ~default:1 (int_field "workers" row) in
          Some
            {
              key = Printf.sprintf "%s/%s %s@w%d" g n s w;
              group = Some g;
              metric = m;
            }
      | None -> None
    end
  | _ -> begin
      match
        ( str_field "tool" row,
          str_field "network" row,
          str_field "property" row,
          float_field "time_seconds" row )
      with
      | Some t, Some n, Some p, Some m ->
          Some { key = Printf.sprintf "%s/%s/%s" t n p; group = None; metric = m }
      | _ -> None
    end

let records json =
  match J.member "results" json with
  | Some (J.Arr rows) -> List.filter_map record_of_row rows
  | Some _ | None -> []

let counters json =
  match J.member "counters" json with
  | Some (J.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int_opt v))
        fields
  | Some _ | None -> []

let () =
  let threshold = ref 0.15 in
  let warn_only = ref false in
  let only = ref None in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest -> begin
        match float_of_string_opt v with
        | Some t when t > 0.0 ->
            threshold := t;
            parse_args rest
        | Some _ | None -> die "--threshold expects a positive float (got %s)" v
      end
    | "--warn-only" :: rest ->
        warn_only := true;
        parse_args rest
    | "--only" :: g :: rest ->
        only := Some g;
        parse_args rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        die "unknown option %s" arg
    | file :: rest ->
        files := file :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let base_path, new_path =
    match List.rev !files with
    | [ b; n ] -> (b, n)
    | _ -> die "expected exactly two files: benchdiff BASE.json NEW.json"
  in
  let base = load base_path and next = load new_path in
  let keep (r : record) =
    match !only with None -> true | Some g -> r.group = Some g
  in
  let base_records = List.filter keep (records base) in
  let next_records = List.filter keep (records next) in
  let qualifier =
    match !only with
    | None -> ""
    | Some g -> Printf.sprintf " in group %s" g
  in
  if base_records = [] then
    die "%s: no benchmark records found%s" base_path qualifier;
  if next_records = [] then
    die "%s: no benchmark records found%s" new_path qualifier;
  let regressions = ref 0 and improvements = ref 0 and compared = ref 0 in
  Printf.printf "%-44s %14s %14s %8s\n" "record" "base" "new" "ratio";
  List.iter
    (fun (b : record) ->
      match List.find_opt (fun (n : record) -> n.key = b.key) next_records with
      | None -> ()
      | Some n when b.metric <= 0.0 || n.metric <= 0.0 -> ()
      | Some n ->
          incr compared;
          let ratio = n.metric /. b.metric in
          let flag =
            if ratio > 1.0 +. !threshold then begin
              incr regressions;
              "  REGRESSION"
            end
            else if ratio < 1.0 -. !threshold then begin
              incr improvements;
              "  improved"
            end
            else ""
          in
          Printf.printf "%-44s %14.1f %14.1f %7.2fx%s\n" b.key b.metric
            n.metric ratio flag)
    base_records;
  if !compared = 0 then
    die "no records in common between %s and %s" base_path new_path;
  (match (float_field "wall_seconds" base, float_field "wall_seconds" next) with
  | Some wb, Some wn when wb > 0.0 ->
      Printf.printf "%-44s %14.2f %14.2f %7.2fx\n" "(wall_seconds)" wb wn
        (wn /. wb)
  | _ -> ());
  let base_counters = counters base in
  let next_counters = counters next in
  if base_counters <> [] && next_counters <> [] then begin
    Printf.printf "\ncounters (work done; informational):\n";
    List.iter
      (fun (k, b) ->
        match List.assoc_opt k next_counters with
        | Some n when b > 0 ->
            Printf.printf "  %-42s %14d %14d %7.2fx\n" k b n
              (float_of_int n /. float_of_int b)
        | Some _ | None -> ())
      base_counters
  end;
  Printf.printf
    "\n%d records compared: %d regression(s), %d improvement(s) at %.0f%% \
     threshold\n"
    !compared !regressions !improvements
    (100.0 *. !threshold);
  if !regressions > 0 && not !warn_only then exit 1
