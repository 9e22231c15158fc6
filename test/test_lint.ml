(* charon-lint (lib/lint) against the fixture mini-repo in
   fixtures/lint/mini: every rule — syntactic and interprocedural race
   — has a known-bad file that must be flagged and a known-good twin
   that must stay clean, plus [@lint.allow] suppression, pass/rule
   filtering, --json round-trip, docs sync, and an annotation-strip
   check against the real lib/parallel/wqueue.ml. *)

open Charon_lint

let fixture_root = "fixtures/lint/mini"

(* One lint run shared by all cases. *)
let result =
  lazy (Driver.lint ~root:fixture_root ~paths:[ "lib"; "bin" ] ())

let findings_in file rule =
  List.filter
    (fun (d : Diagnostic.t) -> d.Diagnostic.file = file && d.Diagnostic.rule = rule)
    (Lazy.force result).Driver.findings

let check_flagged ~file ~rule ~at_least =
  let hits = findings_in file rule in
  if List.length hits < at_least then
    Alcotest.failf "expected >= %d %s findings in %s, got %d" at_least rule
      file (List.length hits)

let check_line ~file ~rule ~line =
  let hits = findings_in file rule in
  if not (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.line = line) hits)
  then
    Alcotest.failf "expected a %s finding in %s at line %d, got lines [%s]"
      rule file line
      (String.concat "; "
         (List.map
            (fun (d : Diagnostic.t) -> string_of_int d.Diagnostic.line)
            hits))

let test_parses_fixture_tree () =
  let r = Lazy.force result in
  Alcotest.(check (list (pair string string))) "no parse errors" []
    r.Driver.errors;
  (* parallel/pool, worker/bad_* x12 + suppressed + good_race,
     solo/good, bin/main *)
  Alcotest.(check int) "files scanned" 17 r.Driver.files_scanned

let test_poly_compare () =
  check_flagged ~file:"lib/worker/bad_poly.ml" ~rule:"poly-compare"
    ~at_least:4;
  (* The mifgsm-style bug shape: [compare x 0.5] on line 3. *)
  match findings_in "lib/worker/bad_poly.ml" "poly-compare" with
  | d :: _ -> Alcotest.(check int) "first finding line" 3 d.Diagnostic.line
  | [] -> Alcotest.fail "no poly-compare findings"

let test_float_eq () =
  check_flagged ~file:"lib/worker/bad_float_eq.ml" ~rule:"float-eq"
    ~at_least:3

let test_float_array_eq () =
  (* = / <> whose operands are arrays of floats route to poly-compare
     (the Box.equal bug shape); all four spellings in the fixture —
     literal, Array.make, float array annotation, Vec.t alias — must
     fire, and none of them double-report under float-eq. *)
  check_flagged ~file:"lib/worker/bad_float_array_eq.ml" ~rule:"poly-compare"
    ~at_least:4;
  Alcotest.(check int)
    "no float-eq findings on array operands" 0
    (List.length (findings_in "lib/worker/bad_float_array_eq.ml" "float-eq"))

let test_domain_unsafe_global () =
  (* Two toplevel bindings plus the mutable type declaration. *)
  check_flagged ~file:"lib/worker/bad_global.ml" ~rule:"domain-unsafe-global"
    ~at_least:3

let test_unsafe_array () =
  check_flagged ~file:"lib/worker/bad_unsafe.ml" ~rule:"unsafe-array"
    ~at_least:2

let test_catch_all () =
  check_flagged ~file:"lib/worker/bad_catch.ml" ~rule:"catch-all-exn"
    ~at_least:2

let test_printf_in_lib () =
  check_flagged ~file:"lib/worker/bad_printf.ml" ~rule:"printf-in-lib"
    ~at_least:2

(* --- the interprocedural race pass, one seeded fixture per rule --- *)

let test_race_unguarded_global () =
  (* [record] is reachable from the Pool.run closure in [launch]; the
     Hashtbl access inside it is the finding, at its own line. *)
  check_flagged ~file:"lib/worker/bad_race_global.ml"
    ~rule:"race-unguarded-global" ~at_least:1;
  check_line ~file:"lib/worker/bad_race_global.ml"
    ~rule:"race-unguarded-global" ~line:7

let test_race_wrong_mutex () =
  (* [bump] holds nothing (line 9), [bump_wrong] holds the wrong mutex
     (line 13); [bump_locked] holds t.mutex and must not be flagged. *)
  check_flagged ~file:"lib/worker/bad_race_mutex.ml" ~rule:"race-wrong-mutex"
    ~at_least:2;
  check_line ~file:"lib/worker/bad_race_mutex.ml" ~rule:"race-wrong-mutex"
    ~line:9;
  check_line ~file:"lib/worker/bad_race_mutex.ml" ~rule:"race-wrong-mutex"
    ~line:13;
  if
    List.exists
      (fun (d : Diagnostic.t) -> d.Diagnostic.line > 15)
      (findings_in "lib/worker/bad_race_mutex.ml" "race-wrong-mutex")
  then Alcotest.fail "bump_locked (correctly locked) was flagged"

let test_race_captured_escape () =
  check_flagged ~file:"lib/worker/bad_race_capture.ml"
    ~rule:"race-captured-escape" ~at_least:1;
  check_line ~file:"lib/worker/bad_race_capture.ml"
    ~rule:"race-captured-escape" ~line:7

let test_race_locked_caller () =
  (* [poke] calls the [@race.locked "m"] function without the mutex;
     [poke_locked] holds it and must stay clean. *)
  check_flagged ~file:"lib/worker/bad_race_locked.ml"
    ~rule:"race-locked-caller" ~at_least:1;
  check_line ~file:"lib/worker/bad_race_locked.ml" ~rule:"race-locked-caller"
    ~line:8;
  Alcotest.(check int)
    "poke_locked not flagged" 1
    (List.length (findings_in "lib/worker/bad_race_locked.ml" "race-locked-caller"))

let test_race_bad_annotation () =
  (* atomic claim on a ref, a never-acquired guard, read_only on a
     type declaration. *)
  check_flagged ~file:"lib/worker/bad_race_annot.ml"
    ~rule:"race-bad-annotation" ~at_least:3

let test_good_twins_clean () =
  List.iter
    (fun (d : Diagnostic.t) ->
      if
        d.Diagnostic.file = "lib/solo/good.ml"
        || d.Diagnostic.file = "lib/worker/good_race.ml"
        || d.Diagnostic.file = "bin/main.ml"
      then
        Alcotest.failf "good twin flagged: %s" (Diagnostic.to_string d))
    ((Lazy.force result).Driver.findings
    @ (Lazy.force result).Driver.suppressed)

let test_every_rule_has_bad_and_good () =
  (* The acceptance bar: each registered rule — across both passes —
     fires somewhere in the fixture tree and never on the good twins
     (checked above). *)
  let flagged_rules =
    List.sort_uniq String.compare
      (List.map
         (fun (d : Diagnostic.t) -> d.Diagnostic.rule)
         ((Lazy.force result).Driver.findings
         @ (Lazy.force result).Driver.suppressed))
  in
  List.iter
    (fun id ->
      if not (List.mem id flagged_rules) then
        Alcotest.failf "rule %s never fired on the fixture tree" id)
    (Driver.rule_ids ())

let test_suppression () =
  let r = Lazy.force result in
  let in_suppressed_file (d : Diagnostic.t) =
    d.Diagnostic.file = "lib/worker/suppressed.ml"
  in
  List.iter
    (fun d ->
      if in_suppressed_file d then
        Alcotest.failf "annotated finding not suppressed: %s"
          (Diagnostic.to_string d))
    r.Driver.findings;
  let audit = List.filter in_suppressed_file r.Driver.suppressed in
  let rules =
    List.sort_uniq String.compare
      (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) audit)
  in
  Alcotest.(check (list string))
    "suppressed audit trail keeps the diagnostics"
    [ "domain-unsafe-global"; "float-eq"; "poly-compare" ]
    rules

let test_exit_semantics () =
  let r = Lazy.force result in
  Util.check_true "fixture tree is not clean" (not (Driver.clean r));
  let clean =
    Driver.lint ~root:fixture_root ~paths:[ "lib/solo"; "bin" ] ()
  in
  Util.check_true "good-only subtree is clean" (Driver.clean clean)

(* --- pass and rule selection --- *)

let is_race_rule id =
  String.length id >= 5 && String.sub id 0 5 = "race-"

let test_pass_selection () =
  let syn =
    Driver.lint ~passes:[ Driver.Syntactic ] ~root:fixture_root
      ~paths:[ "lib"; "bin" ] ()
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      if is_race_rule d.Diagnostic.rule then
        Alcotest.failf "race finding under --pass syntactic: %s"
          (Diagnostic.to_string d))
    syn.Driver.findings;
  let race =
    Driver.lint ~passes:[ Driver.Race ] ~root:fixture_root
      ~paths:[ "lib"; "bin" ] ()
  in
  Util.check_true "race pass has findings" (race.Driver.findings <> []);
  List.iter
    (fun (d : Diagnostic.t) ->
      if not (is_race_rule d.Diagnostic.rule) then
        Alcotest.failf "syntactic finding under --pass race: %s"
          (Diagnostic.to_string d))
    race.Driver.findings;
  (* Both passes together partition the default run. *)
  Alcotest.(check int)
    "syntactic + race = all"
    (List.length (Lazy.force result).Driver.findings)
    (List.length syn.Driver.findings + List.length race.Driver.findings)

let test_only_exclude () =
  let only =
    Driver.lint ~only:[ "race-captured-escape" ] ~root:fixture_root
      ~paths:[ "lib"; "bin" ] ()
  in
  Util.check_true "--only keeps the selected rule"
    (only.Driver.findings <> []);
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check string)
        "--only filters to the rule" "race-captured-escape"
        d.Diagnostic.rule)
    only.Driver.findings;
  let excl =
    Driver.lint ~exclude:[ "race-captured-escape" ] ~root:fixture_root
      ~paths:[ "lib"; "bin" ] ()
  in
  if
    List.exists
      (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "race-captured-escape")
      excl.Driver.findings
  then Alcotest.fail "--exclude left the excluded rule in";
  Alcotest.(check int)
    "only + exclude = all"
    (List.length (Lazy.force result).Driver.findings)
    (List.length only.Driver.findings + List.length excl.Driver.findings)

let test_json_roundtrip () =
  let r = Lazy.force result in
  let j = Util.Json.parse (Driver.render_json r) in
  Alcotest.(check string)
    "tool" "charon-lint"
    Util.Json.(to_string (member "tool" j));
  Alcotest.(check int)
    "files" r.Driver.files_scanned
    Util.Json.(to_int (member "files" j));
  let findings = Util.Json.(to_list (member "findings" j)) in
  Alcotest.(check int)
    "findings count" (List.length r.Driver.findings)
    (List.length findings);
  List.iter2
    (fun (d : Diagnostic.t) jd ->
      Alcotest.(check string)
        "finding file" d.Diagnostic.file
        Util.Json.(to_string (member "file" jd));
      Alcotest.(check int)
        "finding line" d.Diagnostic.line
        Util.Json.(to_int (member "line" jd));
      Alcotest.(check string)
        "finding rule" d.Diagnostic.rule
        Util.Json.(to_string (member "rule" jd)))
    r.Driver.findings findings;
  Alcotest.(check int)
    "suppressed count" (List.length r.Driver.suppressed)
    (List.length Util.Json.(to_list (member "suppressed" j)))

let test_json_race_findings () =
  (* Race findings survive the --json round trip with the same schema
     as syntactic ones. *)
  let race =
    Driver.lint ~passes:[ Driver.Race ] ~root:fixture_root
      ~paths:[ "lib"; "bin" ] ()
  in
  let j = Util.Json.parse (Driver.render_json race) in
  let findings = Util.Json.(to_list (member "findings" j)) in
  Util.check_true "race findings present in json" (findings <> []);
  List.iter
    (fun jd ->
      Util.check_true "race rule id in json"
        (is_race_rule Util.Json.(to_string (member "rule" jd))))
    findings

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_render_text () =
  let r = Lazy.force result in
  let text = Driver.render_text ~show_suppressed:true r in
  Util.check_true "mentions a finding" (contains ~sub:"bad_poly.ml" text);
  Util.check_true "mentions a race finding"
    (contains ~sub:"race-wrong-mutex" text);
  Util.check_true "mentions the audit trail"
    (contains ~sub:"suppressed.ml" text)

(* --- docs stay in sync with the registry --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_docs_in_sync () =
  (* Every rule id has a `### \`rule-id\`` section in docs/lint.md and
     every such section names a registered rule, so --list-rules and
     the docs cannot drift apart. *)
  let doc = read_file "../docs/lint.md" in
  let documented = ref [] in
  List.iter
    (fun line ->
      let prefix = "### `" in
      let pl = String.length prefix in
      if
        String.length line > pl
        && String.sub line 0 pl = prefix
        && String.contains_from line pl '`'
      then
        let stop = String.index_from line pl '`' in
        documented := String.sub line pl (stop - pl) :: !documented)
    (String.split_on_char '\n' doc);
  let documented = List.sort_uniq String.compare !documented in
  let registered = List.sort_uniq String.compare (Driver.rule_ids ()) in
  Alcotest.(check (list string))
    "docs/lint.md sections match --list-rules" registered documented

(* --- stripping any wqueue annotation reproduces a finding --- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let race_attr_spans src =
  (* Occurrences of [@race....] / [@@race....] including the closing
     bracket (the payloads are string literals with no nested ']'). *)
  let n = String.length src in
  let starts_at i p =
    i + String.length p <= n && String.sub src i (String.length p) = p
  in
  let spans = ref [] in
  let i = ref 0 in
  while !i < n do
    let at = !i in
    if starts_at at "[@race." || starts_at at "[@@race." then begin
      let stop = String.index_from src at ']' in
      spans := (at, stop + 1) :: !spans;
      i := stop + 1
    end
    else incr i
  done;
  List.rev !spans

let test_wqueue_annotations_load_bearing () =
  (* The real lib/parallel/wqueue.ml, the region workers' shared queue:
     deleting any single [@race.*] annotation must reproduce at least
     one finding when the file is linted standalone, proving the
     annotations are machine-checked claims rather than decoration. *)
  let src = read_file "../lib/parallel/wqueue.ml" in
  let spans = race_attr_spans src in
  Util.check_true "wqueue has race annotations" (List.length spans >= 4);
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "charon_lint_strip_%d" (Unix.getpid ()))
  in
  let dir = Filename.concat tmp "lib/parallel" in
  List.iteri
    (fun k (a, b) ->
      if Sys.file_exists tmp then rm_rf tmp;
      ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)));
      write_file (Filename.concat dir "dune") "(library\n (name parallel))\n";
      let stripped =
        String.sub src 0 a ^ String.sub src b (String.length src - b)
      in
      write_file (Filename.concat dir "wqueue.ml") stripped;
      let r = Driver.lint ~root:tmp ~paths:[ "lib" ] () in
      Alcotest.(check (list (pair string string)))
        "stripped wqueue still parses" [] r.Driver.errors;
      if r.Driver.findings = [] then
        Alcotest.failf
          "stripping wqueue annotation %d (%s) produced no finding" k
          (String.sub src a (b - a)))
    spans;
  if Sys.file_exists tmp then rm_rf tmp

let () =
  Alcotest.run "lint"
    [
      ( "driver",
        [
          Util.case "parses fixture tree" test_parses_fixture_tree;
          Util.case "exit semantics" test_exit_semantics;
          Util.case "pass selection" test_pass_selection;
          Util.case "--only / --exclude" test_only_exclude;
          Util.case "render text" test_render_text;
        ] );
      ( "rules",
        [
          Util.case "poly-compare" test_poly_compare;
          Util.case "float-eq" test_float_eq;
          Util.case "float-array poly-compare" test_float_array_eq;
          Util.case "domain-unsafe-global" test_domain_unsafe_global;
          Util.case "unsafe-array" test_unsafe_array;
          Util.case "catch-all-exn" test_catch_all;
          Util.case "printf-in-lib" test_printf_in_lib;
          Util.case "good twins clean" test_good_twins_clean;
          Util.case "every rule fires" test_every_rule_has_bad_and_good;
        ] );
      ( "race",
        [
          Util.case "race-unguarded-global" test_race_unguarded_global;
          Util.case "race-wrong-mutex" test_race_wrong_mutex;
          Util.case "race-captured-escape" test_race_captured_escape;
          Util.case "race-locked-caller" test_race_locked_caller;
          Util.case "race-bad-annotation" test_race_bad_annotation;
          Util.case "wqueue annotations load-bearing"
            test_wqueue_annotations_load_bearing;
        ] );
      ( "suppression",
        [ Util.case "allow attribute" test_suppression ] );
      ( "json",
        [
          Util.case "roundtrip" test_json_roundtrip;
          Util.case "race findings" test_json_race_findings;
        ] );
      ( "docs", [ Util.case "rules documented" test_docs_in_sync ] );
    ]
