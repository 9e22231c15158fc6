open Linalg
open Domains

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_unlimited () =
  let b = Common.Budget.unlimited () in
  Common.Budget.spend b 1_000_000;
  Util.check_true "never exhausted" (not (Common.Budget.exhausted b))

let test_budget_steps () =
  let b = Common.Budget.of_steps 10 in
  Util.check_true "fresh" (not (Common.Budget.exhausted b));
  Common.Budget.spend b 9;
  Util.check_true "under" (not (Common.Budget.exhausted b));
  Common.Budget.spend b 1;
  Util.check_true "exact limit exhausts" (Common.Budget.exhausted b);
  Alcotest.(check int) "steps tracked" 10 (Common.Budget.steps_used b)

let test_budget_seconds () =
  let b = Common.Budget.of_seconds 0.05 in
  Util.check_true "fresh" (not (Common.Budget.exhausted b));
  Unix.sleepf 0.08;
  (* Every poll reads the clock, so a pass that polls once (a short
     network's analysis) still sees its deadline. *)
  Util.check_true "first poll past the deadline exhausts"
    (Common.Budget.exhausted b);
  Util.check_true "sticky once seen" (Common.Budget.exhausted b);
  Util.check_true "elapsed measured" (Common.Budget.elapsed b >= 0.05)

let test_budget_combined () =
  let b = Common.Budget.create ~seconds:1000.0 ~steps:3 () in
  Common.Budget.spend b 3;
  Util.check_true "steps bind first" (Common.Budget.exhausted b)

(* ------------------------------------------------------------------ *)
(* Outcome *)

let test_outcome_labels () =
  Alcotest.(check string) "verified" "verified"
    (Common.Outcome.label Common.Outcome.Verified);
  Alcotest.(check string) "falsified" "falsified"
    (Common.Outcome.label (Common.Outcome.Refuted [| 0.0 |]));
  Alcotest.(check string) "timeout" "timeout"
    (Common.Outcome.label Common.Outcome.Timeout);
  Alcotest.(check string) "unknown" "unknown"
    (Common.Outcome.label Common.Outcome.Unknown)

let test_outcome_solved () =
  Util.check_true "verified solved" (Common.Outcome.is_solved Common.Outcome.Verified);
  Util.check_true "refuted solved"
    (Common.Outcome.is_solved (Common.Outcome.Refuted [| 1.0 |]));
  Util.check_true "timeout unsolved"
    (not (Common.Outcome.is_solved Common.Outcome.Timeout));
  Util.check_true "unknown unsolved"
    (not (Common.Outcome.is_solved Common.Outcome.Unknown))

let test_outcome_agreement () =
  let refuted = Common.Outcome.Refuted [| 0.0 |] in
  Util.check_true "verified vs refuted conflict"
    (not (Common.Outcome.agrees Common.Outcome.Verified refuted));
  Util.check_true "timeout agrees with anything"
    (Common.Outcome.agrees Common.Outcome.Timeout refuted
    && Common.Outcome.agrees Common.Outcome.Timeout Common.Outcome.Verified);
  Util.check_true "same verdicts agree"
    (Common.Outcome.agrees refuted refuted
    && Common.Outcome.agrees Common.Outcome.Verified Common.Outcome.Verified)

let test_outcome_settle_table () =
  (* Every (settled, incoming) pair: the first outcome settles, a
     Refuted replaces a settled Timeout or Unknown, and nothing else
     replaces a settled outcome — in particular a second refutation
     never swaps the witness already in hand. *)
  let open Common.Outcome in
  let x = [| 1.0 |] and y = [| 2.0 |] in
  let show = function
    | None -> "none"
    | Some (Refuted w) -> Printf.sprintf "falsified %g" w.(0)
    | Some o -> label o
  in
  List.iter
    (fun (settled, incoming, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s then %s" (show settled) (show (Some incoming)))
        expected
        (show (settle settled incoming)))
    [
      (None, Verified, "verified");
      (None, Refuted y, "falsified 2");
      (None, Timeout, "timeout");
      (None, Unknown, "unknown");
      (Some Verified, Verified, "verified");
      (Some Verified, Refuted y, "verified");
      (Some Verified, Timeout, "verified");
      (Some Verified, Unknown, "verified");
      (Some (Refuted x), Verified, "falsified 1");
      (Some (Refuted x), Refuted y, "falsified 1");
      (Some (Refuted x), Timeout, "falsified 1");
      (Some (Refuted x), Unknown, "falsified 1");
      (Some Timeout, Verified, "timeout");
      (Some Timeout, Refuted y, "falsified 2");
      (Some Timeout, Timeout, "timeout");
      (Some Timeout, Unknown, "timeout");
      (Some Unknown, Verified, "unknown");
      (Some Unknown, Refuted y, "falsified 2");
      (Some Unknown, Timeout, "unknown");
      (Some Unknown, Unknown, "unknown");
    ]

(* ------------------------------------------------------------------ *)
(* Property *)

let test_property_holds_at () =
  let net = Nn.Init.xor () in
  let region = Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let p = Common.Property.create ~region ~target:1 () in
  Util.check_true "xor(0,1) = 1 satisfies" (Common.Property.holds_at net p [| 0.0; 1.0 |]);
  Util.check_true "xor(0,0) = 0 violates"
    (not (Common.Property.holds_at net p [| 0.0; 0.0 |]))

let test_property_ties_violate () =
  (* A constant network scores every class equally: no strict winner, so
     no class's robustness property can hold. *)
  let w = Mat.zeros 2 1 in
  let net = Nn.Network.create ~input_dim:1 [ Nn.Layer.affine w (Vec.zeros 2) ] in
  let p =
    Common.Property.create ~region:(Box.create ~lo:[| 0.0 |] ~hi:[| 1.0 |]) ~target:0 ()
  in
  Util.check_true "tie is a violation" (not (Common.Property.holds_at net p [| 0.5 |]))

let test_property_check_samples () =
  let net = Nn.Init.xor () in
  let region = Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  let good = Common.Property.create ~region ~target:1 () in
  Util.check_true "true property survives sampling"
    (Common.Property.check_samples (Rng.create 1) net good ~n:500 = None);
  let bad = Common.Property.create ~region ~target:0 () in
  match Common.Property.check_samples (Rng.create 1) net bad ~n:500 with
  | Some x -> Util.check_true "witness in region" (Box.contains region x)
  | None -> Alcotest.fail "false property should be caught by sampling"

let test_property_rejects_negative_class () =
  Alcotest.check_raises "negative class"
    (Invalid_argument "Property.create: negative target class") (fun () ->
      ignore
        (Common.Property.create
           ~region:(Box.create ~lo:[| 0.0 |] ~hi:[| 1.0 |])
           ~target:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Regionspec *)

let test_regionspec_floats () =
  Util.check_vec "parses" [| 1.0; -2.5; 0.0 |]
    (Common.Regionspec.parse_floats "1, -2.5 ,0");
  Alcotest.check_raises "rejects junk"
    (Failure "Regionspec: not a number: \"x\"") (fun () ->
      ignore (Common.Regionspec.parse_floats "1,x"))

let test_regionspec_box () =
  let b = Common.Regionspec.parse_box "0:1, -1:2" in
  Util.check_vec "lo" [| 0.0; -1.0 |] b.Box.lo;
  Util.check_vec "hi" [| 1.0; 2.0 |] b.Box.hi;
  Alcotest.check_raises "rejects inverted"
    (Failure "Regionspec: Box.create: lo.(0) = 2 > hi.(0) = 1") (fun () ->
      ignore (Common.Regionspec.parse_box "2:1"))

let test_regionspec_options () =
  let b =
    Common.Regionspec.of_options ~center:(Some "0.5,0.5") ~radius:0.1 ~box:None
  in
  Util.check_vec "center form" [| 0.4; 0.4 |] b.Box.lo;
  let b2 =
    Common.Regionspec.of_options ~center:None ~radius:0.0 ~box:(Some "0:1")
  in
  Util.check_vec "box form" [| 0.0 |] b2.Box.lo;
  Alcotest.check_raises "both given"
    (Failure "Regionspec: give either a center/radius or a box, not both")
    (fun () ->
      ignore
        (Common.Regionspec.of_options ~center:(Some "0") ~radius:0.1
           ~box:(Some "0:1")));
  Alcotest.check_raises "neither given"
    (Failure "Regionspec: a region is required") (fun () ->
      ignore (Common.Regionspec.of_options ~center:None ~radius:0.1 ~box:None))

let test_regionspec_roundtrip () =
  Util.repeat ~seed:200 (fun rng _ ->
      let b = Util.small_box rng 3 in
      let b' = Common.Regionspec.parse_box (Common.Regionspec.to_box_string b) in
      Util.check_true "roundtrip" (Box.equal b b'))

(* ------------------------------------------------------------------ *)
(* The search loop's heap ([Parallel.Wqueue]), driven as one worker
   drives it: push, then pop and finish *)

let test_wqueue_orders () =
  let q = Parallel.Wqueue.create () in
  List.iter
    (fun (p, v) -> Parallel.Wqueue.push q ~priority:p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  Alcotest.(check int) "size" 4 (Parallel.Wqueue.size q);
  let order = ref [] in
  let rec drain () =
    match Util.pop_finish q with
    | Some v ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "min-first" [ "z"; "a"; "b"; "c" ]
    (List.rev !order);
  Alcotest.(check int) "empty after drain" 0 (Parallel.Wqueue.size q)

let test_wqueue_random_is_sorted () =
  Util.repeat ~seed:201 (fun rng _ ->
      let q = Parallel.Wqueue.create () in
      let n = 1 + Rng.int rng 50 in
      for _ = 1 to n do
        let p = Rng.gaussian rng in
        Parallel.Wqueue.push q ~priority:p p
      done;
      let prev = ref neg_infinity in
      let rec drain () =
        match Util.pop_finish q with
        | Some p ->
            Util.check_true "non-decreasing priorities" (p >= !prev);
            prev := p;
            drain ()
        | None -> ()
      in
      drain ())

(* ------------------------------------------------------------------ *)
(* Propfile *)

let sample_propfile =
  {|# a comment
property p1
network net.txt
target 3
box 0:1,0.25:0.75
end

property p2
target 0
center 0.5,0.5
radius 0.1
end
|}

let test_propfile_parse () =
  match Common.Propfile.parse sample_propfile with
  | [ a; b ] ->
      Alcotest.(check string) "name" "p1"
        a.Common.Propfile.property.Common.Property.name;
      Alcotest.(check (option string)) "network" (Some "net.txt")
        a.Common.Propfile.network;
      Alcotest.(check int) "target" 3
        a.Common.Propfile.property.Common.Property.target;
      Util.check_vec "box hi" [| 1.0; 0.75 |]
        a.Common.Propfile.property.Common.Property.region.Box.hi;
      Util.check_vec "center/radius lo" [| 0.4; 0.4 |]
        b.Common.Propfile.property.Common.Property.region.Box.lo;
      Alcotest.(check (option string)) "no network" None
        b.Common.Propfile.network
  | other ->
      Alcotest.failf "expected two entries, got %d" (List.length other)

let test_propfile_roundtrip () =
  let entries = Common.Propfile.parse sample_propfile in
  let entries' = Common.Propfile.parse (Common.Propfile.print entries) in
  List.iter2
    (fun (a : Common.Propfile.entry) (b : Common.Propfile.entry) ->
      Alcotest.(check string) "name" a.Common.Propfile.property.Common.Property.name
        b.Common.Propfile.property.Common.Property.name;
      Util.check_true "same region"
        (Box.equal a.Common.Propfile.property.Common.Property.region
           b.Common.Propfile.property.Common.Property.region))
    entries entries'

let test_propfile_errors () =
  let check_fails msg text =
    match Common.Propfile.parse text with
    | _ -> Alcotest.failf "%s: expected failure" msg
    | exception Failure _ -> ()
  in
  check_fails "missing end" "property p
target 1
box 0:1
";
  check_fails "missing target" "property p
box 0:1
end
";
  check_fails "missing region" "property p
target 0
end
";
  check_fails "both region forms"
    "property p
target 0
box 0:1
center 0.5
radius 0.1
end
";
  check_fails "unknown keyword" "property p
foo bar
end
";
  check_fails "stray end" "end
"

let () =
  Alcotest.run "common"
    [
      ( "budget",
        [
          Util.case "unlimited" test_budget_unlimited;
          Util.case "step budget" test_budget_steps;
          Util.case "wall-clock budget" test_budget_seconds;
          Util.case "combined budget" test_budget_combined;
        ] );
      ( "outcome",
        [
          Util.case "labels" test_outcome_labels;
          Util.case "solved classification" test_outcome_solved;
          Util.case "agreement" test_outcome_agreement;
          Util.case "settle table" test_outcome_settle_table;
        ] );
      ( "property",
        [
          Util.case "holds_at" test_property_holds_at;
          Util.case "ties violate" test_property_ties_violate;
          Util.case "check_samples" test_property_check_samples;
          Util.case "rejects negative class" test_property_rejects_negative_class;
        ] );
      ( "regionspec",
        [
          Util.case "float lists" test_regionspec_floats;
          Util.case "box parsing" test_regionspec_box;
          Util.case "option resolution" test_regionspec_options;
          Util.case "roundtrip" test_regionspec_roundtrip;
        ] );
      ( "propfile",
        [
          Util.case "parse" test_propfile_parse;
          Util.case "roundtrip" test_propfile_roundtrip;
          Util.case "errors" test_propfile_errors;
        ] );
      ( "wqueue-heap",
        [
          Util.case "orders elements" test_wqueue_orders;
          Util.case "random priorities sorted" test_wqueue_random_is_sorted;
        ] );
    ]
