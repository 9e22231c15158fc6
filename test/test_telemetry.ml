(* Telemetry: spans, counters, the JSONL trace sink, and the guarantee
   that turning any of it on does not perturb verification results. *)

open Linalg

let temp_trace () = Filename.temp_file "charon_trace" ".jsonl"

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let with_trace f =
  let path = temp_trace () in
  Telemetry.enable ~path ();
  let events =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        Sys.remove path)
      (fun () ->
        f ();
        Telemetry.disable ();
        List.map Util.Json.parse (read_lines path))
  in
  events

let span_events ?name events =
  List.filter
    (fun e ->
      Util.Json.to_string (Util.Json.member "kind" e) = "span"
      &&
      match name with
      | None -> true
      | Some n -> Util.Json.to_string (Util.Json.member "name" e) = n)
    events

(* ------------------------------------------------------------------ *)
(* Disabled mode *)

let test_disabled_is_inert () =
  let c = Telemetry.Metrics.counter "test.inert" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.add c 41;
  Alcotest.(check int) "counter stays zero" 0 (Telemetry.Metrics.value c);
  let sp = Telemetry.Span.enter "test.inert.span" in
  Telemetry.Span.exit sp;
  Util.check_true "wrap returns its value"
    (Telemetry.Span.wrap "test.inert.wrap" (fun () -> 7) = 7);
  Util.check_true "not enabled" (not (Telemetry.enabled ()))

(* ------------------------------------------------------------------ *)
(* Span nesting in the trace *)

let test_span_nesting () =
  let events =
    with_trace (fun () ->
        Telemetry.Span.wrap "test.outer" (fun () ->
            Telemetry.Span.wrap "test.inner" (fun () -> ());
            Telemetry.Span.wrap "test.inner" (fun () -> ())))
  in
  let outer =
    match span_events ~name:"test.outer" events with
    | [ e ] -> e
    | es -> Alcotest.failf "expected 1 outer span, got %d" (List.length es)
  in
  let inners = span_events ~name:"test.inner" events in
  Alcotest.(check int) "two inner spans" 2 (List.length inners);
  let id e = Util.Json.to_int (Util.Json.member "id" e) in
  let depth e = Util.Json.to_int (Util.Json.member "depth" e) in
  let ts e = Util.Json.to_int (Util.Json.member "ts" e) in
  let dur e = Util.Json.to_int (Util.Json.member "dur" e) in
  Alcotest.(check int) "outer is a root span" 0 (depth outer);
  List.iter
    (fun inner ->
      Alcotest.(check int) "inner parented to outer" (id outer)
        (Util.Json.to_int (Util.Json.member "parent" inner));
      Alcotest.(check int) "inner one level down" (depth outer + 1)
        (depth inner);
      Util.check_true "inner starts after outer" (ts inner >= ts outer);
      Util.check_true "inner contained in outer"
        (ts inner + dur inner <= ts outer + dur outer))
    inners

let test_span_attrs_and_histogram () =
  let events =
    with_trace (fun () ->
        let sp = Telemetry.Span.enter "test.attrs" in
        Telemetry.Span.exit sp
          ~attrs:(fun () -> [ ("answer", Telemetry.Jsonw.Int 42) ]))
  in
  match span_events ~name:"test.attrs" events with
  | [ e ] ->
      let attrs = Util.Json.member "attrs" e in
      Alcotest.(check int) "attr written" 42
        (Util.Json.to_int (Util.Json.member "answer" attrs));
      (* Every span feeds the histogram of the same name, so --stats
         timing tables work without a trace file. *)
      let hist =
        List.find_opt
          (fun (h : Telemetry.Metrics.histogram_stats) ->
            h.Telemetry.Metrics.name = "test.attrs")
          (Telemetry.Metrics.histograms ())
      in
      Util.check_true "span observed by histogram" (Option.is_some hist)
  | es -> Alcotest.failf "expected 1 span, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* Counters under domains *)

let test_counter_atomicity_under_domains () =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      Telemetry.Metrics.reset ();
      let c = Telemetry.Metrics.counter "test.atomic" in
      let n = 20_000 in
      Parallel.Pool.iter ~workers:4 n (fun _ -> Telemetry.Metrics.incr c);
      Alcotest.(check int) "every increment lands" n
        (Telemetry.Metrics.value c);
      let h = Telemetry.Metrics.histogram "test.atomic.h" in
      Parallel.Pool.iter ~workers:4 n (fun i ->
          Telemetry.Metrics.observe h (i mod 7));
      match
        List.find_opt
          (fun (s : Telemetry.Metrics.histogram_stats) ->
            s.Telemetry.Metrics.name = "test.atomic.h")
          (Telemetry.Metrics.histograms ())
      with
      | None -> Alcotest.fail "histogram missing from registry"
      | Some s ->
          Alcotest.(check int) "every observation lands" n
            s.Telemetry.Metrics.count;
          Alcotest.(check int) "min observation" 0 s.Telemetry.Metrics.min;
          Alcotest.(check int) "max observation" 6 s.Telemetry.Metrics.max)

let test_workers_flush_their_buffers () =
  let events =
    with_trace (fun () ->
        Parallel.Pool.iter ~workers:4 64 (fun i ->
            Telemetry.Span.wrap "test.task" (fun () -> ignore (i * i))))
  in
  Alcotest.(check int) "one span per task survives the worker exits" 64
    (List.length (span_events ~name:"test.task" events));
  let workers =
    List.sort_uniq compare
      (List.map
         (fun e -> Util.Json.to_int (Util.Json.member "worker" e))
         (span_events ~name:"parallel.worker" events))
  in
  Alcotest.(check int) "all four workers traced" 4 (List.length workers)

(* ------------------------------------------------------------------ *)
(* JSONL round-trips *)

let sample_doc =
  Telemetry.Jsonw.(
    Obj
      [
        ("name", Str "quote \" backslash \\ newline \n tab \t");
        ("int", Int (-42));
        ("float", Float 1.5);
        ("big", Float 123456.789);
        ("flag", Bool true);
        ("nothing", Null);
        ("nan_becomes_null", Float Float.nan);
        ("items", Arr [ Int 1; Str "two"; Obj [ ("three", Int 3) ] ]);
        ("empty_arr", Arr []);
        ("empty_obj", Obj []);
      ])

let test_jsonw_roundtrip_self () =
  let text = Telemetry.Jsonw.to_string sample_doc in
  let expect =
    (* NaN is written as null, so the round-tripped value differs there
       and only there. *)
    Telemetry.Jsonw.(
      Obj
        (List.map
           (fun (k, v) ->
             if k = "nan_becomes_null" then (k, Null) else (k, v))
           (match sample_doc with Obj f -> f | _ -> assert false)))
  in
  Util.check_true "parse inverts to_string"
    (Telemetry.Jsonw.parse text = expect);
  (* Pretty rendering parses back to the same value. *)
  Util.check_true "pretty parses identically"
    (Telemetry.Jsonw.parse (Telemetry.Jsonw.to_string ~pretty:true sample_doc)
    = expect)

let test_jsonw_roundtrip_test_reader () =
  (* The independently-written test JSON reader must agree with the
     telemetry writer — cross-validating both implementations. *)
  let j = Util.Json.parse (Telemetry.Jsonw.to_string sample_doc) in
  Alcotest.(check string)
    "escapes survive"
    "quote \" backslash \\ newline \n tab \t"
    (Util.Json.to_string (Util.Json.member "name" j));
  Alcotest.(check int) "negative int" (-42)
    (Util.Json.to_int (Util.Json.member "int" j));
  Util.check_true "nan rendered as null"
    (Util.Json.member "nan_becomes_null" j = Util.Json.Null);
  Alcotest.(check int) "nested array"
    3
    (Util.Json.to_int
       (Util.Json.member "three"
          (List.nth (Util.Json.to_list (Util.Json.member "items" j)) 2)))

(* Byte strings up to 200 KB with quotes, backslashes, control bytes
   and bytes >= 0x80 at random positions, and at the first and last
   position half the time each: the writer copies the runs between
   them in one piece and the reader must put every byte back. *)
let escape_bytes_gen =
  let open QCheck2.Gen in
  let* len = oneof [ int_range 0 16; int_range 1 200_000 ] in
  let* seed = int in
  let rng = Random.State.make [| seed |] in
  let special () =
    match Random.State.int rng 4 with
    | 0 -> if Random.State.bool rng then '"' else '\\'
    | 1 -> Char.chr (Random.State.int rng 0x20)
    | 2 -> Char.chr (0x80 + Random.State.int rng 0x80)
    | _ -> Char.chr (Random.State.int rng 256)
  in
  let b = Bytes.init len (fun _ -> Char.chr (0x20 + Random.State.int rng 0x5f)) in
  for _ = 1 to Random.State.int rng (1 + (len / 64)) do
    Bytes.set b (Random.State.int rng len) (special ())
  done;
  if len > 0 && Random.State.bool rng then Bytes.set b 0 (special ());
  if len > 0 && Random.State.bool rng then Bytes.set b (len - 1) (special ());
  return (Bytes.to_string b)

let test_jsonw_string_roundtrip =
  Util.qtest "strings round-trip through both readers" ~count:40
    escape_bytes_gen (fun s ->
      let text = Telemetry.Jsonw.to_string (Telemetry.Jsonw.Str s) in
      Telemetry.Jsonw.parse text = Telemetry.Jsonw.Str s
      && Util.Json.parse text = Util.Json.Str s)

let test_trace_lines_are_valid_json () =
  let events =
    with_trace (fun () ->
        Telemetry.Trace.instant "test.point"
          ~attrs:[ ("x", Telemetry.Jsonw.Float 0.25) ];
        Telemetry.Span.wrap "test.line" (fun () -> ()))
  in
  Util.check_true "several events" (List.length events >= 3);
  List.iter
    (fun e ->
      (* Every line is an object with the mandatory envelope fields. *)
      ignore (Util.Json.to_int (Util.Json.member "ts" e));
      ignore (Util.Json.to_string (Util.Json.member "kind" e));
      ignore (Util.Json.to_string (Util.Json.member "name" e));
      ignore (Util.Json.to_int (Util.Json.member "worker" e)))
    events

(* ------------------------------------------------------------------ *)
(* Tracing must not perturb verification *)

let verify_report ~seed ~workers net prop =
  Charon.Verify.run
    ~budget:(Common.Budget.of_steps 400)
    ~workers
    ~rng:(Rng.create seed)
    ~policy:Charon.Policy.default net prop

let test_trace_does_not_perturb_outcomes () =
  Util.repeat ~count:8 ~seed:2019 (fun rng i ->
      let net = Util.small_net rng in
      let region = Util.small_box rng net.Nn.Network.input_dim in
      let prop = Common.Property.create ~region ~target:0 () in
      let plain = verify_report ~seed:i ~workers:1 net prop in
      let path = temp_trace () in
      Telemetry.enable ~path ();
      let traced =
        Fun.protect
          ~finally:(fun () ->
            Telemetry.disable ();
            Sys.remove path)
          (fun () -> verify_report ~seed:i ~workers:1 net prop)
      in
      Util.check_true "same outcome with tracing on"
        (Common.Outcome.agrees plain.Charon.Verify.outcome
           traced.Charon.Verify.outcome);
      Alcotest.(check int) "same node count" plain.Charon.Verify.nodes
        traced.Charon.Verify.nodes;
      Alcotest.(check int) "same analyzer calls"
        plain.Charon.Verify.analyze_calls traced.Charon.Verify.analyze_calls;
      Alcotest.(check int) "same peak depth" plain.Charon.Verify.peak_depth
        traced.Charon.Verify.peak_depth)

let test_traced_verify_emits_expected_spans () =
  let net = Nn.Init.xor () in
  let region =
    Domains.Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |]
  in
  let prop = Common.Property.create ~region ~target:1 () in
  let events =
    with_trace (fun () -> ignore (verify_report ~seed:1 ~workers:1 net prop))
  in
  List.iter
    (fun name ->
      Util.check_true
        (Printf.sprintf "trace contains a %s span" name)
        (span_events ~name events <> []))
    [ "verify.run"; "verify.region"; "absint.layer"; "optim.pgd" ];
  (* Region spans carry the policy's outcome attribute. *)
  List.iter
    (fun e ->
      let outcome =
        Util.Json.to_string
          (Util.Json.member "outcome" (Util.Json.member "attrs" e))
      in
      Util.check_true "known outcome label"
        (List.mem outcome
           [
             "proved";
             "refuted";
             "split";
             "unsplittable";
             "depth_limit";
             "cached";
             "timeout";
             "unknown";
           ]))
    (span_events ~name:"verify.region" events)

let () =
  Alcotest.run "telemetry"
    [
      Util.suite "state"
        [ Util.case "disabled mode is inert" test_disabled_is_inert ];
      Util.suite "spans"
        [
          Util.case "nesting" test_span_nesting;
          Util.case "attrs and histogram feed" test_span_attrs_and_histogram;
        ];
      Util.suite "metrics"
        [
          Util.case "counter atomicity under 4 domains"
            test_counter_atomicity_under_domains;
        ];
      Util.suite "trace"
        [
          Util.case "workers flush buffers" test_workers_flush_their_buffers;
          Util.case "lines are valid json" test_trace_lines_are_valid_json;
        ];
      Util.suite "jsonw"
        [
          Util.case "round-trip through own parser" test_jsonw_roundtrip_self;
          Util.case "round-trip through test reader"
            test_jsonw_roundtrip_test_reader;
          test_jsonw_string_roundtrip;
        ];
      Util.suite "verify-telemetry"
        [
          Util.case "tracing does not perturb outcomes"
            test_trace_does_not_perturb_outcomes;
          Util.case "expected spans appear" test_traced_verify_emits_expected_spans;
        ];
    ]
