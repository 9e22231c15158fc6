open Linalg

(* The parallel runtime: work queue, cancellation, domain pool, and the
   determinism contract of the parallel verifier.  The whole suite runs
   twice from dune: once with the default worker count below and once
   with CHARON_TEST_WORKERS=2 (see test/dune). *)

let workers_under_test =
  match Sys.getenv_opt "CHARON_TEST_WORKERS" with
  | Some s -> ( try max 2 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* Wqueue *)

let test_wqueue_pop_min_first () =
  let q = Parallel.Wqueue.create () in
  Parallel.Wqueue.push q ~priority:3.0 "c";
  Parallel.Wqueue.push q ~priority:1.0 "a";
  Parallel.Wqueue.push q ~priority:2.0 "b";
  Alcotest.(check int) "size" 3 (Parallel.Wqueue.size q);
  List.iter
    (fun expected ->
      (match Parallel.Wqueue.pop q with
      | Some v -> Alcotest.(check string) "min first" expected v
      | None -> Alcotest.fail "queue drained early");
      Parallel.Wqueue.finish q)
    [ "a"; "b"; "c" ];
  Util.check_true "drained" (Parallel.Wqueue.pop q = None)

let test_wqueue_drain_tracks_outstanding () =
  let q = Parallel.Wqueue.create () in
  Parallel.Wqueue.push q ~priority:0.0 0;
  (match Parallel.Wqueue.pop q with
  | Some 0 -> ()
  | _ -> Alcotest.fail "expected the root item");
  (* The root is in flight: the queue is empty but not drained. *)
  Alcotest.(check int) "in flight" 1 (Parallel.Wqueue.outstanding q);
  Parallel.Wqueue.push q ~priority:1.0 1;
  Parallel.Wqueue.push q ~priority:2.0 2;
  Parallel.Wqueue.finish q;
  Alcotest.(check int) "children pending" 2 (Parallel.Wqueue.outstanding q);
  (match Parallel.Wqueue.pop q with
  | Some 1 -> Parallel.Wqueue.finish q
  | _ -> Alcotest.fail "expected child 1");
  (match Parallel.Wqueue.pop q with
  | Some 2 -> Parallel.Wqueue.finish q
  | _ -> Alcotest.fail "expected child 2");
  Util.check_true "fully drained" (Parallel.Wqueue.pop q = None);
  Alcotest.(check int) "nothing outstanding" 0 (Parallel.Wqueue.outstanding q)

let test_wqueue_close_cancels () =
  let q = Parallel.Wqueue.create () in
  Parallel.Wqueue.push q ~priority:0.0 0;
  Parallel.Wqueue.close q;
  Util.check_true "closed" (Parallel.Wqueue.closed q);
  Util.check_true "pop after close" (Parallel.Wqueue.pop q = None);
  Parallel.Wqueue.push q ~priority:1.0 1;
  Util.check_true "push after close is a no-op" (Parallel.Wqueue.pop q = None)

let test_wqueue_finish_overcall_raises () =
  let q : int Parallel.Wqueue.t = Parallel.Wqueue.create () in
  Alcotest.check_raises "finish without pop"
    (Invalid_argument "Wqueue.finish: more finishes than pops") (fun () ->
      Parallel.Wqueue.finish q)

let test_wqueue_blocking_handoff () =
  (* A consumer blocked on an empty-but-not-drained queue must wake up
     when a peer pushes a child. *)
  let q = Parallel.Wqueue.create () in
  Parallel.Wqueue.push q ~priority:0.0 0;
  (match Parallel.Wqueue.pop q with
  | Some 0 -> ()
  | _ -> Alcotest.fail "expected the root item");
  let consumer =
    Domain.spawn (fun () ->
        match Parallel.Wqueue.pop q with
        | Some v ->
            Parallel.Wqueue.finish q;
            Some v
        | None -> None)
  in
  Unix.sleepf 0.02;
  Parallel.Wqueue.push q ~priority:1.0 42;
  Parallel.Wqueue.finish q;
  (match Domain.join consumer with
  | Some 42 -> ()
  | _ -> Alcotest.fail "blocked consumer did not receive the pushed item");
  Util.check_true "drained" (Parallel.Wqueue.pop q = None)

let test_wqueue_leftovers () =
  let q = Parallel.Wqueue.create () in
  List.iter (fun p -> Parallel.Wqueue.push q ~priority:p p) [ 3.0; 1.0; 2.0; 0.5 ];
  (match Parallel.Wqueue.pop q with
  | Some p -> Util.check_close ~eps:0.0 "minimum popped" 0.5 p
  | None -> Alcotest.fail "queue drained early");
  (* The popped item is in flight, so only the queued ones come back. *)
  Alcotest.(check (list (float 0.0)))
    "queued items, min first" [ 1.0; 2.0; 3.0 ]
    (Parallel.Wqueue.leftovers q);
  Util.check_true "closed" (Parallel.Wqueue.closed q);
  Util.check_true "nothing left to pop" (Parallel.Wqueue.pop q = None)

(* ------------------------------------------------------------------ *)
(* Cancel *)

let test_cancel_token () =
  let c = Parallel.Cancel.create () in
  Util.check_true "fresh" (not (Parallel.Cancel.cancelled c));
  Parallel.Cancel.cancel c;
  Util.check_true "cancelled" (Parallel.Cancel.cancelled c);
  Parallel.Cancel.cancel c;
  Util.check_true "sticky" (Parallel.Cancel.cancelled c)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_iter_covers_exactly_once () =
  let n = 200 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Parallel.Pool.iter ~workers:workers_under_test n (fun i ->
      Atomic.incr hits.(i));
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d" i) 1 (Atomic.get h))
    hits

let test_pool_run_spawns_each_worker_once () =
  let w = workers_under_test in
  let calls = Array.init w (fun _ -> Atomic.make 0) in
  Parallel.Pool.run ~workers:w (fun i -> Atomic.incr calls.(i));
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "worker %d" i) 1 (Atomic.get c))
    calls

exception Boom

let test_pool_run_reraises () =
  Alcotest.check_raises "worker exception propagates" Boom (fun () ->
      Parallel.Pool.run ~workers:(max 2 workers_under_test) (fun i ->
          if i = 1 then raise Boom))

(* ------------------------------------------------------------------ *)
(* Kpool: the persistent kernel-helper team *)

let test_kpool_covers_tasks_exactly_once () =
  let n = 64 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  ignore
    (Parallel.Kpool.run ~jobs:workers_under_test ~tasks:n (fun i ->
         Atomic.incr hits.(i)));
  Array.iteri
    (fun i h ->
      Alcotest.(check int) (Printf.sprintf "task %d" i) 1 (Atomic.get h))
    hits

let test_kpool_trivial_widths_run_inline () =
  let ran = ref false in
  Util.check_true "jobs=1 is the trivial case"
    (Parallel.Kpool.run ~jobs:1 ~tasks:4 (fun _ -> ran := true));
  Util.check_true "tasks ran" !ran;
  Util.check_true "tasks=1 is the trivial case"
    (Parallel.Kpool.run ~jobs:4 ~tasks:1 (fun _ -> ()))

let test_kpool_nested_call_degrades_sequentially () =
  (* A kernel call issued from inside a kernel task must not deadlock
     or over-subscribe: the team is busy, so the inner call reports
     [false] and runs inline on its own domain. *)
  let inner_parallel = Atomic.make false in
  let inner_ran = Array.init 8 (fun _ -> Atomic.make 0) in
  ignore
    (Parallel.Kpool.run ~jobs:2 ~tasks:2 (fun _ ->
         if
           Parallel.Kpool.run ~jobs:2 ~tasks:8 (fun i ->
               Atomic.incr inner_ran.(i))
         then Atomic.set inner_parallel true));
  Util.check_true "inner call fell back to sequential"
    (not (Atomic.get inner_parallel));
  (* Degrading must not drop work: both nested rounds of 8 tasks ran. *)
  Array.iteri
    (fun i h ->
      Alcotest.(check int) (Printf.sprintf "nested task %d" i) 2 (Atomic.get h))
    inner_ran

let test_kpool_reraises_task_exception () =
  Alcotest.check_raises "task exception propagates" Boom (fun () ->
      ignore
        (Parallel.Kpool.run ~jobs:2 ~tasks:8 (fun i ->
             if i = 3 then raise Boom)))

let test_kpool_peak_stays_within_jobs () =
  Parallel.Kpool.reset_peak ();
  ignore
    (Parallel.Kpool.run ~jobs:2 ~tasks:16 (fun _ -> Unix.sleepf 0.001));
  Util.check_true
    (Printf.sprintf "peak %d <= 2" (Parallel.Kpool.peak_participants ()))
    (Parallel.Kpool.peak_participants () <= 2)

(* ------------------------------------------------------------------ *)
(* Parallel verification: determinism and cancellation *)

let verdict_kind = function
  | Common.Outcome.Verified -> "verified"
  | Common.Outcome.Refuted _ -> "refuted"
  | Common.Outcome.Timeout -> "timeout"
  | Common.Outcome.Unknown -> "unknown"

let outcome ?budget ~workers ~seed net property =
  (Charon.Verify.run ?budget ~workers ~rng:(Rng.create seed)
     ~policy:Charon.Policy.default net property)
    .Charon.Verify.outcome

let check_workers_agree ~name ?budget ~seed net property =
  let seq = outcome ?budget ~workers:1 ~seed net property in
  let par = outcome ?budget ~workers:workers_under_test ~seed net property in
  Alcotest.(check string)
    (name ^ ": workers agree")
    (verdict_kind seq) (verdict_kind par);
  (* Soundness of both runs: a refutation must be a real witness. *)
  (match par with
  | Common.Outcome.Refuted x ->
      Util.check_true (name ^ ": parallel witness violates")
        (not (Common.Property.holds_at net property x))
  | _ -> ());
  seq

let test_workers_agree_xor () =
  let net = Nn.Init.xor () in
  let region =
    Domains.Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |]
  in
  let good = Common.Property.create ~region ~target:1 () in
  let bad = Common.Property.create ~region ~target:0 () in
  Util.check_true "xor good verified"
    (check_workers_agree ~name:"xor-good" ~seed:1 net good
    = Common.Outcome.Verified);
  match check_workers_agree ~name:"xor-bad" ~seed:1 net bad with
  | Common.Outcome.Refuted _ -> ()
  | o -> Alcotest.failf "xor-bad: expected refutation, got %s" (verdict_kind o)

let test_workers_agree_acas () =
  let problems = Experiments.Training.acas_problems ~seed:5 in
  List.iteri
    (fun i (p : Charon.Learn.problem) ->
      let budget = Common.Budget.of_steps 200_000 in
      let o =
        check_workers_agree
          ~name:(Printf.sprintf "acas-%d" i)
          ~budget ~seed:(100 + i) p.Charon.Learn.net p.Charon.Learn.property
      in
      (* The budget is sized so both runs finish; a timeout here would
         make the agreement check vacuous. *)
      Util.check_true
        (Printf.sprintf "acas-%d solved" i)
        (Common.Outcome.is_solved o))
    problems

(* [run_subtree] asked to yield every four regions and resumed from its
   frontier until the obligation is discharged, as a dverify
   coordinator re-deals a shard's frontier. *)
let resumed_subtree ~seed net (prop : Common.Property.t) =
  let budget = Common.Budget.of_steps 20_000 in
  let rec go = function
    | [] -> Common.Outcome.Verified
    | _ :: _ when Common.Budget.exhausted budget -> Common.Outcome.Timeout
    | (region, depth) :: rest -> (
        let polls = ref 0 in
        let yield () =
          incr polls;
          !polls > 4
        in
        let r =
          Charon.Verify.run_subtree ~budget ~yield ~root_depth:depth
            ~rng:(Rng.create seed) ~policy:Charon.Policy.default net
            (Common.Property.create ~region
               ~target:prop.Common.Property.target ())
        in
        match r.Charon.Verify.subtree_outcome with
        | Charon.Verify.Subtree_proved -> go rest
        | Charon.Verify.Subtree_refuted x -> Common.Outcome.Refuted x
        | Charon.Verify.Subtree_unknown -> Common.Outcome.Unknown
        | Charon.Verify.Subtree_yielded -> go (r.Charon.Verify.frontier @ rest))
  in
  go [ (prop.Common.Property.region, 0) ]

let test_paths_agree_random_problems () =
  (* Every path through the search loop on random problems just inside
     the decision boundary (by default the golden table's problems in
     test_charon.ml, several of whose trees split deeply): [run] at one
     and several workers under both strategies, [run_subtree] resumed
     from its frontier until done, and [run] with a proof cache cold
     then warm.  Paths are compared pairwise under Outcome.agrees (a
     timeout is consistent with anything — the step budget is shared,
     so the exhaustion point moves with scheduling — but
     Verified/Refuted may never conflict), and every refutation must be
     a δ-counterexample inside the box. *)
  Util.repeat ~seed:2019 ~count:20 (fun rng i ->
      let net, prop = Util.boundary_problem rng in
      let box = prop.Common.Property.region in
      let k = prop.Common.Property.target in
      let run ?proofcache ~strategy ~workers () =
        let config =
          { Charon.Verify.default_config with Charon.Verify.strategy }
        in
        (Charon.Verify.run ~config ~budget:(Common.Budget.of_steps 20_000)
           ~workers ?proofcache ~rng:(Rng.create i)
           ~policy:Charon.Policy.default net prop)
          .Charon.Verify.outcome
      in
      let cache = Charon.Proofcache.create () in
      let paths =
        List.concat_map
          (fun (name, strategy) ->
            List.map
              (fun workers ->
                (Printf.sprintf "%s@%d" name workers, run ~strategy ~workers ()))
              (List.sort_uniq compare [ 1; 2; workers_under_test ]))
          [ ("dfs", Charon.Verify.Depth_first); ("bfs", Charon.Verify.Best_first) ]
        @ [
            ("subtree", resumed_subtree ~seed:i net prop);
            ( "cache-cold",
              run ~proofcache:cache ~strategy:Charon.Verify.Depth_first
                ~workers:1 () );
            ( "cache-warm",
              run ~proofcache:cache ~strategy:Charon.Verify.Depth_first
                ~workers:workers_under_test () );
          ]
      in
      List.iter
        (fun (a, oa) ->
          List.iter
            (fun (b, ob) ->
              Util.check_true
                (Printf.sprintf "random-%d: %s (%s) agrees with %s (%s)" i a
                   (Common.Outcome.label oa) b (Common.Outcome.label ob))
                (Common.Outcome.agrees oa ob))
            paths)
        paths;
      List.iter
        (fun (name, o) ->
          match o with
          | Common.Outcome.Refuted x ->
              Util.check_true
                (Printf.sprintf "random-%d: %s witness is a delta-cex in the box"
                   i name)
                (Domains.Box.contains box x
                && Optim.Objective.is_delta_counterexample
                     (Optim.Objective.create net ~k)
                     ~delta:Charon.Verify.default_config.Charon.Verify.delta x)
          | _ -> ())
        paths)

(* The [n]-th random small problem of a [Util.repeat]-style seeded
   stream.  Splits are independent, so skipping the first [n - 1]
   without materializing them reproduces exactly the problem a
   [Util.repeat] sweep would see. *)
let nth_small_problem ~seed n =
  let rng = Rng.create seed in
  let pick = ref None in
  for i = 1 to n do
    let r = Rng.split rng in
    if i = n then
      let net = Util.small_net r in
      let box = Util.small_box r net.Nn.Network.input_dim in
      let k = Rng.int r net.Nn.Network.output_dim in
      pick := Some (net, Common.Property.create ~region:box ~target:k ())
  done;
  Option.get !pick

let test_parallel_timeout_terminates () =
  (* A starved shared budget must cancel the parallel drain and return
     Timeout rather than hang or crash.  The chosen problem is verified
     with a 7-node tree under a generous budget (so no refutation can
     race the budget check), and its root is inconclusive (so one step
     of budget cannot be enough). *)
  let net, prop = nth_small_problem ~seed:142 37 in
  let budget = Common.Budget.of_steps 1 in
  match outcome ~budget ~workers:workers_under_test ~seed:37 net prop with
  | Common.Outcome.Timeout -> ()
  | o -> Alcotest.failf "expected timeout, got %s" (verdict_kind o)

let test_workers_validated () =
  let net = Nn.Init.xor () in
  let region = Domains.Box.create ~lo:[| 0.4; 0.4 |] ~hi:[| 0.6; 0.6 |] in
  let prop = Common.Property.create ~region ~target:1 () in
  Alcotest.check_raises "workers must be >= 1"
    (Invalid_argument "Verify.run: workers must be at least 1") (fun () ->
      ignore (outcome ~workers:0 ~seed:1 net prop))

(* ------------------------------------------------------------------ *)
(* Kernel-parallelism nesting policy (Verify.run + Mat.gemm ?jobs) *)

let test_kernel_nesting_respects_domain_budget () =
  (* A net wide enough that one layer's zonotope GEMM crosses the
     kernel parallel-size threshold (2*128^3 flops >= Mat's 4e6-flop
     floor), so a solo-in-flight verifier worker genuinely fans its
     kernels out onto the Kpool team. *)
  let dim = 128 in
  (* A wide random hidden layer followed by a constant-margin output
     layer (zero weights, biased logit): class 0 wins everywhere, so
     the run must reach the analyzer and verify — a random dense net
     would be refuted by PGD at the root, before any GEMM fans out. *)
  let rng = Rng.create 91 in
  let hidden =
    Mat.init dim dim (fun _ _ -> Rng.gaussian rng /. sqrt (float_of_int dim))
  in
  let net =
    Nn.Network.create ~input_dim:dim
      [
        Nn.Layer.affine hidden (Vec.zeros dim);
        Nn.Layer.Relu;
        Nn.Layer.affine (Mat.zeros 2 dim) [| 1.0; 0.0 |];
      ]
  in
  let region =
    Domains.Box.create
      ~lo:(Array.make dim (-0.01))
      ~hi:(Array.make dim 0.01)
  in
  let prop = Common.Property.create ~region ~target:0 () in
  let run workers =
    Charon.Verify.run
      ~budget:(Common.Budget.of_steps 500)
      ~workers ~rng:(Rng.create 91) ~policy:Charon.Policy.default net prop
  in
  let seq = run 1 in
  Util.check_true "sequential run never fans out"
    (seq.Charon.Verify.kernel_fanouts = 0);
  Parallel.Kpool.reset_peak ();
  let workers = max 2 workers_under_test in
  let par = run workers in
  Alcotest.(check string)
    "verdict matches sequential"
    (verdict_kind seq.Charon.Verify.outcome)
    (verdict_kind par.Charon.Verify.outcome);
  (* The worker holding the only outstanding region re-spends the
     worker budget on kernel jobs, so at least the root region fans
     out... *)
  Util.check_true "solo-in-flight worker fanned out"
    (par.Charon.Verify.kernel_fanouts >= 1);
  (* ...and the nesting policy keeps the total domain budget intact:
     the kernel team never had more participants computing at once than
     the [-j] width that Verify.run was given. *)
  Util.check_true
    (Printf.sprintf "peak kernel domains %d <= %d"
       par.Charon.Verify.kernel_peak_domains workers)
    (par.Charon.Verify.kernel_peak_domains <= workers)

(* ------------------------------------------------------------------ *)
(* Parallel suite runner *)

let tiny_workload () =
  let net = Nn.Init.xor () in
  let entry =
    {
      Datasets.Suite.name = "xor";
      description = "xor test network";
      net;
      image_spec = Datasets.Synth_images.tiny;
      convolutional = false;
      test_accuracy = 1.0;
    }
  in
  let region = Domains.Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
  let props =
    [
      Common.Property.create ~name:"holds" ~region ~target:1 ();
      Common.Property.create ~name:"fails" ~region ~target:0 ();
    ]
  in
  [ (entry, props) ]

let test_run_suite_jobs_preserves_order () =
  let tools =
    [ Experiments.Tool.charon (); Experiments.Tool.ai2 Domains.Domain.interval ]
  in
  let run jobs =
    Experiments.Runner.run_suite ~jobs ~seed:1 ~timeout:10.0 tools
      (tiny_workload ())
  in
  let seq = run 1 in
  let par = run workers_under_test in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Experiments.Runner.result) (b : Experiments.Runner.result) ->
      Alcotest.(check string) "tool order" a.tool b.tool;
      Alcotest.(check string) "network order" a.network b.network;
      Alcotest.(check string) "property order" a.property b.property;
      Alcotest.(check string) "same verdict" (verdict_kind a.outcome)
        (verdict_kind b.outcome))
    seq par

let () =
  Alcotest.run "parallel"
    [
      Util.suite "wqueue"
        [
          Util.case "pop min first" test_wqueue_pop_min_first;
          Util.case "drain tracks outstanding" test_wqueue_drain_tracks_outstanding;
          Util.case "close cancels" test_wqueue_close_cancels;
          Util.case "finish overcall raises" test_wqueue_finish_overcall_raises;
          Util.case "blocking handoff" test_wqueue_blocking_handoff;
          Util.case "leftovers" test_wqueue_leftovers;
        ];
      Util.suite "cancel" [ Util.case "token" test_cancel_token ];
      Util.suite "pool"
        [
          Util.case "iter covers exactly once" test_pool_iter_covers_exactly_once;
          Util.case "run spawns each worker once"
            test_pool_run_spawns_each_worker_once;
          Util.case "run re-raises" test_pool_run_reraises;
        ];
      Util.suite "kpool"
        [
          Util.case "covers tasks exactly once" test_kpool_covers_tasks_exactly_once;
          Util.case "trivial widths run inline" test_kpool_trivial_widths_run_inline;
          Util.case "nested call degrades sequentially"
            test_kpool_nested_call_degrades_sequentially;
          Util.case "re-raises task exception" test_kpool_reraises_task_exception;
          Util.case "peak stays within jobs" test_kpool_peak_stays_within_jobs;
        ];
      Util.suite "verify-parallel"
        [
          Util.case "workers agree on xor" test_workers_agree_xor;
          Util.slow_case "workers agree on acas" test_workers_agree_acas;
          Util.slow_case "paths agree on random problems"
            test_paths_agree_random_problems;
          Util.case "starved budget times out" test_parallel_timeout_terminates;
          Util.case "workers validated" test_workers_validated;
          Util.case "kernel nesting respects domain budget"
            test_kernel_nesting_respects_domain_budget;
        ];
      Util.suite "runner-parallel"
        [ Util.case "jobs preserve order" test_run_suite_jobs_preserves_order ];
    ]
