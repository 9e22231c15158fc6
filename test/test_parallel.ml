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

let test_wqueue_close_wakes_blocked_pop () =
  (* The cancellation path of a drain: a worker blocked on an empty
     queue while a peer's item is still in flight must return [None]
     once the queue is closed, although that item is never finished. *)
  let q = Parallel.Wqueue.create () in
  Parallel.Wqueue.push q ~priority:0.0 0;
  (match Parallel.Wqueue.pop q with
  | Some 0 -> ()
  | _ -> Alcotest.fail "expected the root item");
  let consumer = Domain.spawn (fun () -> Parallel.Wqueue.pop q) in
  Unix.sleepf 0.02;
  Parallel.Wqueue.close q;
  Util.check_true "blocked pop returns None" (Domain.join consumer = None);
  Alcotest.(check int) "root still in flight" 1 (Parallel.Wqueue.outstanding q)

let test_wqueue_concurrent_tree_drain () =
  (* The verifier's worker protocol on several domains: each popped
     node pushes its children before [finish], and a worker stops at
     its first [None].  Every node of a complete binary tree is visited
     exactly once, and every worker returns once the tree is drained. *)
  let nodes = (1 lsl 10) - 1 in
  let hits = Array.init nodes (fun _ -> Atomic.make 0) in
  let q = Parallel.Wqueue.create () in
  Parallel.Wqueue.push q ~priority:0.0 0;
  Parallel.Pool.run ~workers:workers_under_test (fun _ ->
      let rec loop () =
        match Parallel.Wqueue.pop q with
        | None -> ()
        | Some i ->
            Atomic.incr hits.(i);
            List.iter
              (fun c ->
                if c < nodes then
                  Parallel.Wqueue.push q ~priority:(float_of_int c) c)
              [ (2 * i) + 1; (2 * i) + 2 ];
            Parallel.Wqueue.finish q;
            loop ()
      in
      loop ());
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "node %d" i) 1 (Atomic.get h))
    hits;
  Alcotest.(check int) "nothing outstanding" 0 (Parallel.Wqueue.outstanding q);
  Util.check_true "drained, not closed" (not (Parallel.Wqueue.closed q))

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

let test_pool_single_worker_runs_inline () =
  (* The sequential path spawns nothing: one worker, or one index,
     runs on the calling domain, in index order. *)
  let caller = (Domain.self () :> int) in
  let on_caller = ref true in
  let note () = if (Domain.self () :> int) <> caller then on_caller := false in
  let ran = ref [] in
  Parallel.Pool.run ~workers:1 (fun i ->
      note ();
      ran := i :: !ran);
  Alcotest.(check (list int)) "run ~workers:1 calls worker 0" [ 0 ] !ran;
  let order = ref [] in
  Parallel.Pool.iter ~workers:1 5 (fun i ->
      note ();
      order := i :: !order);
  Alcotest.(check (list int)) "iter ~workers:1 in index order"
    [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Parallel.Pool.iter ~workers:workers_under_test 1 (fun _ -> note ());
  Util.check_true "every call ran on the caller's domain" !on_caller

let test_pool_iter_reraises () =
  List.iter
    (fun workers ->
      Alcotest.check_raises
        (Printf.sprintf "index exception propagates at %d workers" workers)
        Boom (fun () ->
          Parallel.Pool.iter ~workers 16 (fun i -> if i = 5 then raise Boom)))
    [ 1; max 2 workers_under_test ]

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
        let r, frontier =
          Charon.Verify.run_subtree ~budget ~yield ~root_depth:depth
            ~rng:(Rng.create seed) ~policy:Charon.Policy.default net
            (Common.Property.create ~region
               ~target:prop.Common.Property.target ())
        in
        match r.Charon.Verify.outcome with
        | Common.Outcome.Verified -> go rest
        | Common.Outcome.Timeout -> go (frontier @ rest)
        | (Common.Outcome.Refuted _ | Common.Outcome.Unknown) as o -> o)
  in
  go [ (prop.Common.Property.region, 0) ]

let test_paths_agree_random_problems () =
  (* Every path through the search loop on random problems just inside
     the decision boundary (by default the golden table's problems in
     test_charon.ml, several of whose trees split deeply): [run] at one
     and several workers, [run_subtree] resumed
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
      let run ?proofcache ~workers () =
        (Charon.Verify.run ~budget:(Common.Budget.of_steps 20_000) ~workers
           ?proofcache ~rng:(Rng.create i) ~policy:Charon.Policy.default net
           prop)
          .Charon.Verify.outcome
      in
      let cache = Charon.Proofcache.create () in
      let paths =
        List.map
          (fun workers -> (Printf.sprintf "dfs@%d" workers, run ~workers ()))
          (List.sort_uniq compare [ 1; 2; workers_under_test ])
        @ [
            ("subtree", resumed_subtree ~seed:i net prop);
            ("cache-cold", run ~proofcache:cache ~workers:1 ());
            ( "cache-warm",
              run ~proofcache:cache ~workers:workers_under_test () );
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

let test_regions_stay_within_workers () =
  (* Region workers are the only parallelism: each region, kernels
     included, is processed on the domain that popped it, so a run
     computes on at most [workers] domains and never fans a kernel out.
     [on_progress] fires once per region, on that region's domain. *)
  let net, prop = nth_small_problem ~seed:142 37 in
  let workers = max 2 workers_under_test in
  let lock = Mutex.create () in
  let seen = Hashtbl.create 8 in
  let calls = Atomic.make 0 in
  let on_progress ~nodes:_ ~depth:_ =
    Atomic.incr calls;
    Mutex.lock lock;
    Hashtbl.replace seen (Domain.self () :> int) ();
    Mutex.unlock lock
  in
  let r =
    Charon.Verify.run ~workers ~on_progress ~rng:(Rng.create 37)
      ~policy:Charon.Policy.default net prop
  in
  Alcotest.(check string) "verified" "verified"
    (verdict_kind r.Charon.Verify.outcome);
  Alcotest.(check int) "one progress call per region" r.Charon.Verify.nodes
    (Atomic.get calls);
  Util.check_true
    (Printf.sprintf "%d domains <= %d workers" (Hashtbl.length seen) workers)
    (Hashtbl.length seen <= workers);
  Alcotest.(check int) "no kernel fan-out" 0 r.Charon.Verify.kernel_fanouts

let test_cancel_token_stops_run () =
  (* [cancel] is how the serving layer stops a job: a token fired while
     the root region is being processed ends the run there, with
     [Timeout], at any width. *)
  let net, prop = nth_small_problem ~seed:142 37 in
  List.iter
    (fun workers ->
      let cancel = Parallel.Cancel.create () in
      let r =
        Charon.Verify.run ~workers ~cancel
          ~on_progress:(fun ~nodes:_ ~depth:_ -> Parallel.Cancel.cancel cancel)
          ~rng:(Rng.create 37) ~policy:Charon.Policy.default net prop
      in
      Alcotest.(check string)
        (Printf.sprintf "cancelled at %d workers" workers)
        "timeout"
        (verdict_kind r.Charon.Verify.outcome);
      Alcotest.(check int)
        (Printf.sprintf "stopped at the root at %d workers" workers)
        1 r.Charon.Verify.nodes)
    (List.sort_uniq compare [ 1; workers_under_test ])

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
          Util.case "close wakes blocked pop" test_wqueue_close_wakes_blocked_pop;
          Util.case "concurrent tree drain" test_wqueue_concurrent_tree_drain;
        ];
      Util.suite "cancel" [ Util.case "token" test_cancel_token ];
      Util.suite "pool"
        [
          Util.case "iter covers exactly once" test_pool_iter_covers_exactly_once;
          Util.case "run spawns each worker once"
            test_pool_run_spawns_each_worker_once;
          Util.case "run re-raises" test_pool_run_reraises;
          Util.case "single worker runs inline"
            test_pool_single_worker_runs_inline;
          Util.case "iter re-raises" test_pool_iter_reraises;
        ];
      Util.suite "verify-parallel"
        [
          Util.case "workers agree on xor" test_workers_agree_xor;
          Util.slow_case "workers agree on acas" test_workers_agree_acas;
          Util.slow_case "paths agree on random problems"
            test_paths_agree_random_problems;
          Util.case "starved budget times out" test_parallel_timeout_terminates;
          Util.case "workers validated" test_workers_validated;
          Util.case "regions stay within workers"
            test_regions_stay_within_workers;
          Util.case "cancel token stops the run" test_cancel_token_stops_run;
        ];
      Util.suite "runner-parallel"
        [ Util.case "jobs preserve order" test_run_suite_jobs_preserves_order ];
    ]
