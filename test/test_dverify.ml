(* Tests for charon-dverify: the distributed split-and-conquer
   coordinator/worker pair (docs/serving.md, "Distributed
   split-and-conquer").

   Real processes, real pipes: the coordinator under test spawns THIS
   test binary re-executing itself with [--charon-dverify-worker] (the
   same self-exec trick `charon dverify` uses), so the full stack —
   handshake, assignment, steal, crash, reassignment — is exercised
   exactly as in production.  The workload is the staircase family
   ({!Nn.Init.staircase}): always Verified, never refutable by PGD, and
   geometrically harder with dimension, so verdicts are deterministic.

   The worker-mode intercepts at the top MUST run before Alcotest gets
   anywhere near argv. *)

(* Re-exec mode 1: a real dverify worker on stdin/stdout. *)
let () =
  if Array.exists (String.equal "--charon-dverify-worker") Sys.argv then
    exit (Server.Worker.main ())

(* Re-exec mode 2: a worker from the future — says hello with a bogus
   protocol version, then reports via its exit code whether the
   coordinator rejected it cleanly (0) or answered nonsense (9). *)
let () =
  if Array.exists (String.equal "--charon-bad-hello") Sys.argv then begin
    let module D = Server.Protocol.Dist in
    Server.Protocol.send stdout
      (D.from_worker_to_json (D.Hello { version = 999; pid = Unix.getpid () }));
    match Server.Protocol.recv stdin with
    | Some json when D.is_rejection json -> exit 0
    | Some _ | None -> exit 9
    | exception _ -> exit 9
  end

open Linalg
module D = Server.Protocol.Dist

let staircase_box dim = Domains.Box.of_center_radius (Vec.create dim 0.25) 1.25

let staircase_spec ?(name = "staircase") ?(target = 0) ?timeout ?(seed = 1) dim
    =
  {
    Server.Protocol.name;
    network = Nn.Serial.to_string (Nn.Init.staircase dim);
    box = staircase_box dim;
    target;
    delta = 1e-4;
    timeout;
    max_steps = None;
    seed;
  }

(* CI points this at a directory to collect worker JSONL traces as
   artifacts; locally it is unset and no traces are written. *)
let trace_dir = Sys.getenv_opt "CHARON_DVERIFY_TRACE_DIR"

let config ?(workers = 2) ?initial_splits ?initial_steps ?crash_injection () =
  let c = Server.Coordinator.default_config ~workers in
  {
    c with
    Server.Coordinator.initial_splits =
      Option.value initial_splits ~default:c.Server.Coordinator.initial_splits;
    initial_steps =
      Option.value initial_steps ~default:c.Server.Coordinator.initial_steps;
    crash_injection;
    trace_dir;
  }

let self_worker = [| Sys.executable_name; "--charon-dverify-worker" |]

let dverify ?workers ?initial_splits ?initial_steps ?crash_injection spec =
  Server.Coordinator.run ~worker_cmd:self_worker
    ~config:(config ?workers ?initial_splits ?initial_steps ?crash_injection ())
    spec

(* The single-process oracle the distributed verdict must match. *)
let oracle ?(target = 0) ?(seed = 1) dim =
  let prop =
    Common.Property.create ~name:"oracle" ~region:(staircase_box dim) ~target ()
  in
  let config =
    { Charon.Verify.default_config with Charon.Verify.delta = 1e-4 }
  in
  let r =
    Charon.Verify.run ~config
      ~budget:(Common.Budget.create ~seconds:60.0 ())
      ~rng:(Rng.create seed) ~policy:Charon.Policy.default
      (Nn.Init.staircase dim) prop
  in
  r.Charon.Verify.outcome

let outcome_label = function
  | Common.Outcome.Verified -> "verified"
  | Common.Outcome.Refuted _ -> "falsified"
  | Common.Outcome.Timeout -> "timeout"
  | Common.Outcome.Unknown -> "unknown"

let check_outcome msg expected actual =
  Alcotest.(check string) msg (outcome_label expected) (outcome_label actual)

(* ------------------------------------------------------------------ *)
(* Fixture process plumbing *)

let spawn_fixture args =
  let c2w_read, c2w_write = Unix.pipe ~cloexec:false () in
  let w2c_read, w2c_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      c2w_read w2c_write Unix.stderr
  in
  Unix.close c2w_read;
  Unix.close w2c_write;
  (pid, Unix.out_channel_of_descr c2w_write, Unix.in_channel_of_descr w2c_read)

(* Bounded wait: a protocol bug must fail the test, not wedge CI. *)
let wait_exit ?(timeout = 30.0) pid =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t0 > timeout then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "fixture process hung"
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _, status -> status
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Framing: strict recv must tell a clean EOF from a torn message *)

(* Every [recv] outcome on a stream, in order, until EOF or an
   exception, and how many bytes of the stream were consumed. *)
let recv_outcomes ?max_len s =
  let path = Filename.temp_file "charon-recv" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      Sys.remove path)
    (fun () ->
      let rec go acc =
        match Server.Protocol.recv ?max_len ic with
        | Some _ -> go ("msg" :: acc)
        | None -> List.rev ("eof" :: acc)
        | exception Server.Protocol.Torn_line n ->
            List.rev (Printf.sprintf "torn:%d" n :: acc)
        | exception Server.Protocol.Oversized_line n ->
            let over = match max_len with Some m -> n > m | None -> false in
            List.rev
              ((if over then "oversized" else Printf.sprintf "oversized:%d" n)
              :: acc)
      in
      let outcomes = go [] in
      (outcomes, pos_in ic))

(* A JSON string document of exactly [len] bytes. *)
let json_of_len len = "\"" ^ String.make (len - 2) 'x' ^ "\""

let check_outcomes ?max_len msg expected s =
  Alcotest.(check (list string)) msg expected (fst (recv_outcomes ?max_len s))

let test_recv_framing () =
  (* A complete line followed by a clean EOF. *)
  check_outcomes "clean EOF" [ "msg"; "eof" ] "{\"ok\": true}\n";
  (* A complete line followed by a torn one: the peer died mid-write. *)
  let tail = "{\"op\": \"pro" in
  check_outcomes "torn tail detected"
    [ "msg"; Printf.sprintf "torn:%d" (String.length tail) ]
    ("{\"ok\": true}\n" ^ tail);
  (* Lines longer than one channel buffer (64 KB). *)
  let big = json_of_len 200_000 in
  check_outcomes "a long line, then a short one"
    [ "msg"; "msg"; "eof" ]
    (big ^ "\n{\"ok\": true}\n");
  check_outcomes "a torn long tail" [ "msg"; "torn:200000" ]
    ("{\"ok\": true}\n" ^ big);
  let max_len = 100_000 in
  check_outcomes ~max_len "a line of exactly max_len bytes" [ "msg"; "eof" ]
    (json_of_len max_len ^ "\n");
  check_outcomes ~max_len "one byte over max_len" [ "oversized" ]
    (json_of_len (max_len + 1) ^ "\n");
  let garbage = String.make 300_000 'x' in
  let outcomes, consumed = recv_outcomes ~max_len garbage in
  Alcotest.(check (list string)) "newline-free garbage" [ "oversized" ] outcomes;
  Util.check_true "stops before EOF" (consumed < String.length garbage)

(* ------------------------------------------------------------------ *)
(* Handshake: version mismatches reject cleanly in both directions *)

let test_worker_rejects_version () =
  let pid, oc, ic = spawn_fixture [| "--charon-dverify-worker" |] in
  let finally () =
    close_out_noerr oc;
    close_in_noerr ic
  in
  Fun.protect ~finally (fun () ->
      (match Server.Protocol.recv ic with
      | Some json -> (
          match D.from_worker_of_json json with
          | D.Hello { version; _ } ->
              Alcotest.(check int) "worker speaks v1" D.version version
          | _ -> Alcotest.fail "expected hello first")
      | None -> Alcotest.fail "worker closed without hello");
      (* A coordinator from the future: same op, incompatible version. *)
      Server.Protocol.send oc
        (D.to_worker_to_json
           (D.Hello_ok
              { version = 999; job = staircase_spec 2; proofcache = None }));
      match wait_exit pid with
      | Unix.WEXITED code ->
          Alcotest.(check int) "handshake-refused exit code" 3 code
      | _ -> Alcotest.fail "worker did not exit normally")

let test_coordinator_rejects_version () =
  (* The fixture exits 0 only if it received a {"ok": false} rejection;
     the coordinator must then fail fast (whole fleet rejected), not
     hang waiting for splits to finish. *)
  let spec = staircase_spec ~timeout:30.0 4 in
  match
    Server.Coordinator.run
      ~worker_cmd:[| Sys.executable_name; "--charon-bad-hello" |]
      ~config:(config ~workers:1 ()) spec
  with
  | _ -> Alcotest.fail "expected the coordinator to refuse the fleet"
  | exception Failure msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1)) in
        at 0
      in
      Util.check_true "failure names the version mismatch"
        (contains msg "version mismatch")

(* ------------------------------------------------------------------ *)
(* End-to-end verdicts *)

let test_two_workers_match_oracle () =
  let dim = 6 in
  check_outcome "oracle proves the staircase" Common.Outcome.Verified
    (oracle dim);
  let r = dverify (staircase_spec ~timeout:120.0 dim) in
  check_outcome "distributed verdict" Common.Outcome.Verified
    r.Server.Coordinator.outcome;
  let s = r.Server.Coordinator.stats in
  Util.check_true "all initial splits were dealt"
    (s.Server.Coordinator.dealt >= s.Server.Coordinator.initial_splits);
  Alcotest.(check int)
    "both shards report wall time" 2
    (List.length s.Server.Coordinator.shard_walls)

let test_refuted_matches_oracle () =
  (* Target class 1 loses by at least eps everywhere: PGD refutes it in
     the first region of whichever shard gets there first, and the
     coordinator must broadcast cancel and surface the witness. *)
  let dim = 6 in
  (match oracle ~target:1 dim with
  | Common.Outcome.Refuted _ -> ()
  | o -> Alcotest.failf "oracle: expected falsified, got %s" (outcome_label o));
  let r = dverify (staircase_spec ~target:1 ~timeout:120.0 dim) in
  match r.Server.Coordinator.outcome with
  | Common.Outcome.Refuted x ->
      Util.check_true "witness lies in the input region"
        (Domains.Box.contains (staircase_box dim) x);
      let obj = Optim.Objective.create (Nn.Init.staircase dim) ~k:1 in
      Util.check_true "witness is a delta-counterexample"
        (Optim.Objective.is_delta_counterexample obj ~delta:1e-4 x)
  | o -> Alcotest.failf "expected falsified, got %s" (outcome_label o)

let test_crash_recovery () =
  (* One worker, which SIGKILLs itself on receiving its first split,
     leaving that split outstanding.  Being the only worker, it is dealt
     the first split on every run, so the crash cannot be skipped by a
     faster peer finishing the proof first; its replacement must then
     finish the whole proof.  The verdict must still be Verified — i.e.
     the coordinator re-dealt the dead worker's split — and the death,
     reassignment and respawn must show in the stats. *)
  let dim = 6 in
  let r =
    dverify ~workers:1 ~crash_injection:(0, 0)
      (staircase_spec ~timeout:120.0 dim)
  in
  check_outcome "verdict survives a SIGKILLed worker" Common.Outcome.Verified
    r.Server.Coordinator.outcome;
  let s = r.Server.Coordinator.stats in
  Util.check_true "the death was observed"
    (s.Server.Coordinator.worker_deaths >= 1);
  Util.check_true "the outstanding split was re-dealt"
    (s.Server.Coordinator.reassigned >= 1);
  Util.check_true "a replacement worker was spawned"
    (s.Server.Coordinator.respawns >= 1)

let test_steal () =
  (* One initial split and two workers: the second worker can only ever
     get work by the coordinator stealing the first one's unexplored
     frontier.  The per-split budget is effectively unlimited so the
     only yield reason available is the steal itself. *)
  let dim = 6 in
  let r =
    dverify ~initial_splits:1 ~initial_steps:10_000_000
      (staircase_spec ~timeout:120.0 dim)
  in
  let s = r.Server.Coordinator.stats in
  check_outcome "verdict with stealing" Common.Outcome.Verified
    r.Server.Coordinator.outcome;
  Alcotest.(check int) "single initial split" 1
    s.Server.Coordinator.initial_splits;
  Util.check_true "frontier entries were stolen"
    (s.Server.Coordinator.stolen >= 1)

let test_escalation () =
  (* A starvation-level initial budget forces Budget yields; the
     coordinator must escalate geometrically until the proof lands
     rather than giving up.  (Dim 6, not less: the canonical initial
     partition alone makes smaller staircases provable in one analyze
     call per shard, and nothing would ever yield.) *)
  let dim = 6 in
  let r =
    dverify ~initial_steps:40 (staircase_spec ~timeout:120.0 dim)
  in
  check_outcome "verdict under escalation" Common.Outcome.Verified
    r.Server.Coordinator.outcome;
  Util.check_true "budgets were escalated"
    (r.Server.Coordinator.stats.Server.Coordinator.escalated >= 1)

(* The coordinator's timer: a stop must not wait out the period. *)
let test_ticker_stops_mid_period () =
  let ticks = Atomic.make 0 in
  let t = Server.Ticker.start ~period:5.0 (fun () -> Atomic.incr ticks) in
  let t0 = Unix.gettimeofday () in
  Server.Ticker.stop t;
  let took = Unix.gettimeofday () -. t0 in
  Util.check_true
    (Printf.sprintf "stop returned in %.3fs of a 5s period" took)
    (took < 0.5);
  Alcotest.(check int) "no tick before the period" 0 (Atomic.get ticks)

let test_ticker_ticks () =
  let ticks = Atomic.make 0 in
  let t = Server.Ticker.start ~period:0.01 (fun () -> Atomic.incr ticks) in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while Atomic.get ticks < 3 && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.005
  done;
  Server.Ticker.stop t;
  Util.check_true "ticked" (Atomic.get ticks >= 3);
  let after_stop = Atomic.get ticks in
  Unix.sleepf 0.05;
  Alcotest.(check int) "no tick after stop" after_stop (Atomic.get ticks)

let () =
  Alcotest.run "dverify"
    [
      ( "protocol",
        [
          Alcotest.test_case "recv framing" `Quick test_recv_framing;
          Alcotest.test_case "worker rejects bad version" `Quick
            test_worker_rejects_version;
          Alcotest.test_case "coordinator rejects bad version" `Quick
            test_coordinator_rejects_version;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "two workers match the oracle" `Slow
            test_two_workers_match_oracle;
          Alcotest.test_case "refutation matches the oracle" `Slow
            test_refuted_matches_oracle;
        ] );
      ( "ticker",
        [
          Alcotest.test_case "stop interrupts the wait" `Quick
            test_ticker_stops_mid_period;
          Alcotest.test_case "ticks until stopped" `Quick test_ticker_ticks;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crash recovery" `Slow test_crash_recovery;
          Alcotest.test_case "steal" `Slow test_steal;
          Alcotest.test_case "escalation" `Slow test_escalation;
        ] );
    ]
