(* Lifecycle tests for the charon-serve daemon (docs/serving.md): a
   real daemon on a temp Unix socket, driven through the real client.

   The workload is the staircase network ({!Nn.Init.staircase}) over
   the box [-1, 1.5]^d: class 0 wins by at least eps = 0.05
   everywhere, so the property always holds and PGD can never refute
   it (eps is far above delta), but the proof only lands after
   splitting essentially every input dimension.  One family thus dials
   from "instant" through "hundreds of milliseconds" to "effectively
   forever". *)

open Linalg

module J = Telemetry.Jsonw

let staircase_spec ?(name = "staircase") ?timeout ?max_steps ?(seed = 1) dim =
  {
    Server.Protocol.name;
    network = Nn.Serial.to_string (Nn.Init.staircase dim);
    box = Domains.Box.of_center_radius (Vec.create dim 0.25) 1.25;
    target = 0;
    delta = 1e-4;
    timeout;
    max_steps;
    seed;
  }

(* ------------------------------------------------------------------ *)
(* JSON plumbing *)

let jget json path =
  let rec go json = function
    | [] -> json
    | key :: rest -> (
        match J.member key json with
        | Some v -> go v rest
        | None ->
            Alcotest.failf "no %S in %s" key (J.to_string ~pretty:true json))
  in
  go json path

let jint json path =
  match J.to_int_opt (jget json path) with
  | Some i -> i
  | None -> Alcotest.failf "not an int at %s" (String.concat "." path)

let jfloat json path =
  match J.to_float_opt (jget json path) with
  | Some f -> f
  | None -> Alcotest.failf "not a number at %s" (String.concat "." path)

let jstr json path =
  match J.to_string_opt (jget json path) with
  | Some s -> s
  | None -> Alcotest.failf "not a string at %s" (String.concat "." path)

let jbool json path =
  match jget json path with
  | J.Bool b -> b
  | _ -> Alcotest.failf "not a bool at %s" (String.concat "." path)

let check_ok json = Util.check_true "ok response" (jbool json [ "ok" ])

(* ------------------------------------------------------------------ *)
(* Daemon harness *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "charon-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_daemon ?(workers = 4) ?(cache_capacity = 16) f =
  let socket = fresh_socket () in
  let handle = Server.Daemon.start ~socket ~workers ~cache_capacity () in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Server.Daemon.stop handle
    end
  in
  Fun.protect ~finally:stop (fun () ->
      let r = f socket in
      stop ();
      Util.check_true "socket file removed on shutdown"
        (not (Sys.file_exists socket));
      r)

(* Label shims: these tests predate the multi-transport client and
   speak through the trusted Unix socket; the path is the address. *)
let addr socket = Server.Client.Unix_socket socket

let submit socket spec = Server.Client.submit ~addr:(addr socket) spec

let status socket id = Server.Client.status ~addr:(addr socket) id

let cancel socket id = Server.Client.cancel ~addr:(addr socket) id

let get_stats socket = Server.Client.stats ~addr:(addr socket) ()

let ping socket = Server.Client.ping ~addr:(addr socket) ()

let wait socket id = Server.Client.wait ~addr:(addr socket) ~deadline:60.0 id

(* ------------------------------------------------------------------ *)
(* Tests *)

let test_ping_and_stats () =
  with_daemon ~workers:2 (fun socket ->
      check_ok (ping socket);
      let stats = get_stats socket in
      check_ok stats;
      Alcotest.(check int) "workers" 2 (jint stats [ "workers" ]);
      Alcotest.(check int) "empty queue" 0 (jint stats [ "queue_depth" ]);
      Alcotest.(check int) "nothing queued" 0 (jint stats [ "queued" ]);
      Alcotest.(check int) "nothing in flight" 0 (jint stats [ "in_flight" ]);
      (* The scheduler-wide subregion proof cache reports through the
         same stats response. *)
      Alcotest.(check int) "proof cache empty" 0
        (jint stats [ "proofcache"; "entries" ]);
      Alcotest.(check int) "proof cache idle" 0
        (jint stats [ "proofcache"; "lookups" ]))

let test_verdicts_round_trip () =
  with_daemon (fun socket ->
      (* The staircase property holds with margin eps. *)
      let id, _ = submit socket (staircase_spec 3) in
      let final = wait socket id in
      Alcotest.(check string) "state" "done" (jstr final [ "state" ]);
      Alcotest.(check string)
        "verified" "verified"
        (jstr final [ "verdict"; "verdict" ]);
      (* Target class 1 loses by exactly eps everywhere: refuted, and
         the bit-exact witness string round-trips through the wire. *)
      let spec = { (staircase_spec 3) with Server.Protocol.target = 1 } in
      let id, _ = submit socket spec in
      let final = wait socket id in
      Alcotest.(check string)
        "falsified" "falsified"
        (jstr final [ "verdict"; "verdict" ]);
      (match Server.Protocol.outcome_of_json (jget final [ "verdict" ]) with
      | Common.Outcome.Refuted x ->
          Util.check_true "witness in region"
            (Domains.Box.contains spec.Server.Protocol.box x)
      | _ -> Alcotest.fail "expected a witness");
      (* The event stream tells the whole story, in order. *)
      let labels =
        match jget final [ "events" ] with
        | J.Arr events -> List.map (fun e -> jstr e [ "label" ]) events
        | _ -> Alcotest.fail "events must be an array"
      in
      Util.check_true
        (Printf.sprintf "event order (got %s)" (String.concat " -> " labels))
        (match labels with
        | [ "queued"; "running"; "falsified" ] -> true
        | _ -> false))

let test_cache_hit_on_repeat () =
  with_daemon (fun socket ->
      (* Large enough that the cold run costs real wall time, small
         enough to stay far from the test deadline.  The daemon's proof
         cache makes the search cut canonically, so the staircase of
         dimension d costs about 2^d regions: d = 10 is about 0.2 s on
         a 2-vCPU VM, against a cache hit of well under a millisecond. *)
      let spec = staircase_spec 10 in
      let id, first = submit socket spec in
      Util.check_true "cold submit misses" (not (jbool first [ "cache"; "hit" ]));
      let final = wait socket id in
      let cold_wall = jfloat final [ "wall_seconds" ] in
      Util.check_true "cold run does real work" (cold_wall > 0.0);
      (* Same question again: answered synchronously from the cache,
         with the cold run's cost echoed for comparison. *)
      let t0 = Unix.gettimeofday () in
      let _, second = submit socket spec in
      let hit_wall = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "done at submit" "done" (jstr second [ "state" ]);
      Util.check_true "cache hit" (jbool second [ "cache"; "hit" ]);
      Alcotest.(check string)
        "same verdict" "verified"
        (jstr second [ "verdict"; "verdict" ]);
      Util.check_close ~eps:1e-12 "cold wall echoed" cold_wall
        (jfloat second [ "cache"; "cold_wall_seconds" ]);
      (* The acceptance bar: a repeat answered at least 10x faster than
         the cold run it replaces (in practice it is a socket round
         trip vs hundreds of milliseconds of verification). *)
      Util.check_true
        (Printf.sprintf "10x faster (%.4fs cached vs %.4fs cold)" hit_wall
           cold_wall)
        (hit_wall *. 10.0 <= cold_wall);
      (* A different question (other target class) must not hit. *)
      let other = { spec with Server.Protocol.target = 1 } in
      let id, third = submit socket other in
      Util.check_true "different key misses" (not (jbool third [ "cache"; "hit" ]));
      ignore (wait socket id);
      let stats = get_stats socket in
      Util.check_true "hits counted" (jint stats [ "cache"; "hits" ] >= 1);
      Util.check_true "misses counted" (jint stats [ "cache"; "misses" ] >= 2);
      Util.check_true "hit rate reported"
        (jfloat stats [ "cache"; "hit_rate" ] > 0.0);
      (* The verifications behind the verdicts above ran with the
         shared proof cache attached: lookups must have been counted
         and the proved subregions recorded. *)
      Util.check_true "proof cache consulted"
        (jint stats [ "proofcache"; "lookups" ] >= 1);
      Util.check_true "proved subregions recorded"
        (jint stats [ "proofcache"; "entries" ] >= 1);
      Util.check_true "proof cache hit rate reported"
        (jfloat stats [ "proofcache"; "hit_rate" ] >= 0.0))

let test_concurrent_jobs_cancel_timeout () =
  with_daemon ~workers:4 (fun socket ->
      (* Ten effectively-endless jobs on four workers: four get claimed
         and run, six sit in the queue.  Distinct deltas make them ten
         distinct *questions* — same-question submits would coalesce
         onto one run (and same-seed ones would hit the cache). *)
      let ids =
        List.init 10 (fun i ->
            let spec =
              {
                (staircase_spec 20 ~seed:(100 + i)
                   ~name:(Printf.sprintf "slow-%d" i))
                with
                Server.Protocol.delta = 1e-4 +. (1e-7 *. float_of_int i);
              }
            in
            fst (submit socket spec))
      in
      let stats = get_stats socket in
      (* In-flight counts *claimed* jobs only (the queued backlog has
         its own gauge), so it can never exceed the pool width — this
         is the regression test for the gauge that used to count queued
         submissions too. *)
      Util.check_true
        (Printf.sprintf "in flight bounded by workers (got %d)"
           (jint stats [ "in_flight" ]))
        (jint stats [ "in_flight" ] <= 4);
      Util.check_true
        (Printf.sprintf "queued gauge sees the backlog (got %d)"
           (jint stats [ "queued" ]))
        (jint stats [ "queued" ] >= 6);
      (* Wait until the pool actually picked up four of them. *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      let running () =
        List.length
          (List.filter
             (fun id ->
               jstr (status socket id) [ "state" ] = "running")
             ids)
      in
      while running () < 4 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      Alcotest.(check int) "all four workers busy" 4 (running ());
      (* With all four workers pinned on endless jobs the gauges are
         stable: exactly the pool width in flight, the rest queued. *)
      let stats = get_stats socket in
      Alcotest.(check int) "in flight = workers" 4 (jint stats [ "in_flight" ]);
      Alcotest.(check int) "backlog queued" 6 (jint stats [ "queued" ]);
      (* A running job reports live progress. *)
      let some_running =
        List.find
          (fun id ->
            jstr (status socket id) [ "state" ] = "running")
          ids
      in
      let progressed () =
        jint (status socket some_running) [ "progress"; "nodes" ]
        > 0
      in
      while (not (progressed ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      Util.check_true "running job streams split progress" (progressed ());
      (* Cancel them all: queued ones settle synchronously, running
         ones at the verifier's next region poll. *)
      List.iter (fun id -> check_ok (cancel socket id)) ids;
      let finals = List.map (fun id -> wait socket id) ids in
      List.iter
        (fun final ->
          Alcotest.(check string)
            "cancelled" "cancelled"
            (jstr final [ "state" ]))
        finals;
      let stats = get_stats socket in
      Alcotest.(check int) "nothing left in flight" 0
        (jint stats [ "in_flight" ]);
      Alcotest.(check int) "peak realised concurrency = pool width" 4
        (jint stats [ "peak_in_flight" ]);
      Alcotest.(check int) "all ten cancelled" 10
        (jint stats [ "jobs"; "cancelled" ]);
      (* Per-job budgets: a wall-clock timeout comes back as a timeout
         verdict, a step budget likewise; neither verdict is cached. *)
      let id, _ =
        submit socket (staircase_spec 20 ~timeout:0.2)
      in
      let final = wait socket id in
      Alcotest.(check string) "done" "done" (jstr final [ "state" ]);
      Alcotest.(check string)
        "wall timeout" "timeout"
        (jstr final [ "verdict"; "verdict" ]);
      let id, resubmit =
        submit socket (staircase_spec 20 ~timeout:0.2)
      in
      Util.check_true "timeouts are not cached"
        (not (jbool resubmit [ "cache"; "hit" ]));
      ignore (wait socket id);
      let id, _ =
        submit socket (staircase_spec 20 ~max_steps:50 ~seed:2)
      in
      let final = wait socket id in
      Alcotest.(check string)
        "step timeout" "timeout"
        (jstr final [ "verdict"; "verdict" ]))

let test_failed_job_and_bad_requests () =
  with_daemon ~workers:1 (fun socket ->
      (* A syntactically valid request whose network text is garbage
         fails that job — and only that job. *)
      let spec =
        { (staircase_spec 2) with Server.Protocol.network = "not a network" }
      in
      let id, _ = submit socket spec in
      let final = wait socket id in
      Alcotest.(check string) "failed" "failed" (jstr final [ "state" ]);
      Util.check_true "failure reason included"
        (J.member "error" final <> None);
      (* The daemon survives and still answers. *)
      let id, _ = submit socket (staircase_spec 2) in
      Alcotest.(check string)
        "next job unaffected" "verified"
        (jstr (wait socket id) [ "verdict"; "verdict" ]);
      (* Unknown ids and malformed requests are refusals, not crashes. *)
      (match status socket 999 with
      | _ -> Alcotest.fail "unknown job id must be refused"
      | exception Server.Client.Server_error _ -> ());
      let raw_request line =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let oc = Unix.out_channel_of_descr fd in
            output_string oc (line ^ "\n");
            flush oc;
            input_line (Unix.in_channel_of_descr fd))
      in
      Util.check_true "malformed json refused"
        (not (jbool (J.parse (raw_request "this is not json")) [ "ok" ]));
      Util.check_true "unknown op refused"
        (not (jbool (J.parse (raw_request {|{"op":"frobnicate"}|})) [ "ok" ]));
      (* And the daemon is still alive after both. *)
      check_ok (ping socket))

let test_restart_durability () =
  (* The persistent verdict store: solve cold, stop the daemon, start a
     fresh one (empty LRU) on the same journal — the same question must
     answer synchronously from disk, verdict and cold cost intact. *)
  let socket = fresh_socket () in
  let store =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "charon-store-test-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists store then Sys.remove store;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
    (fun () ->
      let handle =
        Server.Daemon.start ~socket ~workers:2 ~store_path:store ()
      in
      let spec = staircase_spec 5 ~name:"durable" in
      let id, first = submit socket spec in
      Util.check_true "cold submit misses"
        (not (jbool first [ "cache"; "hit" ]));
      let final = wait socket id in
      Alcotest.(check string)
        "solved cold" "verified"
        (jstr final [ "verdict"; "verdict" ]);
      let cold_wall = jfloat final [ "wall_seconds" ] in
      Server.Daemon.stop handle;
      (* Simulate a crash mid-append: a torn half-line at the journal's
         tail must be skipped on replay, not poison the restart. *)
      let oc = open_out_gen [ Open_append ] 0o644 store in
      output_string oc "{\"v\":1,\"key\":\"feedbeef\",\"verd";
      close_out oc;
      let handle =
        Server.Daemon.start ~socket ~workers:2 ~store_path:store ()
      in
      let _, second = submit socket spec in
      Alcotest.(check string)
        "done at submit" "done"
        (jstr second [ "state" ]);
      Util.check_true "answered from disk across the restart"
        (jbool second [ "cache"; "hit" ]);
      Alcotest.(check string)
        "same verdict" "verified"
        (jstr second [ "verdict"; "verdict" ]);
      Util.check_close ~eps:1e-9 "cold cost survives the restart" cold_wall
        (jfloat second [ "cache"; "cold_wall_seconds" ]);
      let st = get_stats socket in
      Util.check_true "journal replayed into the store"
        (jint st [ "store"; "loaded" ] >= 1);
      Util.check_true "store hit counted" (jint st [ "store"; "hits" ] >= 1);
      Server.Daemon.stop handle)

let test_tcp_tenants_quota_coalescing () =
  (* The multi-tenant TCP endpoint: hello handshake, API keys, quotas,
     and cross-tenant coalescing — all deterministic (the statistical
     fairness properties live in the soak test). *)
  let tenants =
    Server.Tenant.of_json
      (J.parse
         {|{"tenants":[
             {"name":"alice","key":"ka","quota":2},
             {"name":"bob","key":"kb","weight":2.0}]}|})
  in
  let handle =
    Server.Daemon.start ~tcp:("127.0.0.1", 0) ~workers:2 ~tenants ()
  in
  Fun.protect
    ~finally:(fun () -> try Server.Daemon.stop handle with _ -> ())
    (fun () ->
      let port =
        match Server.Daemon.tcp_port handle with
        | Some p -> p
        | None -> Alcotest.fail "daemon bound no TCP port"
      in
      let addr = Server.Client.Tcp ("127.0.0.1", port) in
      (* No key: refused at the handshake, terminally. *)
      (match Server.Client.ping ~addr () with
      | _ -> Alcotest.fail "anonymous TCP must be refused under tenancy"
      | exception Server.Client.Rejected r ->
          Alcotest.(check string) "auth code" "auth" r.code;
          Util.check_true "auth is not retryable" (not r.retryable));
      (* Wrong key: same refusal. *)
      (match Server.Client.ping ~api_key:"nope" ~addr () with
      | _ -> Alcotest.fail "unknown key must be refused"
      | exception Server.Client.Rejected r ->
          Alcotest.(check string) "auth code" "auth" r.code);
      (* A configured key verifies end to end over TCP. *)
      check_ok (Server.Client.ping ~api_key:"ka" ~addr ());
      let id, _ = Server.Client.submit ~api_key:"ka" ~addr (staircase_spec 3) in
      let final = Server.Client.wait ~api_key:"ka" ~addr ~deadline:60.0 id in
      Alcotest.(check string)
        "verified over TCP" "verified"
        (jstr final [ "verdict"; "verdict" ]);
      (* Quota: alice may hold two outstanding jobs; the third submit
         is a retryable structured reject, charged to her alone. *)
      let slow i =
        {
          (staircase_spec 20 ~seed:(300 + i))
          with
          Server.Protocol.delta = 1e-4 +. (1e-7 *. float_of_int i);
        }
      in
      let a = fst (Server.Client.submit ~api_key:"ka" ~addr (slow 0)) in
      let b = fst (Server.Client.submit ~api_key:"ka" ~addr (slow 1)) in
      (match Server.Client.submit ~api_key:"ka" ~addr (slow 2) with
      | _ -> Alcotest.fail "third outstanding job must trip the quota"
      | exception Server.Client.Rejected r ->
          Alcotest.(check string) "quota code" "quota" r.code;
          Util.check_true "quota is retryable" r.retryable);
      (* Bob is unaffected by alice's quota, and his submit of alice's
         exact question coalesces onto her in-flight run instead of
         queueing a second one. *)
      let c = fst (Server.Client.submit ~api_key:"kb" ~addr (slow 0)) in
      let st = Server.Client.stats ~api_key:"kb" ~addr () in
      Util.check_true "coalesced counted"
        (jint st [ "coalesce"; "coalesced_total" ] >= 1);
      let tenant_block name =
        match jget st [ "tenants" ] with
        | J.Arr ts -> (
            match
              List.find_opt (fun t -> jstr t [ "name" ] = name) ts
            with
            | Some t -> t
            | None -> Alcotest.failf "no tenant %S in stats" name)
        | _ -> Alcotest.fail "tenants must be an array"
      in
      Util.check_true "alice's quota reject counted"
        (jint (tenant_block "alice") [ "rejected_quota" ] >= 1);
      Util.check_true "bob's coalesce counted"
        (jint (tenant_block "bob") [ "coalesced" ] >= 1);
      (* Everyone cancels cleanly; bob's detach must not kill alice's
         run, and vice versa. *)
      check_ok (Server.Client.cancel ~api_key:"kb" ~addr c);
      check_ok (Server.Client.cancel ~api_key:"ka" ~addr a);
      check_ok (Server.Client.cancel ~api_key:"ka" ~addr b);
      List.iter
        (fun (key, id) ->
          Alcotest.(check string)
            "cancelled" "cancelled"
            (jstr
               (Server.Client.wait ~api_key:key ~addr ~deadline:60.0 id)
               [ "state" ]))
        [ ("kb", c); ("ka", a); ("ka", b) ])

let test_shutdown_cancels_pending () =
  (* Shutdown with a full queue: pending jobs are cancelled, every
     domain is joined, the socket file disappears, and a fresh daemon
     can bind the same path again. *)
  let socket = fresh_socket () in
  let handle = Server.Daemon.start ~socket ~workers:2 () in
  let ids =
    List.init 6 (fun i ->
        fst (submit socket (staircase_spec 20 ~seed:(200 + i))))
  in
  Alcotest.(check int) "six submitted" 6 (List.length ids);
  Server.Daemon.stop handle;
  Util.check_true "socket removed" (not (Sys.file_exists socket));
  (match ping socket with
  | _ -> Alcotest.fail "daemon still answering after stop"
  | exception (Unix.Unix_error _ | Sys_error _) -> ());
  (* Same path, fresh daemon: nothing from the first life leaks in. *)
  let handle = Server.Daemon.start ~socket ~workers:2 () in
  let stats = get_stats socket in
  Alcotest.(check int) "fresh job table" 0 (jint stats [ "jobs"; "submitted" ]);
  Server.Daemon.stop handle;
  Util.check_true "socket removed again" (not (Sys.file_exists socket))

let test_cancelled_run_keeps_newer_coalesce_key () =
  (* Cancel run A while it executes, then ask the same question again:
     B starts a fresh run.  When A finally settles it must not drop
     B's coalescing entry, or C — the same question, asked while B is
     still live — becomes a third run.  One worker and a wide
     staircase make every region slow, so A is still winding down
     when B arrives. *)
  let s = Server.Scheduler.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Server.Scheduler.shutdown s)
    (fun () ->
      let spec = staircase_spec 300 in
      let state id =
        jstr (Server.Scheduler.status s ~id ~since:0) [ "state" ]
      in
      let await what p =
        let deadline = Unix.gettimeofday () +. 30.0 in
        while (not (p ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.005
        done;
        Util.check_true what (p ())
      in
      let a = jint (Server.Scheduler.submit s spec) [ "id" ] in
      await "A running" (fun () -> String.equal (state a) "running");
      check_ok (Server.Scheduler.cancel s a);
      let b = Server.Scheduler.submit s spec in
      Util.check_true "B does not ride the dying A"
        (not (jbool b [ "coalesced" ]));
      await "A settles" (fun () -> String.equal (state a) "cancelled");
      Util.check_true "B still live"
        (not (Server.Client.terminal (state (jint b [ "id" ]))));
      let c = Server.Scheduler.submit s spec in
      Util.check_true "C coalesces onto B" (jbool c [ "coalesced" ]))

(* A second daemon on a live daemon's TCP port: a clear Failure, and
   the Unix socket that start-up had already bound is closed and
   removed again. *)
let test_busy_port () =
  let first = Server.Daemon.start ~tcp:("127.0.0.1", 0) ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop first)
    (fun () ->
      let port =
        match Server.Daemon.tcp_port first with
        | Some p -> p
        | None -> Alcotest.fail "daemon bound no TCP port"
      in
      let socket = fresh_socket () in
      (match
         Server.Daemon.start ~socket ~tcp:("127.0.0.1", port) ~workers:1 ()
       with
      | second ->
          Server.Daemon.stop second;
          Alcotest.fail "a second bind of a live port must fail"
      | exception Failure msg ->
          Alcotest.(check string) "message"
            (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" port
               (Unix.error_message Unix.EADDRINUSE))
            msg);
      Util.check_true "the bound Unix socket is removed again"
        (not (Sys.file_exists socket));
      check_ok (Server.Client.ping ~addr:(Server.Client.Tcp ("127.0.0.1", port)) ()))

let () =
  Alcotest.run "server"
    [
      ( "lifecycle",
        [
          Util.case "ping and stats" test_ping_and_stats;
          Util.case "verdicts round-trip" test_verdicts_round_trip;
          Util.case "repeat submit hits the cache" test_cache_hit_on_repeat;
          Util.slow_case "concurrency, cancellation, timeouts"
            test_concurrent_jobs_cancel_timeout;
          Util.case "failed jobs stay isolated" test_failed_job_and_bad_requests;
          Util.case "verdict store survives a restart" test_restart_durability;
          Util.slow_case "TCP tenants: auth, quota, coalescing"
            test_tcp_tenants_quota_coalescing;
          Util.case "shutdown cancels pending work" test_shutdown_cancels_pending;
          Util.case "a cancelled run keeps a newer run's coalescing"
            test_cancelled_run_keeps_newer_coalesce_key;
          Util.case "a busy port fails cleanly" test_busy_port;
        ] );
    ]
