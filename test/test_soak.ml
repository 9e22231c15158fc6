(* Multi-tenant soak for charon-serve (docs/serving.md): a real TCP
   daemon, three tenants hammering it concurrently with a
   duplicate-heavy workload for a time-boxed window.

   What the soak locks in, beyond what the deterministic lifecycle
   tests already pin:

   - request coalescing fires under real concurrency (identical
     in-flight questions share one run),
   - backpressure: a full run queue answers structured, *retryable*
     busy rejects and the daemon keeps serving,
   - fair share: tenants with equal weights and identical workloads
     see comparable p95 queue ages — no lane starves,
   - the daemon survives the whole storm and shuts down cleanly.

   Time box: CHARON_SOAK_SECONDS (default 3, a smoke run for the tier-1
   suite; the CI soak job runs longer).  CHARON_SOAK_STATS=FILE writes
   the final per-tenant stats JSON for the CI job summary. *)

open Linalg

module J = Telemetry.Jsonw

let soak_seconds =
  match Sys.getenv_opt "CHARON_SOAK_SECONDS" with
  | None -> 3.0
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some x when x > 0.0 -> x
      | _ -> 3.0)

(* The staircase family (Nn.Init.staircase): difficulty dials with the
   dimension, the property always holds. *)
let networks =
  [|
    Nn.Serial.to_string (Nn.Init.staircase 3);
    Nn.Serial.to_string (Nn.Init.staircase 5);
  |]

let spec ~dim_idx ~delta_bump ~name =
  {
    Server.Protocol.name;
    network = networks.(dim_idx);
    box =
      Domains.Box.of_center_radius
        (Vec.create (if dim_idx = 0 then 3 else 5) 0.25)
        1.25;
    target = 0;
    delta = 1e-4 +. (1e-9 *. float_of_int delta_bump);
    timeout = None;
    max_steps = None;
    seed = 1;
  }

let slow_spec i =
  {
    (spec ~dim_idx:1 ~delta_bump:0 ~name:(Printf.sprintf "pin-%d" i)) with
    Server.Protocol.network = Nn.Serial.to_string (Nn.Init.staircase 20);
    box = Domains.Box.of_center_radius (Vec.create 20 0.25) 1.25;
    delta = 1e-4 +. (1e-7 *. float_of_int i);
  }

let jint json path =
  let rec go json = function
    | [] -> J.to_int_opt json
    | k :: rest -> Option.bind (J.member k json) (fun v -> go v rest)
  in
  match go json path with
  | Some i -> i
  | None -> Alcotest.failf "no int at %s" (String.concat "." path)

let jfloat json path =
  let rec go json = function
    | [] -> J.to_float_opt json
    | k :: rest -> Option.bind (J.member k json) (fun v -> go v rest)
  in
  match go json path with
  | Some f -> f
  | None -> Alcotest.failf "no number at %s" (String.concat "." path)

let jstr json path =
  let rec go json = function
    | [] -> J.to_string_opt json
    | k :: rest -> Option.bind (J.member k json) (fun v -> go v rest)
  in
  match go json path with
  | Some s -> s
  | None -> Alcotest.failf "no string at %s" (String.concat "." path)

(* Per-thread tallies, merged after the join. *)
type tally = {
  mutable submitted : int;
  mutable completed : int;
  mutable coalesced_seen : int;
  mutable busy : int;
  mutable quota : int;
  mutable other_rejects : int;
  mutable first_other : string;
}

let test_soak () =
  let tenants =
    Server.Tenant.of_json
      (J.parse
         {|{"tenants":[
             {"name":"t-a","key":"key-a","quota":16},
             {"name":"t-b","key":"key-b","quota":16},
             {"name":"t-c","key":"key-c","quota":16}]}|})
  in
  let handle =
    Server.Daemon.start ~tcp:("127.0.0.1", 0) ~workers:2 ~queue_capacity:4
      ~cache_capacity:64 ~tenants ()
  in
  Fun.protect
    ~finally:(fun () ->
      try Server.Daemon.stop handle
      with e ->
        Printf.eprintf "daemon stop raised: %s\n%!" (Printexc.to_string e))
    (fun () ->
      let port =
        match Server.Daemon.tcp_port handle with
        | Some p -> p
        | None -> Alcotest.fail "no TCP port"
      in
      let addr = Server.Client.Tcp ("127.0.0.1", port) in

      (* ---- Phase 1 (deterministic): backpressure and coalescing.
         Endless jobs pin both workers and fill the bounded queue;
         submits past the bound must be structured *retryable* busy
         rejects.  Submission itself may already trip the bound (the
         pool races the submitter for the first claims), so accepted
         ids and the reject are collected from one tolerant loop. *)
      let pins = ref [] in
      let saw_busy = ref false in
      let attempts = ref 0 in
      while (not !saw_busy) && !attempts < 20 do
        (match Server.Client.submit ~api_key:"key-a" ~addr (slow_spec !attempts)
         with
        | id, _ -> pins := id :: !pins
        | exception Server.Client.Rejected r ->
            Alcotest.(check string) "busy code" "busy" r.code;
            Util.check_true "busy is retryable" r.retryable;
            saw_busy := true);
        incr attempts
      done;
      Util.check_true "a full queue answered busy" !saw_busy;
      (* An identical question from another tenant while the original
         run is still in flight must coalesce, not queue a second run
         (the queue is full — an un-coalesced submit would be busy). *)
      let dup =
        fst (Server.Client.submit ~api_key:"key-b" ~addr (slow_spec 0))
      in
      let st = Server.Client.stats ~api_key:"key-b" ~addr () in
      Util.check_true "duplicate coalesced onto the in-flight run"
        (jint st [ "coalesce"; "coalesced_total" ] >= 1);
      (* Unpin: cancel the lot and wait them out. *)
      ignore (Server.Client.cancel ~api_key:"key-b" ~addr dup);
      List.iter
        (fun id ->
          ignore (Server.Client.cancel ~api_key:"key-a" ~addr id))
        !pins;
      ignore (Server.Client.wait ~api_key:"key-b" ~addr ~deadline:60.0 dup);
      List.iter
        (fun id ->
          ignore (Server.Client.wait ~api_key:"key-a" ~addr ~deadline:60.0 id))
        !pins;

      (* ---- Phase 2 (time-boxed storm): three tenant threads, equal
         weights, identical duplicate-heavy workloads.  Every round
         submits the *same fresh question twice* back-to-back — with
         both workers often busy, the second submit reliably attaches
         to the first one's run, exercising coalescing; repeats of
         *old* rounds hit the verdict cache instead. *)
      let stop_at = Unix.gettimeofday () +. soak_seconds in
      let worker tid key =
        let tally =
          {
            submitted = 0;
            completed = 0;
            coalesced_seen = 0;
            busy = 0;
            quota = 0;
            other_rejects = 0;
            first_other = "";
          }
        in
        let rng = Rng.create (Util.effective_seed (7000 + tid)) in
        let round = ref 0 in
        while Unix.gettimeofday () < stop_at do
          incr round;
          (* Fresh question ~2/3 of the time (unique bump per tenant
             and round), an old round's question otherwise (cache
             fodder). *)
          let bump =
            if Rng.int rng 3 < 2 then (tid * 1_000_000) + !round
            else (tid * 1_000_000) + 1 + Rng.int rng (max 1 !round)
          in
          let s =
            spec
              ~dim_idx:(if Rng.int rng 4 = 0 then 1 else 0)
              ~delta_bump:bump
              ~name:(Printf.sprintf "%s-r%d" key !round)
          in
          let submit_once () =
            match Server.Client.submit ~api_key:key ~addr s with
            | id, response ->
                tally.submitted <- tally.submitted + 1;
                (match J.member "events" response with
                | Some (J.Arr events) ->
                    if
                      List.exists
                        (fun e ->
                          match
                            Option.bind (J.member "label" e) J.to_string_opt
                          with
                          | Some l ->
                              String.length l >= 9
                              && String.sub l 0 9 = "coalesced"
                          | None -> false)
                        events
                    then tally.coalesced_seen <- tally.coalesced_seen + 1
                | _ -> ());
                Some id
            | exception Server.Client.Rejected r ->
                (match r.code with
                | "busy" ->
                    Util.check_true "busy reject is retryable" r.retryable;
                    tally.busy <- tally.busy + 1
                | "quota" ->
                    Util.check_true "quota reject is retryable" r.retryable;
                    tally.quota <- tally.quota + 1
                | code ->
                    if tally.first_other = "" then
                      tally.first_other <-
                        Printf.sprintf "%s: %s" code r.message;
                    tally.other_rejects <- tally.other_rejects + 1);
                Unix.sleepf 0.002;
                None
          in
          let first = submit_once () in
          let second = submit_once () in
          List.iter
            (fun id ->
              match
                Server.Client.wait ~api_key:key ~addr ~deadline:60.0 id
              with
              | final ->
                  let state = jstr final [ "state" ] in
                  if state = "done" then tally.completed <- tally.completed + 1
              | exception Server.Client.Server_error _ -> ())
            (List.filter_map Fun.id [ first; second ])
        done;
        tally
      in
      let threads =
        List.mapi
          (fun tid key -> Stdlib.Domain.spawn (fun () -> worker tid key))
          [ "key-a"; "key-b"; "key-c" ]
      in
      let tallies = List.map Stdlib.Domain.join threads in
      let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in

      (* ---- Verdicts over the storm. *)
      Util.check_true "storm did real work" (total (fun t -> t.completed) > 0);
      let first_other =
        List.fold_left
          (fun acc t -> if acc = "" then t.first_other else acc)
          "" tallies
      in
      Alcotest.(check int)
        (if first_other = "" then "no unexpected reject codes"
         else "no unexpected reject codes (first: " ^ first_other ^ ")")
        0
        (total (fun t -> t.other_rejects));
      let st = Server.Client.stats ~api_key:"key-a" ~addr () in
      Util.check_true "coalescing fired under load"
        (jint st [ "coalesce"; "coalesced_total" ] >= 1);
      Util.check_true "verdict cache fired under load"
        (jint st [ "cache"; "hits" ] >= 1);
      Alcotest.(check int)
        "nothing left in flight after the join" 0
        (jint st [ "in_flight" ]);

      (* Fair share: equal weights, identical workloads — no tenant's
         p95 queue age may dwarf another's.  The bound is deliberately
         loose (10x + 250ms slack): this is a starvation alarm, not a
         latency SLO. *)
      let p95s =
        match J.member "tenants" st with
        | Some (J.Arr ts) ->
            List.filter_map
              (fun t ->
                let name = jstr t [ "name" ] in
                if String.length name >= 2 && String.sub name 0 2 = "t-" then
                  Some (name, jfloat t [ "queue_age"; "p95_seconds" ])
                else None)
              ts
        | _ -> Alcotest.fail "stats carry no tenants array"
      in
      Alcotest.(check int) "three tenants reporting" 3 (List.length p95s);
      List.iter
        (fun (ni, pi) ->
          List.iter
            (fun (nj, pj) ->
              Util.check_true
                (Printf.sprintf
                   "fair share: %s p95 %.4fs within bounds of %s p95 %.4fs" ni
                   pi nj pj)
                (pi <= (10.0 *. pj) +. 0.25))
            p95s)
        p95s;

      (* The CI soak job publishes the per-tenant block. *)
      let stats_doc =
        J.Obj
          [
            ("soak_seconds", J.Float soak_seconds);
            ("submitted", J.Int (total (fun t -> t.submitted)));
            ("completed", J.Int (total (fun t -> t.completed)));
            ("busy_rejects", J.Int (total (fun t -> t.busy)));
            ("quota_rejects", J.Int (total (fun t -> t.quota)));
            ( "coalesced_total",
              J.Int (jint st [ "coalesce"; "coalesced_total" ]) );
            ("cache_hits", J.Int (jint st [ "cache"; "hits" ]));
            ( "tenants",
              match J.member "tenants" st with
              | Some t -> t
              | None -> J.Null );
          ]
      in
      print_endline (J.to_string ~pretty:true stats_doc);
      (match Sys.getenv_opt "CHARON_SOAK_STATS" with
      | Some path when path <> "" ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (J.to_string ~pretty:true stats_doc);
              output_char oc '\n')
      | Some _ | None -> ()));
  (* Fun.protect already stopped the daemon; a second stop must not be
     needed — the handle's loop domain is joined exactly once. *)
  ()

let () =
  Alcotest.run "soak"
    [ ( "multi-tenant storm",
        [ Util.slow_case "tcp soak: coalescing, backpressure, fairness"
            test_soak ] ) ]
