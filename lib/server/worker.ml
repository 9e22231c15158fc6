(* charon-dverify worker: one shard of a distributed split-and-conquer
   verification (docs/serving.md, "Distributed split-and-conquer").

   The worker speaks [Protocol.Dist] on its stdin/stdout pipes: after
   the versioned handshake it announces itself idle with
   [split_request] and then loops — receive a split, verify the
   subtree with [Verify.run_subtree], report [proved] / [refuted] /
   [yielded].  A dedicated reader domain drains the coordinator's
   messages so a [steal] or [cancel] lands while the main domain is
   mid-subtree: steal flips an atomic the verifier polls between
   regions, cancel trips the shared token and closes the mailbox.

   The process is disposable by design: any protocol irregularity or
   EOF from the coordinator ends it, and the coordinator's reassignment
   logic — not anything here — is what guarantees no split's verdict is
   lost when that happens. *)

module D = Protocol.Dist

let c_splits = Telemetry.Metrics.counter "dverify.worker.splits"

let c_regions = Telemetry.Metrics.counter "dverify.worker.regions"

(* Exit codes: 0 orderly (cancelled, work drained, coordinator gone),
   2 protocol violation mid-session, 3 handshake refused. *)
let exit_ok = 0

let exit_protocol = 2

let exit_handshake = 3

(* Crash injection for the CI distributed lane and the reassignment
   tests: with CHARON_DVERIFY_CRASH_AFTER=k the worker SIGKILLs itself
   upon receiving its (k+1)-th split — a genuine mid-run kill with an
   outstanding assignment, exactly the case the coordinator must
   recover by re-dealing the split elsewhere. *)
let crash_after () =
  match Sys.getenv_opt "CHARON_DVERIFY_CRASH_AFTER" with
  | None -> None
  | Some s -> int_of_string_opt s

(* Deterministic per-split RNG: derived from the job seed and the
   canonical partition key of the split's box, so the stream a region
   sees does not depend on which worker got the split, how often it was
   re-dealt, or assignment order. *)
let split_rng ~seed box =
  let h =
    String.fold_left
      (fun h c -> (h * 131) + Char.code c)
      seed
      (Domains.Partition.key_of_box box)
  in
  Linalg.Rng.create h

type session = {
  net : Nn.Network.t;
  spec : Protocol.job_spec;
  proofcache : Charon.Proofcache.t option;
  steal : bool Atomic.t;
  cancel : Parallel.Cancel.t;
  mailbox : D.to_worker Jobq.t;
}
[@@race.atomic]

let handshake ic oc =
  Protocol.send oc
    (D.from_worker_to_json
       (D.Hello { version = D.version; pid = Unix.getpid () }));
  match Protocol.recv ic with
  | None -> Error (exit_ok, "coordinator went away before the handshake")
  | Some json when D.is_rejection json ->
      let msg =
        match
          Option.bind (Telemetry.Jsonw.member "error" json)
            Telemetry.Jsonw.to_string_opt
        with
        | Some m -> m
        | None -> "handshake rejected"
      in
      Error (exit_handshake, msg)
  | Some json -> (
      match D.to_worker_of_json json with
      | D.Hello_ok { version; job; proofcache } ->
          if version <> D.version then
            Error
              ( exit_handshake,
                Printf.sprintf
                  "coordinator speaks dist protocol v%d, this worker v%d"
                  version D.version )
          else Ok (job, proofcache)
      | D.Cancel_all ->
          (* The run settled while we were greeting (e.g. a replacement
             spawned right before the verdict): orderly shutdown. *)
          Error (exit_ok, "")
      | D.Assign _ | D.Steal ->
          Error (exit_protocol, "expected hello_ok as the first message")
      | exception Protocol.Bad_request msg -> Error (exit_protocol, msg))

(* The reader domain owns stdin for the rest of the session.  It never
   blocks the verifier: assignments flow through the mailbox, steal and
   cancel are side-channel flags.  Any stream irregularity is treated
   as the coordinator's death — cancel the verifier and let the main
   loop drain out. *)
let reader ic session =
  let stop () =
    Parallel.Cancel.cancel session.cancel;
    Jobq.close session.mailbox
  in
  let rec loop () =
    match Option.map D.to_worker_of_json (Protocol.recv ic) with
    | None -> stop ()
    | Some (D.Assign _ as msg) ->
        (* Reset here, not in the verifier: pipe order is authoritative,
           so a [steal] that raced ahead of the verifier popping this
           assignment still applies to it, while one aimed at an earlier
           split is correctly dropped. *)
        Atomic.set session.steal false;
        ignore (Jobq.push session.mailbox msg);
        loop ()
    | Some D.Steal ->
        Atomic.set session.steal true;
        loop ()
    | Some D.Cancel_all -> stop ()
    | Some (D.Hello_ok _) ->
        (* A second handshake is a protocol violation; bail. *)
        stop ()
    | exception
        ( Protocol.Torn_line _ | Protocol.Bad_request _
        | Telemetry.Jsonw.Parse_error _ | Sys_error _ | End_of_file ) ->
        stop ()
  in
  loop ()

let verify_split session ~sid ~box ~depth =
  let spec = session.spec in
  Telemetry.Metrics.incr c_splits;
  let prop =
    Common.Property.create
      ~name:(Printf.sprintf "%s#%d" spec.Protocol.name sid)
      ~region:box ~target:spec.Protocol.target ()
  in
  let config =
    { Charon.Verify.default_config with Charon.Verify.delta = spec.Protocol.delta }
  in
  let r, frontier =
    Charon.Verify.run_subtree ~config ~cancel:session.cancel
      ~yield:(fun () -> Atomic.get session.steal)
      ?proofcache:session.proofcache ~root_depth:depth
      ~rng:(split_rng ~seed:spec.Protocol.seed box)
      ~policy:Charon.Policy.default session.net prop
  in
  let nodes = r.Charon.Verify.nodes and wall = r.Charon.Verify.elapsed in
  Telemetry.Metrics.add c_regions nodes;
  let yielded reason =
    D.Yielded
      {
        sid;
        reason;
        frontier = List.map (fun (box, depth) -> { D.box; depth }) frontier;
        nodes;
        wall;
      }
  in
  match r.Charon.Verify.outcome with
  | Common.Outcome.Verified -> D.Proved { sid; nodes; wall }
  | Common.Outcome.Refuted x -> D.Refuted { sid; witness = x; wall }
  | Common.Outcome.Unknown -> yielded D.Precision
  | Common.Outcome.Timeout ->
      (* Only a steal or the cancel stops a split short, and a
         cancelled worker never reports. *)
      yielded D.Stolen

let session_loop oc session =
  let crash_after = crash_after () in
  let assigns = ref 0 in
  let rec loop () =
    match Jobq.pop session.mailbox with
    | None -> exit_ok
    | Some (D.Assign { sid; box; depth }) ->
        incr assigns;
        (match crash_after with
        | Some k when !assigns > k ->
            (* Crash injection: die with this split outstanding. *)
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | Some _ | None -> ());
        let report = verify_split session ~sid ~box ~depth in
        if Parallel.Cancel.cancelled session.cancel then exit_ok
        else begin
          Protocol.send oc (D.from_worker_to_json report);
          loop ()
        end
    | Some (D.Hello_ok _ | D.Steal | D.Cancel_all) ->
        (* The reader never forwards these. *)
        exit_protocol
  in
  loop ()

let main ?(ic = stdin) ?(oc = stdout) () =
  (* EPIPE on a report beats dying silently on SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (match Sys.getenv_opt "CHARON_WORKER_TRACE" with
  | Some path when path <> "" && not (Telemetry.enabled ()) ->
      Telemetry.enable ~path ()
  | Some _ | None -> ());
  let finish code =
    Telemetry.disable ();
    code
  in
  match handshake ic oc with
  | Error (code, msg) ->
      if not (String.equal msg "") then
        prerr_endline ("charon-dverify worker: " ^ msg);
      finish code
  | Ok (spec, proofcache_path) -> (
      match Nn.Serial.of_string spec.Protocol.network with
      | exception Failure msg ->
          prerr_endline ("charon-dverify worker: bad network: " ^ msg);
          finish exit_protocol
      | net ->
          let session =
            {
              net;
              spec;
              proofcache =
                Option.map
                  (fun persist -> Charon.Proofcache.create ~persist ())
                  proofcache_path;
              steal = Atomic.make false;
              cancel = Parallel.Cancel.create ();
              mailbox = Jobq.create ();
            }
          in
          let rd = Domain.spawn (fun () -> reader ic session) in
          Protocol.send oc (D.from_worker_to_json D.Split_request);
          let code =
            match session_loop oc session with
            | code -> code
            | exception (Sys_error _ | Unix.Unix_error _) ->
                (* The coordinator's pipe is gone; nothing left to say. *)
                exit_ok
          in
          Parallel.Cancel.cancel session.cancel;
          Jobq.close session.mailbox;
          (* The reader is blocked in [recv] until the coordinator
             closes our stdin, which it does as soon as it has seen our
             exit or sent cancel; joining keeps the domain from being
             leaked in in-process tests. *)
          (try close_in ic with Sys_error _ -> ());
          Domain.join rd;
          (match session.proofcache with
          | Some pc -> Charon.Proofcache.close pc
          | None -> ());
          finish code)
