(* charon-dverify coordinator: shard one hard verification across N
   worker processes (docs/serving.md, "Distributed split-and-conquer").

   The coordinator owns the problem: it cuts the input box into an
   initial pool of canonical splits (Domains.Partition cuts, so shard
   results keep canonical proof-cache keys), deals splits to workers
   over [Protocol.Dist], and runs a small event loop driven by three
   sources — per-worker reader domains (one blocking [Protocol.recv]
   loop each), a 20 Hz timer tick (global wall budget, drain grace),
   and the dealing logic itself.  Policy, in order:

   - Deal: an idle worker gets the queue's front split.  Budgets are
     per-split transformer-step counts; a split that comes back
     [yielded/budget] is re-queued with its escalation bumped, and the
     step budget grows geometrically with the escalation (Wu et al.'s
     iterative deepening, so no shard ever wedges on one hard region
     while others idle).
   - Steal: when the queue is empty and a worker sits idle, the
     longest-busy worker is asked to [steal]-yield its unexplored
     frontier; the reclaimed splits are dealt to the idle workers.
   - Refute: the first [refuted] settles the verdict and broadcasts
     cancel — under the same settle rule as the in-process search loop
     ([Common.Outcome.settle]): a refutation arriving while a
     Timeout/Unknown verdict drains out still wins, the reverse never.
   - Survive: a worker dying (EOF / torn line / protocol violation)
     re-queues its outstanding split — nothing is lost, because a
     split is only ever discharged by an explicit [proved]/[refuted]/
     [yielded] report.  Dead workers are respawned while there is work
     left, up to a respawn budget so a crash-looping binary cannot spin
     forever.  Verified requires every split proved: queue empty,
     nothing assigned, nobody owed a report. *)

module J = Telemetry.Jsonw
module D = Protocol.Dist

let c_dealt = Telemetry.Metrics.counter "dverify.splits.dealt"

let c_stolen = Telemetry.Metrics.counter "dverify.splits.stolen"

let c_reassigned = Telemetry.Metrics.counter "dverify.splits.reassigned"

let c_escalated = Telemetry.Metrics.counter "dverify.splits.escalated"

let c_deaths = Telemetry.Metrics.counter "dverify.worker_deaths"

let h_shard_wall = Telemetry.Metrics.histogram "dverify.shard.wall_ns"

type config = {
  workers : int;
  initial_splits : int;  (* 0 = 4x workers *)
  initial_steps : int;  (* per-split transformer budget at escalation 0 *)
  escalation_factor : int;
  max_escalations : int;
  max_respawns : int;
  drain_grace : float;  (* seconds before stragglers are SIGKILLed *)
  trace_dir : string option;
  proofcache_persist : string option;
  crash_injection : (int * int) option;
      (* (initial worker index, splits before self-SIGKILL) *)
}

let default_config ~workers =
  if workers < 1 then
    invalid_arg "Coordinator.default_config: workers must be at least 1";
  {
    workers;
    initial_splits = 0;
    initial_steps = 20_000;
    escalation_factor = 4;
    max_escalations = 16;
    max_respawns = workers;
    drain_grace = 5.0;
    trace_dir = None;
    proofcache_persist = None;
    crash_injection = None;
  }

type stats = {
  initial_splits : int;
  dealt : int;
  stolen : int;
  reassigned : int;
  escalated : int;
  worker_deaths : int;
  respawns : int;
  handshake_rejects : int;
  shard_walls : (int * float) list;
}

type result = { outcome : Common.Outcome.t; elapsed : float; stats : stats }

(* ------------------------------------------------------------------ *)
(* Initial canonical partition: expand the box level by level, always
   cutting every piece's widest dimension at its canonical dyadic cut,
   until at least [target] pieces exist.  Level-by-level keeps the
   shard depths uniform, and canonical cuts keep every shard's
   subregions on the partition a single-process cached run uses. *)

let initial_partition box ~target =
  let split_one (b, depth) =
    let dim = Domains.Box.longest_dim b in
    if Domains.Box.width b dim <= 0.0 then [ (b, depth) ]
    else
      let at = Domains.Partition.snap_split b ~dim in
      let l, r = Domains.Box.split b ~dim ~at in
      [ (l, depth + 1); (r, depth + 1) ]
  in
  let rec level pieces =
    if List.length pieces >= target then pieces
    else
      let next = List.concat_map split_one pieces in
      (* A box of all-zero widths stops expanding; don't loop on it. *)
      if List.length next = List.length pieces then pieces else level next
  in
  List.map (fun (box, depth) -> { D.box; depth }) (level [ (box, 0) ])

(* ------------------------------------------------------------------ *)
(* Event mailbox: reader domains and the timer push, the main loop
   pops.  The only cross-domain state in the coordinator. *)

type event =
  | Msg of int * D.from_worker
  | Bad of int * string
  | Died of int
  | Tick

type mailbox = { m : Mutex.t; c : Condition.t; q : event Queue.t }
[@@race.guarded_by "m"]

let mb_create () =
  { m = Mutex.create (); c = Condition.create (); q = Queue.create () }

let mb_push mb e =
  Mutex.lock mb.m;
  Queue.push e mb.q;
  Condition.signal mb.c;
  Mutex.unlock mb.m

let mb_pop mb =
  Mutex.lock mb.m;
  while Queue.is_empty mb.q do
    Condition.wait mb.c mb.m
  done;
  let e = Queue.pop mb.q in
  Mutex.unlock mb.m;
  e

let reader ~slot ic mb =
  let rec loop () =
    match Protocol.recv ic with
    | None -> mb_push mb (Died slot)
    | Some json -> (
        match D.from_worker_of_json json with
        | msg ->
            mb_push mb (Msg (slot, msg));
            loop ()
        | exception Protocol.Bad_request m -> mb_push mb (Bad (slot, m)))
    | exception
        (Protocol.Torn_line _ | J.Parse_error _ | Sys_error _ | End_of_file)
      ->
        mb_push mb (Died slot)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Worker processes.  Every mutable field below belongs to the main
   event loop alone — reader domains communicate exclusively through
   the mailbox, and the closure a reader runs captures only its slot
   number, its in_channel, and the mailbox. *)

type wstate = Greeting | Idle | Busy of int | Gone

type wrk = {
  slot : int;
  pid : int;
  oc : out_channel;
  reader : unit Domain.t;
  mutable state : wstate;
  mutable steal_sent : bool;
  mutable rejected : bool;  (* handshake refused: never respawn *)
  mutable busy_since : float;
  mutable wall : float;
}
[@@race.domain_local]

let is_idle w = match w.state with Idle -> true | _ -> false

let is_gone w = match w.state with Gone -> true | _ -> false

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let spawn_worker ~cmd ~crash_after ~trace_dir ~mb ~slot =
  let keep s =
    not
      (starts_with ~prefix:"CHARON_DVERIFY_CRASH_AFTER=" s
      || starts_with ~prefix:"CHARON_WORKER_TRACE=" s)
  in
  let env = List.filter keep (Array.to_list (Unix.environment ())) in
  let env =
    match trace_dir with
    | Some dir ->
        Printf.sprintf "CHARON_WORKER_TRACE=%s"
          (Filename.concat dir (Printf.sprintf "worker-%d.jsonl" slot))
        :: env
    | None -> env
  in
  let env =
    match crash_after with
    | Some k -> Printf.sprintf "CHARON_DVERIFY_CRASH_AFTER=%d" k :: env
    | None -> env
  in
  let c2w_read, c2w_write = Unix.pipe ~cloexec:false () in
  let w2c_read, w2c_write = Unix.pipe ~cloexec:false () in
  Unix.set_close_on_exec c2w_write;
  Unix.set_close_on_exec w2c_read;
  let pid =
    Unix.create_process_env cmd.(0) cmd (Array.of_list env) c2w_read w2c_write
      Unix.stderr
  in
  Unix.close c2w_read;
  Unix.close w2c_write;
  let ic = Unix.in_channel_of_descr w2c_read in
  {
    slot;
    pid;
    oc = Unix.out_channel_of_descr c2w_write;
    reader = Domain.spawn (fun () -> reader ~slot ic mb);
    state = Greeting;
    steal_sent = false;
    rejected = false;
    busy_since = 0.0;
    wall = 0.0;
  }

(* ------------------------------------------------------------------ *)

let run ~worker_cmd ?config (spec : Protocol.job_spec) =
  let cfg =
    match config with Some c -> c | None -> default_config ~workers:2
  in
  if cfg.workers < 1 then
    invalid_arg "Coordinator.run: workers must be at least 1";
  if Array.length worker_cmd = 0 then
    invalid_arg "Coordinator.run: worker_cmd must name an executable";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let started = Unix.gettimeofday () in
  let mb = mb_create () in
  let timer = Ticker.start ~period:0.05 (fun () -> mb_push mb Tick) in
  (* --- main-loop state (single domain, never shared) --- *)
  let split_target =
    if cfg.initial_splits > 0 then cfg.initial_splits else 4 * cfg.workers
  in
  let initial = initial_partition spec.Protocol.box ~target:split_target in
  let queue = ref (List.map (fun p -> (p, 0)) initial) in
  let assigned : (int, D.pending * int * int) Hashtbl.t = Hashtbl.create 64 in
  let workers : (int, wrk) Hashtbl.t = Hashtbl.create 8 in
  let next_sid = ref 0 in
  let next_slot = ref 0 in
  let verdict = ref None in
  let settled_at = ref 0.0 in
  let killed = ref false in
  let s_dealt = ref 0 in
  let s_stolen = ref 0 in
  let s_reassigned = ref 0 in
  let s_escalated = ref 0 in
  let s_deaths = ref 0 in
  let s_respawns = ref 0 in
  let s_rejects = ref 0 in
  let queue_empty () = match !queue with [] -> true | _ :: _ -> false in
  let outstanding () = List.length !queue + Hashtbl.length assigned in
  let unsettled () = Option.is_none !verdict in
  let alive () =
    Hashtbl.fold (fun _ w acc -> if is_gone w then acc else w :: acc) workers []
  in
  let send_to w msg = Protocol.send w.oc msg in
  let send_safe w msg =
    try send_to w msg
    with Sys_error _ | Unix.Unix_error _ ->
      (* The pipe is gone; the reader will report the death. *)
      ()
  in
  let spawn ~crash_after () =
    let slot = !next_slot in
    incr next_slot;
    let w =
      spawn_worker ~cmd:worker_cmd ~crash_after ~trace_dir:cfg.trace_dir ~mb
        ~slot
    in
    Hashtbl.replace workers slot w;
    w
  in
  let settle outcome =
    let first = unsettled () in
    verdict := Common.Outcome.settle !verdict outcome;
    if first then begin
      settled_at := Unix.gettimeofday ();
      List.iter
        (fun w -> send_safe w (D.to_worker_to_json D.Cancel_all))
        (alive ())
    end
  in
  let steps_for escalation =
    (* 20k * 4^12 still fits comfortably in an int; beyond that the
       budget is effectively unlimited anyway. *)
    let rec pow acc n =
      if n <= 0 then acc else pow (acc * cfg.escalation_factor) (n - 1)
    in
    pow cfg.initial_steps (min escalation 12)
  in
  let assign w (pending, escalation) =
    let sid = !next_sid in
    incr next_sid;
    Hashtbl.replace assigned sid (pending, escalation, w.slot);
    w.state <- Busy sid;
    w.steal_sent <- false;
    w.busy_since <- Unix.gettimeofday ();
    incr s_dealt;
    Telemetry.Metrics.incr c_dealt;
    send_safe w
      (D.to_worker_to_json
         (D.Assign
            {
              sid;
              box = pending.D.box;
              depth = pending.D.depth;
              max_steps = steps_for escalation;
              seconds = None;
            }))
  in
  let dispatch () =
    if unsettled () then
      List.iter
        (fun w ->
          match (w.state, !queue) with
          | Idle, item :: rest ->
              queue := rest;
              assign w item
          | _ -> ())
        (List.sort (fun a b -> Int.compare a.slot b.slot) (alive ()))
  in
  let maybe_steal () =
    if unsettled () && queue_empty () && List.exists is_idle (alive ()) then
      (* Ask the longest-running shard: it has had the most time to fan
         out, so its unexplored frontier is the biggest. *)
      let busiest =
        List.fold_left
          (fun acc w ->
            match (w.state, acc) with
            | Busy _, _ when w.steal_sent -> acc
            | Busy _, None -> Some w
            | Busy _, Some b ->
                if Float.compare w.busy_since b.busy_since < 0 then Some w
                else acc
            | (Greeting | Idle | Gone), _ -> acc)
          None (alive ())
      in
      match busiest with
      | Some w ->
          w.steal_sent <- true;
          send_safe w (D.to_worker_to_json D.Steal)
      | None -> ()
  in
  let finish_split w sid ~wall =
    (match Hashtbl.find_opt assigned sid with
    | Some (_, _, slot) when slot = w.slot -> Hashtbl.remove assigned sid
    | Some _ | None -> ());
    w.wall <- w.wall +. wall;
    Telemetry.Metrics.observe h_shard_wall (int_of_float (wall *. 1e9));
    (match w.state with Busy s when s = sid -> w.state <- Idle | _ -> ());
    w.steal_sent <- false
  in
  let requeue ~front items =
    match items with
    | [] -> ()
    | _ :: _ -> if front then queue := items @ !queue else queue := !queue @ items
  in
  let after_report () =
    if unsettled () then begin
      if outstanding () = 0 then settle Common.Outcome.Verified
      else begin
        dispatch ();
        maybe_steal ()
      end
    end
  in
  let on_msg slot msg =
    match Hashtbl.find_opt workers slot with
    | None -> ()
    | Some w when is_gone w -> ()
    | Some w -> (
        match msg with
        | D.Hello { version; pid = _ } ->
            if version = D.version then
              send_safe w
                (D.to_worker_to_json
                   (D.Hello_ok
                      {
                        version = D.version;
                        job = spec;
                        proofcache = cfg.proofcache_persist;
                      }))
            else begin
              (* Clean reject: an incompatible worker can still parse
                 {"ok":false} even if it knows none of our ops.  The
                 worker exits on it and the reader reports the death;
                 [rejected] keeps it from being respawned. *)
              incr s_rejects;
              w.rejected <- true;
              send_safe w
                (Protocol.error
                   (Printf.sprintf
                      "dist protocol version mismatch: coordinator v%d, \
                       worker v%d" D.version version))
            end
        | D.Split_request ->
            (match w.state with Greeting -> w.state <- Idle | _ -> ());
            dispatch ();
            maybe_steal ()
        | D.Proved { sid; nodes = _; wall } ->
            finish_split w sid ~wall;
            after_report ()
        | D.Refuted { sid; witness; wall } ->
            finish_split w sid ~wall;
            settle (Common.Outcome.Refuted witness)
        | D.Yielded { sid; reason; frontier; nodes = _; wall } ->
            let escalation =
              match Hashtbl.find_opt assigned sid with
              | Some (_, e, _) -> e
              | None -> 0
            in
            finish_split w sid ~wall;
            let items = List.map (fun p -> (p, escalation)) frontier in
            (match reason with
            | D.Stolen ->
                let n = List.length items in
                s_stolen := !s_stolen + n;
                Telemetry.Metrics.add c_stolen n;
                requeue ~front:true items
            | D.Budget ->
                if escalation + 1 > cfg.max_escalations then
                  settle Common.Outcome.Timeout
                else begin
                  let bumped = List.map (fun (p, e) -> (p, e + 1)) items in
                  let n = List.length bumped in
                  s_escalated := !s_escalated + n;
                  Telemetry.Metrics.add c_escalated n;
                  (* To the back: every other split gets its cheap try
                     before anyone's expensive retry. *)
                  requeue ~front:false bumped
                end
            | D.Precision ->
                (* A region no budget can decide — same verdict the
                   in-process search gives, same upgrade-on-refute
                   semantics while the fleet drains out. *)
                settle Common.Outcome.Unknown);
            after_report ())
  in
  let on_died slot =
    match Hashtbl.find_opt workers slot with
    | None -> ()
    | Some w when is_gone w -> ()
    | Some w ->
        (match w.state with
        | Busy sid -> (
            w.wall <- w.wall +. (Unix.gettimeofday () -. w.busy_since);
            match Hashtbl.find_opt assigned sid with
            | Some (pending, escalation, slot') when slot' = slot ->
                (* The crashed worker's outstanding split goes back to
                   the front of the queue: this re-deal is the whole
                   crash-safety argument. *)
                Hashtbl.remove assigned sid;
                incr s_reassigned;
                Telemetry.Metrics.incr c_reassigned;
                requeue ~front:true [ (pending, escalation) ]
            | Some _ | None -> ())
        | Greeting | Idle | Gone -> ());
        let premature = unsettled () in
        w.state <- Gone;
        (try close_out w.oc with Sys_error _ -> ());
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        (* Only a pre-verdict exit is a death; workers draining out
           after cancel are orderly shutdowns. *)
        if premature && not w.rejected then begin
          incr s_deaths;
          Telemetry.Metrics.incr c_deaths
        end;
        if unsettled () then begin
          if outstanding () = 0 then settle Common.Outcome.Verified
          else if
            (not w.rejected)
            && !s_respawns < cfg.max_respawns
            && List.length (alive ()) < cfg.workers
          then begin
            incr s_respawns;
            (* Replacements never inherit the crash injection: the CI
               crash lane kills one worker once, then must recover. *)
            ignore (spawn ~crash_after:None ());
            dispatch ()
          end
          else begin
            match alive () with
            | [] ->
                (* Out of workers with work left: resource exhaustion.
                   The all-rejected case is turned into a failure after
                   the drain instead. *)
                settle Common.Outcome.Timeout
            | _ :: _ -> ()
          end
        end
  in
  (* --- spawn the initial fleet --- *)
  for i = 0 to cfg.workers - 1 do
    let crash_after =
      match cfg.crash_injection with
      | Some (slot, k) when slot = i -> Some k
      | Some _ | None -> None
    in
    ignore (spawn ~crash_after ())
  done;
  (* --- event loop: phase 1 until settled, phase 2 drain --- *)
  let deadline = Option.map (fun s -> started +. s) spec.Protocol.timeout in
  let rec loop () =
    if unsettled () then begin
      (match mb_pop mb with
      | Msg (slot, msg) -> on_msg slot msg
      | Bad (slot, _msg) ->
          (* Protocol violation: the reader already stopped; treat the
             worker as dead and put it out of its misery. *)
          (match Hashtbl.find_opt workers slot with
          | Some w when not (is_gone w) -> (
              try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
          | Some _ | None -> ());
          on_died slot
      | Died slot -> on_died slot
      | Tick -> (
          match deadline with
          | Some d when Float.compare (Unix.gettimeofday ()) d > 0 ->
              settle Common.Outcome.Timeout
          | Some _ | None -> ()));
      loop ()
    end
  in
  let rec drain () =
    match alive () with
    | [] -> ()
    | _ :: _ ->
        (match mb_pop mb with
        | Msg (_, D.Refuted { witness; _ }) ->
            settle (Common.Outcome.Refuted witness)
        | Msg (_, _) -> ()
        | Bad (slot, _) | Died slot -> on_died slot
        | Tick ->
            if
              (not !killed)
              && Unix.gettimeofday () -. !settled_at > cfg.drain_grace
            then begin
              killed := true;
              List.iter
                (fun w ->
                  try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
                (alive ())
            end);
        drain ()
  in
  let cleanup () =
    (* The ticker stops mid-period, so the verdict is not held back by
       up to one tick.  Readers exit on their worker's EOF; all workers
       are Gone by now, so the joins return promptly. *)
    Ticker.stop timer;
    Hashtbl.iter (fun _ w -> Domain.join w.reader) workers
  in
  match
    loop ();
    drain ()
  with
  | () ->
      cleanup ();
      let outcome =
        match !verdict with
        | Some o -> o
        | None -> Common.Outcome.Timeout (* unreachable: loop settles first *)
      in
      if !s_rejects > 0 && !s_dealt = 0 && not (Common.Outcome.is_solved outcome)
      then
        failwith
          "charon-dverify: every worker was rejected at the handshake (dist \
           protocol version mismatch)";
      {
        outcome;
        elapsed = Unix.gettimeofday () -. started;
        stats =
          {
            initial_splits = List.length initial;
            dealt = !s_dealt;
            stolen = !s_stolen;
            reassigned = !s_reassigned;
            escalated = !s_escalated;
            worker_deaths = !s_deaths;
            respawns = !s_respawns;
            handshake_rejects = !s_rejects;
            shard_walls =
              List.sort
                (fun (a, _) (b, _) -> Int.compare a b)
                (Hashtbl.fold
                   (fun _ w acc -> (w.slot, w.wall) :: acc)
                   workers []);
          };
      }
  | exception e ->
      (* Never leave orphan workers behind, whatever went wrong. *)
      Hashtbl.iter
        (fun _ w ->
          if not (is_gone w) then begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try close_out w.oc with Sys_error _ -> ());
            try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()
          end)
        workers;
      cleanup ();
      raise e
