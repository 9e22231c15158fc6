(* The charon-serve job scheduler.

   Two layers of bookkeeping since the daemon went multi-tenant:

   - A *job* is what a client sees: an id, a state machine
     (queued -> running -> done/cancelled/failed), an event log, a
     verdict.  One per accepted submit.
   - A *run* is what a worker executes: one [Charon.Verify.run] over
     one verification question.  Distinct jobs asking the *same*
     question (same structural cache key) share one run — the first
     submit creates it, duplicates *coalesce* onto it as followers, and
     when the run settles every attached job receives the verdict.
     Burst traffic full of duplicated hard queries pays for each
     question once, not once per client.

   [runs] is the one in-flight index: question key -> the queued or
   running run that answers it.  A run leaves it when it settles, when
   its last attachment is cancelled, or when its sole attachment
   cancels it mid-flight — then it winds down outside the index, its
   token already flagged, so a fresh submit of the question starts a
   new run and [shutdown] has nothing left to cancel in it.

   Runs are queued onto the priority-aged fair-share [Jobq] (one lane
   per tenant, weighted, aging so nobody starves) and drained by a
   fixed pool of OCaml domains ([Parallel.Pool.run] inside one spawned
   supervisor domain, so [create] returns immediately).  The queue is
   capacity-bounded: at the bound, submits are refused with a
   retryable code="busy" reject rather than queued into an unbounded
   backlog.  Each tenant additionally has an optional outstanding-jobs
   quota checked at admission.

   Each run executes with a per-run [Common.Budget] (the leader's),
   a per-run [Parallel.Cancel] token polled once per region, and an
   [on_progress] hook that mirrors the node count and peak depth into
   atomics a status poll can read without touching the worker.

   The verdict cache short-circuits the whole pipeline: a submit whose
   structural key hits answers synchronously (from the LRU hot set or
   the persistent store behind it), and a run that completes with a
   *solved* verdict (Verified/Refuted — the budget-independent ones)
   populates both for its successors.

   Cancellation with coalescing: cancelling a follower must never kill
   another tenant's request, so a job cancelled while its run has
   other attachments just *detaches* and settles immediately — the run
   keeps going for the rest.  Only when the cancelled job is the sole
   attachment does the run itself get cancelled (cooperatively, if
   already claimed by a worker — the old single-tenant semantics).

   Discipline: the job table, the in-flight index and the per-tenant
   counters are only touched with [mutex] held; per-run progress and
   the scheduler-wide tallies are atomics so polls never contend with
   workers. *)

module J = Telemetry.Jsonw

type state =
  | Queued
  | Running
  | Done of Common.Outcome.t
  | Cancelled
  | Failed of string

type event = { seq : int; at : float; label : string }

type job = {
  id : int;
  spec : Protocol.job_spec;
  key : string;
  tname : string;  (* owning tenant, for settle-time accounting *)
  mutable state : state;
  mutable events : event list;  (* newest first *)
  mutable next_seq : int;
  submitted : float;
  mutable wall : float;  (* verification wall seconds, set on completion *)
  mutable from_cache : bool;
  mutable coalesced : bool;  (* attached to an existing run as follower *)
  mutable cold_wall : float;  (* cache hits: the original run's wall *)
  mutable run : run option;  (* the execution unit answering this job *)
}
[@@race.guarded_by "mutex"]

and run = {
  rid : int;  (* = the leader job's id *)
  rspec : Protocol.job_spec;
  rkey : string;
  rcancel : Parallel.Cancel.t;
  mutable attached : int list;  (* job ids, oldest first *)
  mutable claimed : bool;  (* a pool worker is executing it *)
  mutable finalized : bool;
  r_nodes : int Atomic.t;
  r_depth : int Atomic.t;
}
[@@race.guarded_by "mutex"]

type t = {
  mutex : Mutex.t;
  jobs : (int, job) Hashtbl.t;
  runs : (string, run) Hashtbl.t;  (* question key -> queued or running run *)
  mutable peak_runs : int;  (* high-water of [runs] *)
  queue : run Jobq.t;
  cache : Cache.t;
  store : Store.t option;
  proofcache : Charon.Proofcache.t;
  tenant_counters : (string, Tenant.counters) Hashtbl.t;
  mutable tenant_order : string list;  (* first-seen order, reversed *)
  workers : int;
  mutable next_id : int;
  mutable pool : unit Domain.t option;
  started_at : float;
  in_flight : int Atomic.t;
  peak_in_flight : int Atomic.t;
  n_submitted : int Atomic.t;
  n_completed : int Atomic.t;
  n_cancelled : int Atomic.t;
  n_failed : int Atomic.t;
  n_rejected : int Atomic.t;
}
[@@race.guarded_by "mutex"]

let c_submitted = Telemetry.Metrics.counter "serve.jobs.submitted"

let c_completed = Telemetry.Metrics.counter "serve.jobs.completed"

let c_cancelled = Telemetry.Metrics.counter "serve.jobs.cancelled"

let c_failed = Telemetry.Metrics.counter "serve.jobs.failed"

let c_rejected = Telemetry.Metrics.counter "serve.jobs.rejected"

let c_coalesced = Telemetry.Metrics.counter "serve.coalesced"

let h_job_wall = Telemetry.Metrics.histogram "serve.job.wall"

let now () = Unix.gettimeofday ()

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let emit job label =
  job.events <- { seq = job.next_seq; at = now () -. job.submitted; label }
                 :: job.events;
  job.next_seq <- job.next_seq + 1
[@@race.locked "mutex"]

let tc t name =
  match Hashtbl.find_opt t.tenant_counters name with
  | Some c -> c
  | None ->
      (* Only reachable for [anonymous]: configured tenants are seeded
         in [create]/[register_tenants]. *)
      let c = Tenant.fresh_counters { Tenant.anonymous with name } in
      Hashtbl.replace t.tenant_counters name c;
      t.tenant_order <- name :: t.tenant_order;
      c
[@@race.locked "mutex"]

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* [in_flight] counts runs a worker has *claimed* and is running — not
   queued ones, which have their own gauge — so it can never exceed the
   pool width and [peak_in_flight] measures realised concurrency.
   [enter_flight] runs at the claim in [run_job]; the matching
   [leave_flight] runs at finalize (a claimed run always reaches it,
   including on crash and cancel-while-running). *)
let enter_flight t =
  let n = 1 + Atomic.fetch_and_add t.in_flight 1 in
  atomic_max t.peak_in_flight n

let leave_flight t = ignore (Atomic.fetch_and_add t.in_flight (-1))

(* ------------------------------------------------------------------ *)
(* Job settlement and the in-flight index (mutex held) *)

(* The one way a job leaves Queued/Running: [final] is its terminal
   state, booked against its tenant and the scheduler-wide tallies.
   Terminal jobs are left alone. *)
let settle t job final =
  match job.state with
  | Done _ | Cancelled | Failed _ -> ()
  | Queued | Running ->
      job.state <- final;
      let c = tc t job.tname in
      c.Tenant.outstanding <- c.Tenant.outstanding - 1;
      let tally, metric =
        match final with
        | Done o ->
            emit job (Common.Outcome.label o);
            c.Tenant.completed <- c.Tenant.completed + 1;
            (t.n_completed, c_completed)
        | Cancelled ->
            emit job "cancelled";
            c.Tenant.cancelled <- c.Tenant.cancelled + 1;
            (t.n_cancelled, c_cancelled)
        | Failed _ | Queued | Running ->
            emit job "failed";
            c.Tenant.failed <- c.Tenant.failed + 1;
            (t.n_failed, c_failed)
      in
      Atomic.incr tally;
      Telemetry.Metrics.incr metric
[@@race.locked "mutex"]

(* Drop [run]'s question from the in-flight index — only while the
   index still maps it to [run]: a cancelled run winds down after a
   newer run for the same question has registered, and must not
   orphan it. *)
let forget t run =
  match Hashtbl.find_opt t.runs run.rkey with
  | Some r when r.rid = run.rid -> Hashtbl.remove t.runs run.rkey
  | Some _ | None -> ()
[@@race.locked "mutex"]

(* ------------------------------------------------------------------ *)
(* Run execution (pool workers) *)

let finalize_run t run ~wall outcome =
  with_lock t (fun () ->
      if not run.finalized then begin
        run.finalized <- true;
        forget t run;
        let final =
          match outcome with
          | Ok _ when Parallel.Cancel.cancelled run.rcancel -> Cancelled
          | Ok o ->
              if Common.Outcome.is_solved o then
                Cache.put t.cache run.rkey o ~cold_wall:wall;
              Done o
          | Error msg -> Failed msg
        in
        List.iter
          (fun jid ->
            match Hashtbl.find_opt t.jobs jid with
            | None -> ()
            | Some job ->
                job.wall <- wall;
                settle t job final)
          run.attached;
        run.attached <- [];
        if run.claimed then leave_flight t
      end)

let run_job t run =
  let claimed =
    with_lock t (fun () ->
        if run.finalized then
          (* Every attachment was cancelled while the run sat queued,
             or shutdown settled it; nothing left to compute. *)
          false
        else begin
          run.claimed <- true;
          let claim_at = now () in
          List.iter
            (fun jid ->
              match Hashtbl.find_opt t.jobs jid with
              | Some job when job.state = Queued ->
                  job.state <- Running;
                  emit job "running";
                  Tenant.record_age (tc t job.tname)
                    (claim_at -. job.submitted)
              | Some _ | None -> ())
            run.attached;
          enter_flight t;
          true
        end)
  in
  if claimed then begin
    let sp = Telemetry.Span.enter "serve.job" in
    let wall = ref 0.0 in
    let result =
      match Nn.Serial.of_string run.rspec.Protocol.network with
      | exception Failure msg -> Error ("bad network: " ^ msg)
      | net -> (
          let spec = run.rspec in
          let prop =
            Common.Property.create ~name:spec.Protocol.name
              ~region:spec.Protocol.box ~target:spec.Protocol.target ()
          in
          let config =
            {
              Charon.Verify.default_config with
              Charon.Verify.delta = spec.Protocol.delta;
            }
          in
          let budget =
            Common.Budget.create ?seconds:spec.Protocol.timeout
              ?steps:spec.Protocol.max_steps ()
          in
          let started = now () in
          match
            Charon.Verify.run ~config ~budget ~cancel:run.rcancel
              ~on_progress:(fun ~nodes ~depth ->
                Atomic.set run.r_nodes nodes;
                atomic_max run.r_depth depth)
              ~proofcache:t.proofcache
              ~rng:(Linalg.Rng.create spec.Protocol.seed)
              ~policy:Charon.Policy.default net prop
          with
          | report ->
              wall := now () -. started;
              Ok report.Charon.Verify.outcome
          | exception Invalid_argument msg ->
              Error ("invalid job: " ^ msg)
          | exception Failure msg -> Error msg)
    in
    finalize_run t run ~wall:!wall result;
    Telemetry.Metrics.observe h_job_wall (int_of_float (!wall *. 1e9));
    let final_state =
      match result with
      | Ok _ when Parallel.Cancel.cancelled run.rcancel -> "cancelled"
      | Ok o -> Common.Outcome.label o
      | Error _ -> "failed"
    in
    Telemetry.Span.exit sp
      ~attrs:(fun () ->
        [ ("run", J.Int run.rid); ("state", J.Str final_state) ])
  end

let worker t _i =
  let rec loop () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some run ->
        (try run_job t run
         with e ->
           (* A crashed run must not take the worker domain (and with
              it the whole pool) down; record and move on. *)
           finalize_run t run ~wall:0.0 (Error (Printexc.to_string e)))
        [@lint.allow "catch-all-exn"];
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Public API (daemon accept loop) *)

let create ?(workers = 4) ?(cache_capacity = 256)
    ?(proofcache_capacity = 65536) ?proofcache_persist ?store_path
    ?(queue_capacity = 256) ?(tenants = Tenant.empty) () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be positive";
  if queue_capacity < 1 then
    invalid_arg "Scheduler.create: queue_capacity must be positive";
  let store = Option.map (fun path -> Store.create ~path ()) store_path in
  let t =
    {
      mutex = Mutex.create ();
      jobs = Hashtbl.create 64;
      runs = Hashtbl.create 64;
      peak_runs = 0;
      queue = Jobq.create ~capacity:queue_capacity ();
      cache = Cache.create ~capacity:cache_capacity ?store ();
      store;
      (* One proof cache for the whole scheduler: every run threads it
         through Verify.run, so subregions proved for one tenant's
         query serve every later overlapping query on the same
         network. *)
      proofcache =
        Charon.Proofcache.create ~capacity:proofcache_capacity
          ?persist:proofcache_persist ();
      tenant_counters = Hashtbl.create 8;
      tenant_order = [];
      workers;
      next_id = 0;
      pool = None;
      started_at = now ();
      in_flight = Atomic.make 0;
      peak_in_flight = Atomic.make 0;
      n_submitted = Atomic.make 0;
      n_completed = Atomic.make 0;
      n_cancelled = Atomic.make 0;
      n_failed = Atomic.make 0;
      n_rejected = Atomic.make 0;
    }
  in
  with_lock t (fun () ->
      (* Seed counters in config order so the stats block lists every
         configured tenant from the start, idle ones included. *)
      List.iter
        (fun tn ->
          Hashtbl.replace t.tenant_counters tn.Tenant.name
            (Tenant.fresh_counters tn);
          t.tenant_order <- tn.Tenant.name :: t.tenant_order)
        (Tenant.tenants tenants);
      t.pool <-
        Some
          (Domain.spawn (fun () ->
               Parallel.Pool.run ~workers (fun i -> worker t i))));
  t

let state_label = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

let job_json job ~since =
  let events =
    List.rev_append
      (List.filter_map
         (fun e ->
           if e.seq < since then None
           else
             Some
               (J.Obj
                  [
                    ("seq", J.Int e.seq);
                    ("t", J.Float e.at);
                    ("label", J.Str e.label);
                  ]))
         job.events)
      []
  in
  let nodes, depth =
    match job.run with
    | Some run -> (Atomic.get run.r_nodes, Atomic.get run.r_depth)
    | None -> (0, 0)
  in
  let base =
    [
      ("id", J.Int job.id);
      ("name", J.Str job.spec.Protocol.name);
      ("tenant", J.Str job.tname);
      ("state", J.Str (state_label job.state));
      ("coalesced", J.Bool job.coalesced);
      ("next_seq", J.Int job.next_seq);
      ( "progress",
        J.Obj [ ("nodes", J.Int nodes); ("peak_depth", J.Int depth) ] );
      ( "cache",
        J.Obj
          (("hit", J.Bool job.from_cache)
          ::
          (if job.from_cache then
             [ ("cold_wall_seconds", J.Float job.cold_wall) ]
           else [])) );
      ("events", J.Arr events);
    ]
  in
  let base =
    match job.state with
    | Done o ->
        base
        @ [
            ("verdict", Protocol.outcome_to_json o);
            ("wall_seconds", J.Float job.wall);
          ]
    | Failed msg -> base @ [ ("error", J.Str msg) ]
    | Queued | Running | Cancelled -> base
  in
  Protocol.ok base
[@@race.locked "mutex"]

let fresh_job t ~spec ~key ~tname =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let job =
    {
      id;
      spec;
      key;
      tname;
      state = Queued;
      events = [];
      next_seq = 0;
      submitted = now ();
      wall = 0.0;
      from_cache = false;
      coalesced = false;
      cold_wall = 0.0;
      run = None;
    }
  in
  Hashtbl.replace t.jobs id job;
  emit job "queued";
  job
[@@race.locked "mutex"]

let submit ?(tenant = Tenant.anonymous) t (spec : Protocol.job_spec) =
  let key =
    Cache.key ~network:spec.Protocol.network ~box:spec.Protocol.box
      ~target:spec.Protocol.target ~delta:spec.Protocol.delta
  in
  Atomic.incr t.n_submitted;
  Telemetry.Metrics.incr c_submitted;
  with_lock t (fun () ->
      let c = tc t tenant.Tenant.name in
      let reject code ~retryable msg =
        Atomic.incr t.n_rejected;
        Telemetry.Metrics.incr c_rejected;
        Protocol.reject ~code ~retryable msg
      in
      (* An accepted job is outstanding until [settle]. *)
      let accept () =
        c.Tenant.accepted <- c.Tenant.accepted + 1;
        c.Tenant.outstanding <- c.Tenant.outstanding + 1;
        fresh_job t ~spec ~key ~tname:tenant.Tenant.name
      in
      if Jobq.closed t.queue then
        reject "shutting_down" ~retryable:false "server is shutting down"
      else
        match Cache.get t.cache key with
        | Some (outcome, cold_wall) ->
            (* Answered synchronously: settled before the lock drops, so
               never outstanding against the quota. *)
            let job = accept () in
            job.from_cache <- true;
            job.cold_wall <- cold_wall;
            c.Tenant.cache_hits <- c.Tenant.cache_hits + 1;
            emit job "cache_hit";
            settle t job (Done outcome);
            job_json job ~since:0
        | None -> (
            if
              tenant.Tenant.quota > 0
              && c.Tenant.outstanding >= tenant.Tenant.quota
            then begin
              c.Tenant.rejected_quota <- c.Tenant.rejected_quota + 1;
              reject "quota" ~retryable:true
                (Printf.sprintf
                   "tenant %S has %d outstanding jobs (quota %d); retry \
                    after one settles"
                   tenant.Tenant.name c.Tenant.outstanding
                   tenant.Tenant.quota)
            end
            else
              match Hashtbl.find_opt t.runs key with
              | Some run ->
                  (* Identical question already in flight: attach as a
                     follower and ride the existing run. *)
                  let job = accept () in
                  job.coalesced <- true;
                  job.run <- Some run;
                  run.attached <- run.attached @ [ job.id ];
                  emit job (Printf.sprintf "coalesced_onto_run_%d" run.rid);
                  if run.claimed then begin
                    job.state <- Running;
                    emit job "running";
                    Tenant.record_age c 0.0
                  end;
                  c.Tenant.coalesced <- c.Tenant.coalesced + 1;
                  Telemetry.Metrics.incr c_coalesced;
                  job_json job ~since:0
              | None -> (
                  (* [accept] below gives the leader job this id. *)
                  let run =
                    {
                      rid = t.next_id;
                      rspec = spec;
                      rkey = key;
                      rcancel = Parallel.Cancel.create ();
                      attached = [ t.next_id ];
                      claimed = false;
                      finalized = false;
                      r_nodes = Atomic.make 0;
                      r_depth = Atomic.make 0;
                    }
                  in
                  match
                    Jobq.push ~tenant:tenant.Tenant.name
                      ~weight:tenant.Tenant.weight t.queue run
                  with
                  | `Queued ->
                      let job = accept () in
                      job.run <- Some run;
                      Hashtbl.replace t.runs key run;
                      t.peak_runs <- max t.peak_runs (Hashtbl.length t.runs);
                      job_json job ~since:0
                  | `Busy ->
                      c.Tenant.rejected_busy <- c.Tenant.rejected_busy + 1;
                      reject "busy" ~retryable:true
                        (Printf.sprintf
                           "queue is full (%d runs); retry with backoff"
                           (Jobq.capacity t.queue))
                  | `Closed ->
                      reject "shutting_down" ~retryable:false
                        "server is shutting down")))

let status t ~id ~since =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | Some job -> job_json job ~since
      | None -> Protocol.error (Printf.sprintf "no such job %d" id))

let cancel t id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> Protocol.error (Printf.sprintf "no such job %d" id)
      | Some job -> (
          match (job.state, job.run) with
          | (Done _ | Cancelled | Failed _), _ -> job_json job ~since:0
          | (Queued | Running), None ->
              (* Defensive: a live job always has a run. *)
              settle t job Cancelled;
              job_json job ~since:0
          | (Queued | Running), Some run ->
              let others = List.filter (fun j -> j <> id) run.attached in
              if others = [] && run.claimed && not run.finalized then begin
                (* Sole attachment of an executing run: cooperative
                   cancel, exactly the single-tenant semantics.  The
                   verifier polls the token once per region and its
                   worker finalizes the run (and with it this job).
                   Forget the question now so a new identical submit
                   starts a fresh run instead of attaching to a dying
                   one. *)
                Parallel.Cancel.cancel run.rcancel;
                forget t run;
                emit job "cancel_requested";
                job_json job ~since:0
              end
              else begin
                (* Detach and settle immediately: other tenants' jobs
                   riding this run are untouched.  If this was the last
                   attachment of a run still sitting in the queue, the
                   run dies with it — the worker that later pops it
                   sees it finalized and skips. *)
                run.attached <- others;
                if others = [] && not run.finalized then begin
                  Parallel.Cancel.cancel run.rcancel;
                  run.finalized <- true;
                  forget t run
                end;
                settle t job Cancelled;
                job_json job ~since:0
              end))

let tenants_json t =
  List.rev_map
    (fun name ->
      match Hashtbl.find_opt t.tenant_counters name with
      | Some c -> Tenant.counters_json c
      | None -> J.Obj [ ("name", J.Str name) ])
    t.tenant_order
[@@race.locked "mutex"]

let stats t =
  let cache = Cache.stats t.cache in
  let hit_rate = Cache.hit_rate t.cache in
  let pstats = Charon.Proofcache.stats t.proofcache in
  let p_hit_rate =
    if pstats.Charon.Proofcache.lookups = 0 then 0.0
    else
      float_of_int pstats.Charon.Proofcache.hits
      /. float_of_int pstats.Charon.Proofcache.lookups
  in
  let states = Hashtbl.create 8 in
  let tenants, depths, inflight_keys, coalesced_total, peak_keys =
    with_lock t (fun () ->
        Hashtbl.iter
          (fun _ job ->
            let l = state_label job.state in
            Hashtbl.replace states l
              (1 + Option.value ~default:0 (Hashtbl.find_opt states l)))
          t.jobs;
        ( tenants_json t,
          Jobq.depths t.queue,
          Hashtbl.length t.runs,
          Hashtbl.fold
            (fun _ c n -> n + c.Tenant.coalesced)
            t.tenant_counters 0,
          t.peak_runs ))
  in
  let queued = Option.value ~default:0 (Hashtbl.find_opt states "queued") in
  let store_block =
    match t.store with
    | None -> []
    | Some s ->
        let st = Store.stats s in
        [
          ( "store",
            J.Obj
              [
                ("path", J.Str (Store.path s));
                ("entries", J.Int st.Store.entries);
                ("loaded", J.Int st.Store.loaded);
                ("appended", J.Int st.Store.appended);
                ("hits", J.Int st.Store.hits);
              ] );
        ]
  in
  Protocol.ok
    ([
       ("workers", J.Int t.workers);
       ("uptime_seconds", J.Float (now () -. t.started_at));
       ("queue_depth", J.Int (Jobq.length t.queue));
       ("queue_capacity", J.Int (Jobq.capacity t.queue));
       ( "queue_depths",
         J.Obj (List.map (fun (tn, n) -> (tn, J.Int n)) depths) );
       ("queued", J.Int queued);
       ("in_flight", J.Int (Atomic.get t.in_flight));
       ("peak_in_flight", J.Int (Atomic.get t.peak_in_flight));
       ( "jobs",
         J.Obj
           (("submitted", J.Int (Atomic.get t.n_submitted))
           :: ("completed", J.Int (Atomic.get t.n_completed))
           :: ("cancelled", J.Int (Atomic.get t.n_cancelled))
           :: ("failed", J.Int (Atomic.get t.n_failed))
           :: ("rejected", J.Int (Atomic.get t.n_rejected))
           :: (Hashtbl.fold
                 (fun l n acc -> (l, J.Int n) :: acc)
                 states []
              |> List.sort (fun (a, _) (b, _) -> String.compare a b))) );
       ( "coalesce",
         J.Obj
           [
             ("inflight_keys", J.Int inflight_keys);
             ("coalesced_total", J.Int coalesced_total);
             ("peak_inflight_keys", J.Int peak_keys);
           ] );
       ("tenants", J.Arr tenants);
       ( "cache",
         J.Obj
           [
             ("size", J.Int cache.Cache.size);
             ("capacity", J.Int cache.Cache.capacity);
             ("hits", J.Int cache.Cache.hits);
             ("misses", J.Int cache.Cache.misses);
             ("evictions", J.Int cache.Cache.evictions);
             ("hit_rate", J.Float hit_rate);
           ] );
       ( "proofcache",
         J.Obj
           [
             ("entries", J.Int pstats.Charon.Proofcache.entries);
             ("capacity", J.Int pstats.Charon.Proofcache.capacity);
             ("lookups", J.Int pstats.Charon.Proofcache.lookups);
             ("hits", J.Int pstats.Charon.Proofcache.hits);
             ("evictions", J.Int pstats.Charon.Proofcache.evictions);
             ("hit_rate", J.Float p_hit_rate);
           ] );
       (* The scratch arena's footprint, read from the arena directly so
          it is live even when telemetry counters are disabled. *)
       ( "kernel",
         J.Obj
           [
             ( "scratch_highwater_words",
               J.Int (Linalg.Scratch.highwater_words ()) );
           ] );
       ( "counters",
         J.Obj
           (List.map
              (fun (k, v) -> (k, J.Int v))
              (Telemetry.Metrics.counters ())) );
     ]
    @ store_block)

let shutdown t =
  let pool =
    with_lock t (fun () ->
        (* Reject new work, settle everything still queued, and ask
           running runs to stop at their next region poll.  A run that
           left the index mid-flight was cancelled on the way out; its
           worker settles it before the join below returns. *)
        Jobq.close t.queue;
        Hashtbl.iter
          (fun _ run ->
            Parallel.Cancel.cancel run.rcancel;
            if not run.claimed then begin
              run.finalized <- true;
              List.iter
                (fun jid ->
                  match Hashtbl.find_opt t.jobs jid with
                  | Some job -> settle t job Cancelled
                  | None -> ())
                run.attached;
              run.attached <- []
            end)
          t.runs;
        Hashtbl.reset t.runs;
        let pool = t.pool in
        t.pool <- None;
        pool)
  in
  (* Workers drain their current (now cancelled) runs and exit on the
     closed queue; joining here is what guarantees no orphaned domains
     outlive the scheduler. *)
  Option.iter Domain.join pool;
  (* Safe only after the join: no worker can record further facts. *)
  Charon.Proofcache.close t.proofcache;
  Option.iter Store.close t.store

let workers t = t.workers
