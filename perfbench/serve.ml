(* The [serve] workload: an open loop at a fixed seeded rate against a
   charon-serve daemon in its own process (this binary, re-executed),
   over TCP loopback, with two tenants, the configured scheduler
   workers and the persistent verdict store on.

   Traffic uses the dense suite networks only and mixes four request
   classes: cold problems drawn from the suite pool, exact repeats of
   earlier ones (verdict LRU, and the store once the small LRU has
   evicted them), bursts of duplicates sent right after their original
   (coalesced onto the run in flight), and boxes shifted by a share of
   their width along one dimension (the proof cache).  Every job
   carries [max_steps].

   Latency runs from a request's due time to the server's timestamp of
   its verdict event.  The server stamps events relative to its own
   submission instant, which lies just before the submit response
   reaches the client; the benchmark anchors the stamps there (same
   host clock), so latency = submit cost (including any lateness of the
   generator) + queue wait + run.  One sender thread issues the
   requests; statuses are collected after the schedule, so polling adds
   no load and no delay. *)

open Util
module P = Server.Protocol
module C = Server.Client

let tenants = [ ("alpha", "perfbench-alpha"); ("beta", "perfbench-beta") ]

(* --- The daemon process --- *)

let daemon_main () =
  let a = Sys.argv in
  let trace = a.(6) in
  if trace <> "-" then Telemetry.enable ~path:trace ();
  let h =
    Server.Daemon.start ~tcp:("127.0.0.1", 0) ~workers:(int_of_string a.(4))
      ~cache_capacity:(int_of_string a.(5)) ~store_path:a.(3)
      ~tenants:(Server.Tenant.load a.(2)) ()
  in
  Printf.printf "%d\n%!" (Option.get (Server.Daemon.tcp_port h));
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Server.Daemon.stop h;
  if trace <> "-" then Telemetry.disable ();
  Printf.printf "%.3f\n%!" (peak_rss_mb ());
  0

type daemon = { pid : int; oc : out_channel; ic : in_channel; addr : C.addr }

let start_daemon ~dir ~trace (cfg : Config.t) =
  let tenants_path = Filename.concat dir "tenants.json" in
  write_file tenants_path
    (J.to_string
       (J.Obj
          [
            ( "tenants",
              J.Arr
                (List.map
                   (fun (name, key) -> J.Obj [ ("name", J.Str name); ("key", J.Str key) ])
                   tenants) );
          ]));
  let store = Filename.concat dir "verdicts.jsonl" in
  if Sys.file_exists store then Sys.remove store;
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name;
        "--perfbench-daemon";
        tenants_path;
        store;
        string_of_int cfg.Config.nproc;
        string_of_int cfg.Config.serve.Config.cache_capacity;
        Option.value trace ~default:"-";
      |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  let ic = Unix.in_channel_of_descr from_child in
  let port = int_of_string (input_line ic) in
  let addr = C.Tcp ("127.0.0.1", port) in
  let api_key = snd (List.hd tenants) in
  let rec ping tries =
    match C.ping ~api_key ~addr () with
    | _ -> ()
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.001;
        ping (tries - 1)
  in
  ping 5000;
  { pid; oc = Unix.out_channel_of_descr to_child; ic; addr }

(* Close the daemon's stdin; it shuts down, reports its peak RSS (MB)
   and exits. *)
let stop_daemon d =
  close_out d.oc;
  let rss = try float_of_string (input_line d.ic) with End_of_file | Failure _ -> 0.0 in
  close_in d.ic;
  ignore (Unix.waitpid [] d.pid);
  rss

(* --- The schedule --- *)

type kind = Cold | Repeat | Duplicate | Shifted

let kind_name = function
  | Cold -> "cold"
  | Repeat -> "repeat"
  | Duplicate -> "duplicate"
  | Shifted -> "shifted"

type problem = {
  pname : string;
  net : string;
  box : Domains.Box.t;
  target : int;
  jseed : int;
  suite : Inputs.candidate option;  (** [None] for shifted boxes *)
}

type request = { due : float; kind : kind; tenant : int; problem : problem }

let of_candidate (c : Inputs.candidate) =
  {
    pname = c.Inputs.prop.Common.Property.name;
    net = c.Inputs.net;
    box = c.Inputs.prop.Common.Property.region;
    target = c.Inputs.prop.Common.Property.target;
    jseed = c.Inputs.rng_seed;
    suite = Some c;
  }

let shifted ~rng ~share p =
  let b = p.box in
  let open Domains.Box in
  let dims =
    List.filter (fun i -> b.hi.(i) > b.lo.(i)) (List.init (Array.length b.lo) Fun.id)
  in
  let d = List.nth dims (Random.State.int rng (List.length dims)) in
  let w = share *. (b.hi.(d) -. b.lo.(d)) in
  let lo = Array.copy b.lo and hi = Array.copy b.hi in
  lo.(d) <- lo.(d) +. w;
  hi.(d) <- hi.(d) +. w;
  { p with pname = Printf.sprintf "%s+d%d" p.pname d; box = create ~lo ~hi; suite = None }

(* [rate * seconds] requests.  The mix is synthetic: no recorded
   traffic exists for this server, so config.json gives each of the four
   request classes an equal share, and no serving path dominates by
   assumption.  The cold problems are one stratified draw from the dense
   pool and the shifted dimensions are drawn too, both from the model
   seed, so every run serves the same work: drawn per run seed, they
   moved the run's median verdict time with the problems drawn.  The run
   seed draws the schedule: the order of the cold problems over evenly
   spaced, jittered slots (ending early enough that every derived
   request falls inside the schedule), the tenants and the delays'
   jitter.  Every other request derives from a cold one picked at even
   steps along the draw, so each class keeps the cold cost mix.  The
   timings below follow from the mechanism each class exercises. *)

(* docs/serving.md names bursts of duplicate hard queries as the traffic
   coalescing serves: [burst] copies 1 ms apart, right after an original
   that is not decided at the root. *)
let burst = 4

(* Past the cold run's p95 (~0.4 s), so the original's proved
   subregions are in the proof cache. *)
let shift_delay_s = 1.0

(* Cold and shifted runs add ~4 verdicts a second, so the verdict LRU
   of 16 still holds the original after 2 s and has turned over by 6 s,
   when the store answers. *)
let repeat_delays_s = [| 2.0; 6.0 |]

let schedule (cfg : Config.t) ~seed ~seconds =
  let v = cfg.Config.serve in
  let rng = rng ~seed ~stream:104_729 in
  let shifts = Util.rng ~seed:cfg.Config.model_seed ~stream:15_485_863 in
  let n = max 16 (int_of_float (Float.round (v.Config.rate_rps *. seconds))) in
  let count share = max 1 (int_of_float (Float.round (share *. float_of_int n))) in
  let n_cold = count v.Config.cold_share and n_rep = count v.Config.repeat_share in
  let n_bursts = max 1 (count v.Config.duplicate_share / burst) in
  let n_shift = max 1 (n - n_cold - n_rep - (n_bursts * burst)) in
  let nets = List.length Inputs.dense_names in
  let pool = Inputs.pool ~model_seed:cfg.Config.model_seed ~size:cfg.Config.suite.Config.pool_size in
  let drawn =
    Array.of_list
      (Inputs.draw ~seed:cfg.Config.model_seed ~per_network:((n_cold + nets - 1) / nets)
         Inputs.dense_names pool)
  in
  let every k total i = i * total / k in
  let cold = Array.init n_cold (fun i -> drawn.(every n_cold (Array.length drawn) i)) in
  Inputs.record_draw ~seed ~tag:"serve" (Array.to_list cold);
  let order = Array.init n_cold Fun.id in
  shuffle rng order;
  let last_delay = Array.fold_left Float.max shift_delay_s repeat_delays_s in
  let span = Float.max 1.0 (seconds -. last_delay -. 0.5) in
  let cold_due = Array.make n_cold 0.0 in
  Array.iteri
    (fun slot i ->
      cold_due.(i) <-
        (float_of_int slot +. 0.5 +. uniform rng ~lo:(-0.4) ~hi:0.4) *. span /. float_of_int n_cold)
    order;
  let jitter () = uniform rng ~lo:0.0 ~hi:0.2 in
  (* [k] originals at even steps over [among], a list of cold indices. *)
  let originals among k =
    let a = Array.of_list among in
    let m = Array.length a in
    List.init k (fun j -> a.((every k m j + (m / (2 * k))) mod m))
  in
  let all = List.init n_cold Fun.id in
  let hard = match List.filter (fun i -> Inputs.hard cold.(i)) all with [] -> all | h -> h in
  let derived kind among k delay =
    List.mapi
      (fun j i ->
        let p = of_candidate cold.(i) in
        let p =
          if kind = Shifted then shifted ~rng:shifts ~share:v.Config.shift_share p else p
        in
        (cold_due.(i) +. delay j, kind, p))
      (originals among k)
  in
  let reqs =
    List.init n_cold (fun i -> (cold_due.(i), Cold, of_candidate cold.(i)))
    @ List.concat_map
        (fun (due, _, p) ->
          List.init burst (fun b -> (due +. (0.001 *. float_of_int (b + 1)), Duplicate, p)))
        (derived Duplicate hard n_bursts (fun _ -> 0.0))
    @ derived Shifted all n_shift (fun _ -> shift_delay_s +. jitter ())
    @ derived Repeat all n_rep (fun j ->
          repeat_delays_s.(j mod Array.length repeat_delays_s) +. jitter ())
  in
  let tenant_of = Array.init (List.length reqs) (fun i -> i mod 2) in
  shuffle rng tenant_of;
  let reqs =
    List.mapi (fun i (due, kind, problem) -> { due; kind; tenant = tenant_of.(i); problem }) reqs
    |> List.stable_sort (fun a b -> Float.compare a.due b.due)
  in
  let n = List.length reqs in
  let dir = Inputs.seed_dir seed in
  mkdir_p dir;
  write_file
    (Filename.concat dir (Printf.sprintf "serve-%d.schedule" n))
    (String.concat ""
       (List.map
          (fun r ->
            Printf.sprintf "%.6f %s %s %s\n" r.due (kind_name r.kind)
              (fst (List.nth tenants r.tenant))
              r.problem.pname)
          reqs));
  reqs

(* --- One schedule against one daemon --- *)

type answer = {
  req : request;
  late : float;  (** generator lateness at send, s *)
  submit_s : float;  (** [Client.submit] round trip, s *)
  status : J.t option;  (** final job status *)
  error : string option;  (** exception, reject or deadline *)
  reject : string option;  (** structured reject code *)
  anchor : float;  (** absolute time the server's event stamps count from *)
  due_abs : float;
}

let spec_of ~texts ~steps p =
  {
    P.name = p.pname;
    network = List.assoc p.net texts;
    box = p.box;
    target = p.target;
    delta = Charon.Verify.default_config.Charon.Verify.delta;
    timeout = Some 60.0;
    max_steps = Some steps;
    seed = p.jseed;
  }

let event_time status label =
  match J.member "events" status with
  | Some (J.Arr evs) ->
      List.find_map
        (fun e ->
          match Option.bind (J.member "label" e) J.to_string_opt with
          | Some l when String.equal l label -> Option.bind (J.member "t" e) J.to_float_opt
          | Some _ | None -> None)
        evs
  | _ -> None

let verdict_time status =
  List.find_map (event_time status) [ "verified"; "falsified"; "timeout"; "unknown" ]

let bool_member name j = match J.member name j with Some (J.Bool b) -> b | _ -> false

let from_cache status =
  match J.member "cache" status with Some c -> bool_member "hit" c | None -> false

let play (cfg : Config.t) ~texts d reqs =
  let v = cfg.Config.serve in
  let t_start = now () +. 0.05 in
  let send req =
    let due_abs = t_start +. req.due in
    let wait = due_abs -. now () in
    if wait > 0.0 then Unix.sleepf wait;
    let spec = spec_of ~texts ~steps:v.Config.serve_steps req.problem in
    let api_key = snd (List.nth tenants req.tenant) in
    let s0 = now () in
    let result =
      try
        Ok
          (Telemetry.Span.wrap "bench.client.submit" (fun () ->
               C.submit ~api_key ~addr:d.addr spec))
      with
      | C.Rejected { code; _ } -> Error (Some code, "rejected: " ^ code)
      | e -> Error (None, Printexc.to_string e)
    in
    let s1 = now () in
    let base =
      {
        req;
        late = s0 -. due_abs;
        submit_s = s1 -. s0;
        status = None;
        error = None;
        reject = None;
        anchor = s1;
        due_abs;
      }
    in
    match result with
    | Ok (id, resp) -> ((id, api_key), { base with status = Some resp })
    | Error (reject, msg) -> ((-1, api_key), { base with error = Some msg; reject })
  in
  let answers = List.map send reqs in
  (* Collect every job's final status. *)
  let deadline = now () +. v.Config.deadline_s in
  let settled a =
    a.error <> None
    || match a.status with Some s -> C.terminal (C.job_state s) | None -> true
  in
  let rec collect answers =
    let answers =
      List.map
        (fun ((id, api_key), a) ->
          if settled a then ((id, api_key), a)
          else
            match C.status ~api_key ~addr:d.addr id with
            | s -> ((id, api_key), { a with status = Some s })
            | exception e -> ((id, api_key), { a with error = Some (Printexc.to_string e) }))
        answers
    in
    if List.for_all (fun (_, a) -> settled a) answers then answers
    else if now () > deadline then
      List.map
        (fun (k, a) ->
          if settled a then (k, a) else (k, { a with error = Some "client deadline passed" }))
        answers
    else begin
      Unix.sleepf 0.02;
      collect answers
    end
  in
  let answers = List.map snd (collect answers) in
  let stats = try Some (C.stats ~api_key:(snd (List.hd tenants)) ~addr:d.addr ()) with _ -> None in
  (answers, stats)

(* Per-answer derived times (s), for answers that carry a verdict. *)
let latency a =
  match Option.bind a.status verdict_time with
  | Some t -> Some (a.anchor -. a.due_abs +. t)
  | None -> None

let accepted_to_verdict a = Option.bind a.status verdict_time

let queue_wait a =
  match a.status with
  | Some s -> (
      match (event_time s "queued", event_time s "running") with
      | Some q, Some r -> Some (r -. q)
      | _ -> None)
  | None -> None

(* A leader runs its own verification: neither a cache hit nor
   coalesced onto another run. *)
let leader a =
  match a.status with
  | Some s -> (not (from_cache s)) && not (bool_member "coalesced" s)
  | None -> false

let run_wall a = Option.bind (Option.bind a.status (J.member "wall_seconds")) J.to_float_opt

let outcome a =
  match a.status with
  | Some s when String.equal (C.job_state s) "done" -> (
      match J.member "verdict" s with
      | Some v -> ( try Some (P.outcome_of_json v) with P.Bad_request _ -> None)
      | None -> None)
  | _ -> None

(* Gates: every request is attempted; errors, rejects, failed or
   cancelled jobs and bad verdicts are failures.  Suite problems must
   agree with the sequential suite verdict ([oracle]). *)
let judge (cfg : Config.t) ~seed r ~nets ~oracle answers =
  let rng = Linalg.Rng.create (seed + 31) in
  let gated = Hashtbl.create 64 in
  List.iter
    (fun a ->
      Report.attempt r;
      let p = a.req.problem in
      let problem = Printf.sprintf "%s (%s)" p.pname (kind_name a.req.kind) in
      match (a.error, outcome a) with
      | Some e, _ -> Report.fail r ~problem e
      | None, None ->
          Report.fail r ~problem
            ("job ended " ^ Option.fold ~none:"without status" ~some:C.job_state a.status)
      | None, Some o ->
          let key = (p.pname, Common.Outcome.label o) in
          if not (Hashtbl.mem gated key) then begin
            Hashtbl.replace gated key ();
            let prop = Common.Property.create ~name:p.pname ~region:p.box ~target:p.target () in
            Report.gate r ~problem
              (Gates.check ~rng ~samples:cfg.Config.attack_samples
                 ~delta:Charon.Verify.default_config.Charon.Verify.delta (List.assoc p.net nets)
                 prop o)
          end;
          Option.iter
            (fun (c : Inputs.candidate) ->
              Report.gate r ~problem
                (Gates.agree ~what:"served verdict" o (Hashtbl.find oracle c.Inputs.index)))
            p.suite)
    answers

(* The sequential suite verdict of every served suite problem: the
   learned policy at the suite's step budget. *)
let sequential (cfg : Config.t) ~nets ~policy reqs =
  let oracle = Hashtbl.create 64 in
  List.iter
    (fun req ->
      Option.iter
        (fun (c : Inputs.candidate) ->
          if not (Hashtbl.mem oracle c.Inputs.index) then
            Hashtbl.replace oracle c.Inputs.index
              (Telemetry.Span.wrap "bench.verify" (fun () ->
                   Inputs.verify_candidate ~max_steps:cfg.Config.suite.Config.max_steps ~policy
                     (List.assoc c.Inputs.net nets) c))
                .Charon.Verify.outcome)
        req.problem.suite)
    reqs;
  oracle

(* Summed [Verify.run] walls of the daemon's own runs. *)
let run_walls answers =
  sum (List.filter_map (fun a -> if leader a then run_wall a else None) answers)

(* [repeats] samples of the program's set-up: load the models and start
   a daemon until it answers a ping.  Every daemon but the last is
   stopped; the sample times are returned with the last one. *)
let setup (cfg : Config.t) ~dir ~trace ~repeats =
  let names = Inputs.dense_names in
  let runs =
    List.init (max 1 repeats) (fun _ ->
        time (fun () ->
            let models = Inputs.load_models ~model_seed:cfg.Config.model_seed names in
            (models, start_daemon ~dir ~trace cfg)))
  in
  let last = List.length runs - 1 in
  List.iteri (fun i (_, (_, d)) -> if i < last then ignore (stop_daemon d)) runs;
  let _, ((nets, policy), d) = List.nth runs last in
  (List.map fst runs, nets, policy, d)

let texts (cfg : Config.t) =
  List.map
    (fun name -> (name, read_file (Inputs.net_path ~model_seed:cfg.Config.model_seed name)))
    Inputs.dense_names

let ms = List.map (fun s -> s *. 1e3)

let measure (cfg : Config.t) ~seed ~seconds ~out r =
  let v = cfg.Config.serve in
  let reqs = schedule cfg ~seed ~seconds in
  let texts = texts cfg in
  (* Set-up is sampled before and after the schedule, so its median does
     not rest on the host's speed at one instant. *)
  let before = (cfg.Config.setup_repeats + 1) / 2 in
  let setups, nets, policy, d = setup cfg ~dir:out ~trace:None ~repeats:before in
  let answers, _ = play cfg ~texts d reqs in
  let daemon_rss = stop_daemon d in
  let after, _, _, d =
    setup cfg ~dir:out ~trace:None ~repeats:(cfg.Config.setup_repeats - before)
  in
  ignore (stop_daemon d);
  let setup_s = median (setups @ after) in
  let oracle = sequential cfg ~nets ~policy reqs in
  judge cfg ~seed r ~nets ~oracle answers;
  let lat_s = List.filter_map latency answers in
  let lat = ms lat_s in
  let sched_s = float_of_int (List.length reqs) /. v.Config.rate_rps in
  let solved =
    List.length
      (List.filter
         (fun a -> match outcome a with Some o -> Common.Outcome.is_solved o | None -> false)
         answers)
  in
  Report.e2e r "setup_s" "s" setup_s;
  (* The schedule's length is fixed by the rate; the time requests spend
     waiting for their verdicts, summed, is what the daemon's speed
     moves. *)
  Report.e2e r "wall_s" "s" (sum lat_s);
  Report.e2e r "inproc_wall_s" "s" (run_walls answers);
  let acc = ms (List.filter_map accepted_to_verdict answers) in
  Report.e2e r "verdict_ms.p50" "ms" (quantile 0.5 acc);
  Report.e2e r "verdict_ms.p90" "ms" (quantile 0.9 acc);
  Report.e2e r "latency_ms.p50" "ms" (quantile 0.5 lat);
  Report.e2e r "latency_ms.p95" "ms" (quantile 0.95 lat);
  Report.e2e r "goodput_rps" "1/s"
    (float_of_int (List.length (List.filter (fun l -> l <= v.Config.serve_latency_limit_ms) lat))
    /. sched_s);
  Report.e2e r "solved_share" "share"
    (share (float_of_int solved) (float_of_int (List.length answers)));
  Report.e2e r "peak_rss_mb" "MB" (peak_rss_mb () +. daemon_rss);
  Printf.printf "serve: %d requests over %.1fs, %d solved, %d ran their own verification\n"
    (List.length reqs) sched_s solved
    (List.length (List.filter leader answers))

let stat_value path stats =
  let rec go j = function
    | [] -> J.to_float_opt j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0.0 (Option.bind stats (fun s -> go s path))

(* The traced run: the same schedule once against an untraced daemon
   and once against a traced one, then the serving ledger. *)
let traced (cfg : Config.t) ~seed ~seconds ~out r =
  let reqs = schedule cfg ~seed ~seconds in
  let texts = texts cfg in
  let _, nets, policy, d = setup cfg ~dir:out ~trace:None ~repeats:1 in
  let plain, _ = play cfg ~texts d reqs in
  ignore (stop_daemon d);
  let trace_path = Filename.concat out "daemon.jsonl" in
  let _, _, _, d = setup cfg ~dir:out ~trace:(Some trace_path) ~repeats:1 in
  Telemetry.enable ~path:(Filename.concat out "client.jsonl") ();
  let answers, stats = play cfg ~texts d reqs in
  Telemetry.disable ();
  ignore (stop_daemon d);
  let oracle = sequential cfg ~nets ~policy reqs in
  judge cfg ~seed r ~nets ~oracle answers;
  Report.layer r "telemetry.overhead_share.serve" "share"
    ((run_walls answers /. run_walls plain) -. 1.0);
  List.iter
    (fun k ->
      let mine = ms (List.filter_map (fun a -> if a.req.kind = k then Some a.submit_s else None) answers) in
      Report.layer r ("server.protocol.submit_ms.p50." ^ kind_name k) "ms" (quantile 0.5 mine);
      Report.layer r ("server.protocol.submit_ms.p95." ^ kind_name k) "ms" (quantile 0.95 mine))
    [ Cold; Repeat; Duplicate; Shifted ];
  let request_bytes a =
    let spec = spec_of ~texts ~steps:cfg.Config.serve.Config.serve_steps a.req.problem in
    float_of_int (String.length (J.to_string (P.to_json (P.Submit spec))))
  in
  Report.layer r "server.protocol.request_kb" "KB"
    (sum (List.map request_bytes answers) /. 1024.0 /. float_of_int (List.length answers));
  List.iteri
    (fun i (name, _) ->
      let w = ms (List.filter_map (fun a -> if a.req.tenant = i then queue_wait a else None) answers) in
      Report.layer r ("server.jobq.wait_ms.p50." ^ name) "ms" (quantile 0.5 w);
      Report.layer r ("server.jobq.wait_ms.p95." ^ name) "ms" (quantile 0.95 w))
    tenants;
  let run_ms = ms (List.filter_map (fun a -> if leader a then run_wall a else None) answers) in
  Report.layer r "server.scheduler.run_ms.p50" "ms" (quantile 0.5 run_ms);
  Report.layer r "server.scheduler.run_ms.p95" "ms" (quantile 0.95 run_ms);
  Report.layer r "server.cache.hit_rate" "share" (stat_value [ "cache"; "hit_rate" ] stats);
  Report.layer r "server.coalesce.share" "share"
    (share
       (float_of_int
          (List.length
             (List.filter (fun a -> Option.fold ~none:false ~some:(bool_member "coalesced") a.status) answers)))
       (float_of_int (List.length answers)));
  Report.layer r "server.store.hits" "count" (stat_value [ "store"; "hits" ] stats);
  Report.layer r "server.store.appends" "count" (stat_value [ "store"; "appended" ] stats);
  List.iter
    (fun code ->
      Report.layer r ("server.rejects." ^ code) "count"
        (float_of_int (List.length (List.filter (fun a -> a.reject = Some code) answers))))
    [ "busy"; "quota"; "auth"; "version"; "oversized"; "bad_request"; "shutting_down" ];
  (* Queue depth over time, from the queued/running stamps. *)
  let steps =
    List.concat_map
      (fun a ->
        match a.status with
        | Some s -> (
            match (event_time s "queued", event_time s "running") with
            | Some q, Some run when not (from_cache s) ->
                [ (a.anchor +. q, 1); (a.anchor +. run, -1) ]
            | _ -> [])
        | None -> [])
      answers
    |> List.sort compare
  in
  let depth = ref 0 and peak = ref 0 in
  List.iter
    (fun (_, dlt) ->
      depth := !depth + dlt;
      peak := max !peak !depth)
    steps;
  Report.layer r "server.queue_depth.max" "count" (float_of_int !peak);
  Report.layer r "core.proofcache.lookups" "count" (stat_value [ "proofcache"; "lookups" ] stats);
  Report.layer r "core.proofcache.hit_rate" "share" (stat_value [ "proofcache"; "hit_rate" ] stats);
  let late = ms (List.map (fun a -> Float.max 0.0 a.late) answers) in
  Report.layer r "bench.gen_late_ms.p99" "ms" (quantile 0.99 late);
  Report.layer r "bench.gen_late_ms.max" "ms" (List.fold_left Float.max 0.0 late);
  (* The verifier's phases inside the daemon, and the latency ledger:
     submit + queue wait + the worker's parse of the job's network (timed
     by probe) + run must account for each leader request's latency. *)
  let l = Ledger.read trace_path in
  (* Informational: the daemon's Verify.run walls include work before
     the verify.run span opens, which no span covers. *)
  Layers.verify_ledger ~gate:false r ~tol:cfg.Config.reconcile_tolerance ~what:"serve.verify" l
    ~bench_wall:(run_walls answers);
  let leaders = List.filter leader answers in
  let parse_s = List.map (fun (net, text) -> (net, Probes.parse_ms [ text ] /. 1e3)) texts in
  let phase f = sum (List.map f leaders) in
  let submit = phase (fun a -> a.anchor -. a.due_abs) in
  let queue = phase (fun a -> Option.value ~default:0.0 (queue_wait a)) in
  let parse = phase (fun a -> List.assoc a.req.problem.net parse_s) in
  let run = phase (fun a -> Option.value ~default:0.0 (run_wall a)) in
  let total_lat = sum (List.filter_map latency leaders) in
  let parts = submit +. queue +. parse +. run in
  let residual = share (Float.abs (total_lat -. parts)) total_lat in
  Report.check r "reconcile.serve" (residual <= cfg.Config.reconcile_tolerance)
    (Printf.sprintf
       "submit %.3fs + queue wait %.3fs + network parse %.3fs + run %.3fs = %.3fs vs latency %.3fs over %d leader requests (residual %.1f%%)"
       submit queue parse run parts total_lat (List.length leaders) (100. *. residual));
  Layers.probes r ~seed ~model_seed:cfg.Config.model_seed nets
    (List.filter_map
       (fun req ->
         Option.map
           (fun (c : Inputs.candidate) -> (c.Inputs.net, c.Inputs.prop))
           req.problem.suite)
       reqs
    |> List.sort_uniq compare)

let run cfg ~seed ~seconds ~trace ~out r =
  if trace then traced cfg ~seed ~seconds ~out r else measure cfg ~seed ~seconds ~out r
