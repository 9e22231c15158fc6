(* The charon command-line interface.

   Subcommands:
     verify   decide a robustness property of a saved network
     check    decide every property in a property file
     analyze  one abstract-interpretation pass with a chosen domain
     attack   search for an adversarial counterexample with PGD / FGSM
     train    learn a verification policy with Bayesian optimization
     netgen   train a benchmark network and save it to disk
     suite    run the benchmark suite and print per-benchmark outcomes
     export   write the benchmark suite to disk as networks + property files
     serve    run the verification daemon (docs/serving.md)
     submit   send one verification job to a running daemon
     status   poll one job's state and events
     cancel   cancel a queued or running job
     stats    queue, tenant and cache statistics of a running daemon
     ping     check that a running daemon answers
     shutdown stop a running daemon
     dverify  verify one property across worker processes
     worker   the dverify worker process (spawned by dverify)
     demo     the XOR walkthrough of Example 3.1 *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                            *)

let network_arg =
  let doc = "Network file (text format produced by $(b,netgen) or Nn.Serial)." in
  Arg.(required & opt (some file) None & info [ "network"; "n" ] ~docv:"FILE" ~doc)

let target_arg =
  let doc = "Target class K of the robustness property." in
  Arg.(required & opt (some int) None & info [ "target"; "k" ] ~docv:"K" ~doc)

let timeout_arg =
  let doc = "Per-problem wall-clock budget in seconds." in
  Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let delta_arg =
  let doc = "The delta of the delta-complete counterexample test (Eq. 4)." in
  Arg.(value & opt float 1e-4 & info [ "delta" ] ~docv:"DELTA" ~doc)

let seed_arg =
  let doc = "Random seed (all runs are deterministic given the seed)." in
  Arg.(value & opt int 2019 & info [ "seed" ] ~docv:"SEED" ~doc)

let workers_arg =
  let doc =
    "Worker domains for the region search (1 = the sequential Algorithm \
     1 path; more drains the split worklist in parallel)."
  in
  let positive_int =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 1 -> Ok n
      | Ok n -> Error (`Msg (Printf.sprintf "%d is not a positive worker count" n))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(value & opt positive_int 1 & info [ "workers"; "j" ] ~docv:"N" ~doc)

let policy_arg =
  let doc =
    "Learned policy file (from $(b,charon train)); defaults to the \
     hand-crafted policy."
  in
  Arg.(value & opt (some file) None & info [ "policy" ] ~docv:"FILE" ~doc)

let region_of ~center ~radius ~box =
  Common.Regionspec.of_options ~center ~radius ~box

let center_arg =
  let doc = "Region center as comma-separated floats (with $(b,--radius))." in
  Arg.(value & opt (some string) None & info [ "center" ] ~docv:"X1,X2,..." ~doc)

let radius_arg =
  let doc = "L-infinity radius around $(b,--center)." in
  Arg.(value & opt float 0.05 & info [ "radius" ] ~docv:"R" ~doc)

let box_arg =
  let doc = "Region as comma-separated lo:hi bounds, one per input." in
  Arg.(value & opt (some string) None & info [ "box" ] ~docv:"L1:H1,L2:H2,..." ~doc)

let load_policy = function
  | None -> Charon.Policy.default
  | Some path -> Charon.Policy.load path

(* Telemetry plumbing shared by the solver subcommands.  [--stats]
   turns metrics on and prints the summary table at exit; [--trace F]
   additionally streams a JSONL trace to F (docs/telemetry.md). *)

let trace_arg =
  let doc =
    "Write a JSONL telemetry trace (spans, counters, per-worker events) \
     to $(docv).  See docs/telemetry.md for the event schema."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Print a telemetry summary table (counters and span timings) after \
     the run."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let with_telemetry ~trace ~stats f =
  (match trace with
  | Some path -> Telemetry.enable ~path ()
  | None -> if stats then Telemetry.enable ());
  Fun.protect
    ~finally:(fun () ->
      if stats then print_string (Telemetry.Metrics.summary_table ());
      if Telemetry.enabled () then Telemetry.disable ())
    f

(* Subregion proof cache plumbing (docs/serving.md).  [--proofcache]
   attaches an in-memory cache to the run; [--proofcache-persist F]
   additionally replays F's journal first and appends newly proved
   subregions to it, so repeated invocations warm-start each other. *)

let proofcache_flag =
  let doc =
    "Attach a subregion proof cache: proved sub-boxes are reused across \
     the properties of this invocation (and across invocations with \
     $(b,--proofcache-persist))."
  in
  Arg.(value & flag & info [ "proofcache" ] ~doc)

let proofcache_persist_arg =
  let doc =
    "Persist the proof cache as a JSONL journal at $(docv): proved \
     subregions are loaded from it on start and appended as they are \
     found.  Implies $(b,--proofcache)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "proofcache-persist" ] ~docv:"FILE" ~doc)

let proofcache_of ~enabled ~persist =
  if enabled || Option.is_some persist then
    Some (Charon.Proofcache.create ?persist ())
  else None

let report_proofcache cache =
  Option.iter
    (fun cache ->
      let s = Charon.Proofcache.stats cache in
      Format.printf "proof cache: %d hits / %d lookups, %d entries@."
        s.Charon.Proofcache.hits s.Charon.Proofcache.lookups
        s.Charon.Proofcache.entries;
      Charon.Proofcache.close cache)
    cache

(* ------------------------------------------------------------------ *)
(* verify                                                             *)

let verify_cmd =
  let run () network target center radius box timeout delta seed workers
      policy_file use_proofcache proofcache_persist trace stats =
    let net = Nn.Serial.load network in
    let region = region_of ~center ~radius ~box in
    let prop = Common.Property.create ~region ~target () in
    let policy = load_policy policy_file in
    let config = { Charon.Verify.default_config with Charon.Verify.delta } in
    let rng = Linalg.Rng.create seed in
    let proofcache =
      proofcache_of ~enabled:use_proofcache ~persist:proofcache_persist
    in
    let report =
      with_telemetry ~trace ~stats (fun () ->
          Charon.Verify.run ~config
            ~budget:(Common.Budget.of_seconds timeout)
            ~workers ?proofcache ~rng ~policy net prop)
    in
    Format.printf "%a@." Common.Outcome.pp report.Charon.Verify.outcome;
    Format.printf
      "time %.3fs, %d nodes, %d abstract runs, %d PGD calls, depth %d, %d \
       workers@."
      report.Charon.Verify.elapsed report.Charon.Verify.nodes
      report.Charon.Verify.analyze_calls report.Charon.Verify.pgd_calls
      report.Charon.Verify.peak_depth report.Charon.Verify.workers;
    List.iter
      (fun (spec, n) ->
        Format.printf "  domain %a used %d times@." Domains.Domain.pp spec n)
      report.Charon.Verify.domains_used;
    if Option.is_some proofcache then
      Format.printf "proof cache: %d hits / %d lookups this run@."
        report.Charon.Verify.cache_hits report.Charon.Verify.cache_lookups;
    report_proofcache proofcache;
    match report.Charon.Verify.outcome with
    | Common.Outcome.Verified | Common.Outcome.Refuted _ -> 0
    | Common.Outcome.Timeout | Common.Outcome.Unknown -> 1
  in
  let term =
    Term.(
      const run $ logs_term $ network_arg $ target_arg $ center_arg
      $ radius_arg $ box_arg $ timeout_arg $ delta_arg $ seed_arg
      $ workers_arg $ policy_arg $ proofcache_flag $ proofcache_persist_arg
      $ trace_arg $ stats_arg)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify or refute a robustness property")
    term

(* ------------------------------------------------------------------ *)
(* train                                                              *)

let train_cmd =
  let out_arg =
    let doc = "Where to write the learned policy parameters." in
    Arg.(value & opt string "policy.txt" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run () out seed =
    Printf.printf "learning a verification policy on ACAS-like problems...\n%!";
    let result = Experiments.Training.learn ~seed () in
    Charon.Policy.save out result.Charon.Learn.policy;
    Printf.printf "best objective %.1f after %d evaluations; saved to %s\n"
      result.Charon.Learn.best_score result.Charon.Learn.evaluations out;
    0
  in
  let term = Term.(const run $ logs_term $ out_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Learn a verification policy with Bayesian optimization")
    term

(* ------------------------------------------------------------------ *)
(* netgen                                                             *)

let netgen_cmd =
  let arch_arg =
    let doc =
      Printf.sprintf "Benchmark architecture: one of %s."
        (String.concat ", " Datasets.Suite.network_names)
    in
    Arg.(
      value
      & opt string "mnist-3x100"
      & info [ "arch"; "a" ] ~docv:"NAME" ~doc)
  in
  let out_arg =
    let doc = "Output network file." in
    Arg.(value & opt string "network.net" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run () arch out seed =
    let entry = Datasets.Suite.build_network ~seed arch in
    Nn.Serial.save out entry.Datasets.Suite.net;
    Printf.printf "%s (%s): test accuracy %.2f, saved to %s\n"
      entry.Datasets.Suite.name entry.Datasets.Suite.description
      entry.Datasets.Suite.test_accuracy out;
    0
  in
  let term = Term.(const run $ logs_term $ arch_arg $ out_arg $ seed_arg) in
  Cmd.v (Cmd.info "netgen" ~doc:"Train and save a benchmark network") term

(* ------------------------------------------------------------------ *)
(* suite                                                              *)

let suite_cmd =
  let per_network_arg =
    let doc = "Number of properties per benchmark network." in
    Arg.(value & opt int 6 & info [ "per-network" ] ~docv:"N" ~doc)
  in
  let run () per_network timeout seed workers policy_file trace stats =
    let policy = load_policy policy_file in
    let w = Datasets.Suite.benchmark ~seed ~per_network () in
    let tool = Experiments.Tool.charon ~policy () in
    let results =
      with_telemetry ~trace ~stats (fun () ->
          Experiments.Runner.run_suite ~jobs:workers ~seed ~timeout [ tool ] w
            ~progress:(fun r ->
              Printf.printf "%-14s %-24s %-9s %.2fs\n%!"
                r.Experiments.Runner.network r.Experiments.Runner.property
                (Common.Outcome.label r.Experiments.Runner.outcome)
                r.Experiments.Runner.time))
    in
    let solved = List.length (Experiments.Runner.solved results) in
    Printf.printf "solved %d / %d\n" solved (List.length results);
    0
  in
  let term =
    Term.(
      const run $ logs_term $ per_network_arg $ timeout_arg $ seed_arg
      $ workers_arg $ policy_arg $ trace_arg $ stats_arg)
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run Charon over the benchmark suite") term

(* ------------------------------------------------------------------ *)
(* check                                                              *)

let check_cmd =
  let props_arg =
    let doc = "Property file (see Common.Propfile for the format)." in
    Arg.(
      required
      & opt (some file) None
      & info [ "properties"; "p" ] ~docv:"FILE" ~doc)
  in
  let default_net_arg =
    let doc =
      "Network file used for records that do not name one themselves."
    in
    Arg.(
      value & opt (some file) None & info [ "network"; "n" ] ~docv:"FILE" ~doc)
  in
  let run () props_file default_net timeout delta seed workers policy_file
      use_proofcache proofcache_persist trace stats =
    let entries = Common.Propfile.load props_file in
    let policy = load_policy policy_file in
    let config = { Charon.Verify.default_config with Charon.Verify.delta } in
    (* One proof cache across the whole property file: overlapping
       regions on the same network reuse each other's subregion
       proofs. *)
    let proofcache =
      proofcache_of ~enabled:use_proofcache ~persist:proofcache_persist
    in
    (* Cache loaded networks: property files typically share one. *)
    let nets = Hashtbl.create 4 in
    let network_of entry =
      let path =
        match (entry.Common.Propfile.network, default_net) with
        | Some p, _ -> Filename.concat (Filename.dirname props_file) p
        | None, Some p -> p
        | None, None ->
            failwith
              (Printf.sprintf "property %s names no network and no --network                                was given"
                 entry.Common.Propfile.property.Common.Property.name)
      in
      match Hashtbl.find_opt nets path with
      | Some net -> net
      | None ->
          let net = Nn.Serial.load path in
          Hashtbl.add nets path net;
          net
    in
    let unsolved = ref 0 in
    with_telemetry ~trace ~stats (fun () ->
        List.iter
          (fun entry ->
            let net = network_of entry in
            let rng = Linalg.Rng.create seed in
            let report =
              Charon.Verify.run ~config
                ~budget:(Common.Budget.of_seconds timeout)
                ~workers ?proofcache ~rng ~policy net
                entry.Common.Propfile.property
            in
            if not (Common.Outcome.is_solved report.Charon.Verify.outcome) then
              incr unsolved;
            Format.printf "%-32s %-10s %.3fs@."
              entry.Common.Propfile.property.Common.Property.name
              (Common.Outcome.label report.Charon.Verify.outcome)
              report.Charon.Verify.elapsed)
          entries);
    Format.printf "%d properties, %d unsolved@." (List.length entries) !unsolved;
    report_proofcache proofcache;
    if !unsolved = 0 then 0 else 1
  in
  let term =
    Term.(
      const run $ logs_term $ props_arg $ default_net_arg $ timeout_arg
      $ delta_arg $ seed_arg $ workers_arg $ policy_arg $ proofcache_flag
      $ proofcache_persist_arg $ trace_arg $ stats_arg)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Decide every property in a property file")
    term

(* ------------------------------------------------------------------ *)
(* export                                                             *)

let export_cmd =
  let dir_arg =
    let doc = "Output directory (created if missing)." in
    Arg.(value & opt string "suite" & info [ "out"; "o" ] ~docv:"DIR" ~doc)
  in
  let per_network_arg =
    let doc = "Number of properties per benchmark network." in
    Arg.(value & opt int 12 & info [ "per-network" ] ~docv:"N" ~doc)
  in
  let run () dir per_network seed =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let w = Datasets.Suite.benchmark ~seed ~per_network () in
    List.iter
      (fun ((entry : Datasets.Suite.entry), props) ->
        let net_file = entry.Datasets.Suite.name ^ ".net" in
        Nn.Serial.save (Filename.concat dir net_file) entry.Datasets.Suite.net;
        let records =
          List.map
            (fun property ->
              { Common.Propfile.property; network = Some net_file })
            props
        in
        Common.Propfile.save
          (Filename.concat dir (entry.Datasets.Suite.name ^ ".props"))
          records;
        Printf.printf "%s: %d properties
" entry.Datasets.Suite.name
          (List.length props))
      w;
    Printf.printf "suite written to %s/
" dir;
    0
  in
  let term = Term.(const run $ logs_term $ dir_arg $ per_network_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the benchmark suite to disk as networks and property files")
    term

(* ------------------------------------------------------------------ *)
(* analyze                                                            *)

let analyze_cmd =
  let domain_arg =
    let doc = "Abstract domain: I1, Z1, ZJ1, S1, Z4, ZJ64, ..." in
    Arg.(value & opt string "Z1" & info [ "domain"; "d" ] ~docv:"SPEC" ~doc)
  in
  let run () network target center radius box domain =
    let net = Nn.Serial.load network in
    let region = region_of ~center ~radius ~box in
    let spec =
      match Domains.Domain.of_string domain with
      | Some s -> s
      | None -> failwith (Printf.sprintf "unknown domain %S" domain)
    in
    let margin = Absint.Analyzer.margin_lower net region ~k:target spec in
    let bounds = Absint.Analyzer.output_bounds net region spec in
    Format.printf "domain %a: margin lower bound %+g -> %s@."
      Domains.Domain.pp spec margin
      (if margin > 0.0 then "verified" else "cannot verify");
    Array.iteri
      (fun i (lo, hi) -> Format.printf "  y%d in [%+g, %+g]@." i lo hi)
      bounds;
    if margin > 0.0 then 0 else 1
  in
  let term =
    Term.(
      const run $ logs_term $ network_arg $ target_arg $ center_arg
      $ radius_arg $ box_arg $ domain_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"One abstract-interpretation pass with a chosen domain")
    term

(* ------------------------------------------------------------------ *)
(* attack                                                             *)

let attack_cmd =
  let method_arg =
    let doc = "Attack method: pgd or fgsm." in
    Arg.(value & opt string "pgd" & info [ "method"; "m" ] ~docv:"NAME" ~doc)
  in
  let run () network target center radius box seed method_ =
    let net = Nn.Serial.load network in
    let region = region_of ~center ~radius ~box in
    let obj = Optim.Objective.create net ~k:target in
    let x, v =
      match method_ with
      | "pgd" -> Optim.Pgd.minimize ~rng:(Linalg.Rng.create seed) obj region
      | "fgsm" -> Optim.Fgsm.attack_center obj region
      | other -> failwith (Printf.sprintf "unknown attack method %S" other)
    in
    Format.printf "F(x) = %+g at %a@." v Linalg.Vec.pp x;
    if v <= 0.0 then begin
      Format.printf "adversarial: classified as %d instead of %d@."
        (Nn.Network.classify net x) target;
      0
    end
    else begin
      Format.printf "no counterexample found@.";
      1
    end
  in
  let term =
    Term.(
      const run $ logs_term $ network_arg $ target_arg $ center_arg
      $ radius_arg $ box_arg $ seed_arg $ method_arg)
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Gradient-based counterexample search")
    term

(* ------------------------------------------------------------------ *)
(* serve and its client subcommands                                   *)

let socket_arg =
  let doc = "Unix-domain socket of the charon-serve daemon." in
  Arg.(
    value
    & opt string "charon-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

(* A TCP endpoint: HOST:PORT, or just PORT for 127.0.0.1. *)
let endpoint =
  let parse s =
    let host, port =
      match String.rindex_opt s ':' with
      | None -> ("", s)
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match int_of_string_opt port with
    | Some port ->
        Ok ((if String.equal host "" then "127.0.0.1" else host), port)
    | None ->
        Error (`Msg (Printf.sprintf "bad endpoint %S (expected HOST:PORT)" s))
  in
  Arg.conv (parse, fun ppf (host, port) -> Format.fprintf ppf "%s:%d" host port)

let tcp_client_arg =
  let doc =
    "Reach the daemon over TCP at $(docv) instead of the Unix socket \
     (HOST:PORT, or just PORT for 127.0.0.1)."
  in
  Arg.(
    value & opt (some endpoint) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let api_key_arg =
  let doc = "Tenant API key (required over TCP when tenants are configured)." in
  Arg.(value & opt (some string) None & info [ "api-key" ] ~docv:"KEY" ~doc)

let addr_of socket tcp =
  match tcp with
  | None -> Server.Client.Unix_socket socket
  | Some (host, port) -> Server.Client.Tcp (host, port)

(* Shared error surface for the daemon-client subcommands: connection
   failures, structured rejects, prose errors, torn responses. *)
let with_daemon addr f =
  match f () with
  | code -> code
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot reach the daemon at %s: %s\n"
        (Server.Client.addr_to_string addr)
        (Unix.error_message e);
      1
  | exception Server.Client.Server_error msg ->
      Printf.eprintf "server error: %s\n" msg;
      1
  | exception Server.Client.Rejected { code; retryable; message } ->
      Printf.eprintf "rejected (%s%s): %s\n" code
        (if retryable then ", retryable" else "")
        message;
      1
  | exception Telemetry.Jsonw.Parse_error msg ->
      (* A daemon dying mid-write can tear a line on the '\n' boundary,
         leaving broken JSON: a failed request, not a reply. *)
      Printf.eprintf "malformed response from the daemon: %s\n" msg;
      1

let serve_cmd =
  let cache_arg =
    let doc = "Verdict cache capacity (entries, LRU eviction)." in
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"N" ~doc)
  in
  let proofcache_size_arg =
    let doc = "Subregion proof cache capacity (entries, LRU eviction)." in
    Arg.(value & opt int 65536 & info [ "proofcache-size" ] ~docv:"N" ~doc)
  in
  let tcp_listen_arg =
    let doc =
      "Also listen on TCP at $(docv) (HOST:PORT, or just PORT for \
       127.0.0.1; port 0 picks an ephemeral port)."
    in
    Arg.(
      value & opt (some endpoint) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let tenants_file_arg =
    let doc =
      "Tenant registry: a JSON file mapping API keys to named tenants \
       with fair-share weights and quotas (docs/serving.md)."
    in
    Arg.(value & opt (some file) None & info [ "tenants" ] ~docv:"FILE" ~doc)
  in
  let store_file_arg =
    let doc =
      "Persist verdicts as a JSONL journal at $(docv); proved problems \
       answer from disk across daemon restarts."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let queue_capacity_arg =
    let doc =
      "Bound on queued runs; past it, submits get a retryable busy reject."
    in
    Arg.(value & opt int 256 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let run () socket tcp tenants_file store queue_capacity workers cache_size
      proofcache_size proofcache_persist trace stats =
    match
      let socket = if socket = "" then None else Some socket in
      let tenants =
        match tenants_file with
        | None -> Server.Tenant.empty
        | Some path -> Server.Tenant.load path
      in
      (match trace with
      | Some path -> Telemetry.enable ~path ()
      | None -> Telemetry.enable ());
      let daemon =
        Server.Daemon.start ?socket ?tcp ~workers ~cache_capacity:cache_size
          ~proofcache_capacity:proofcache_size ?proofcache_persist
          ?store_path:store ~queue_capacity ~tenants ()
      in
      (* After the bind, so the line names the port that port 0 got. *)
      Printf.printf
        "charon serve: listening on %s (%d workers, cache %d, proofcache %d%s%s)\n%!"
        (String.concat " + "
           (Option.to_list socket
           @
           match (tcp, Server.Daemon.tcp_port daemon) with
           | Some (h, _), Some p -> [ Printf.sprintf "%s:%d" h p ]
           | _ -> []))
        workers cache_size proofcache_size
        (match proofcache_persist with
        | Some p -> Printf.sprintf " persisted to %s" p
        | None -> "")
        (match store with
        | Some p -> Printf.sprintf ", verdict store %s" p
        | None -> "");
      Server.Daemon.wait daemon
    with
    | () ->
        if stats then print_string (Telemetry.Metrics.summary_table ());
        Telemetry.disable ();
        0
    | exception (Failure msg | Invalid_argument msg) ->
        Printf.eprintf "charon serve: %s\n" msg;
        2
  in
  let term =
    Term.(
      const run $ logs_term $ socket_arg $ tcp_listen_arg $ tenants_file_arg
      $ store_file_arg $ queue_capacity_arg $ workers_arg $ cache_arg
      $ proofcache_size_arg $ proofcache_persist_arg $ trace_arg
      $ stats_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon; $(b,submit), $(b,status), \
          $(b,cancel), $(b,stats), $(b,ping) and $(b,shutdown) talk to it")
    term

let submit_cmd =
  let wait_flag =
    let doc = "Poll until the job finishes and print the final status." in
    Arg.(value & flag & info [ "wait"; "w" ] ~doc)
  in
  let name_arg =
    let doc = "Label echoed back in status responses." in
    Arg.(value & opt string "property" & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let max_steps_arg =
    let doc = "Per-job abstract-transformer step budget." in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let run () socket tcp api_key network target center radius box timeout
      max_steps delta seed name wait =
    let addr = addr_of socket tcp in
    let spec =
      {
        Server.Protocol.name;
        network = In_channel.with_open_text network In_channel.input_all;
        box = region_of ~center ~radius ~box;
        target;
        delta;
        timeout = Some timeout;
        max_steps;
        seed;
      }
    in
    with_daemon addr (fun () ->
        let id, response = Server.Client.submit ?api_key ~addr spec in
        let json =
          if
            wait
            && not (Server.Client.terminal (Server.Client.job_state response))
          then Server.Client.wait ?api_key ~addr id
          else response
        in
        print_endline (Telemetry.Jsonw.to_string ~pretty:true json);
        0)
  in
  let term =
    Term.(
      const run $ logs_term $ socket_arg $ tcp_client_arg $ api_key_arg
      $ network_arg $ target_arg $ center_arg $ radius_arg $ box_arg
      $ timeout_arg $ max_steps_arg $ delta_arg $ seed_arg $ name_arg
      $ wait_flag)
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit one verification job to a running daemon")
    term

let stats_srv_cmd =
  let json_flag =
    let doc = "Print the raw stats JSON instead of the summary." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let module J = Telemetry.Jsonw in
  (* Tolerant accessors: a field the daemon doesn't know yet (or an
     older daemon not sending one we expect) prints as 0, not a crash —
     client and daemon versions may skew. *)
  let jint path json =
    let rec go path json =
      match path with
      | [] -> J.to_int_opt json
      | k :: rest -> Option.bind (J.member k json) (go rest)
    in
    Option.value ~default:0 (go path json)
  in
  let jfloat path json =
    let rec go path json =
      match path with
      | [] -> J.to_float_opt json
      | k :: rest -> Option.bind (J.member k json) (go rest)
    in
    Option.value ~default:0.0 (go path json)
  in
  let jstr path json =
    let rec go path json =
      match path with
      | [] -> J.to_string_opt json
      | k :: rest -> Option.bind (J.member k json) (go rest)
    in
    Option.value ~default:"?" (go path json)
  in
  let print_summary json =
    Printf.printf "charon-serve: %d workers, up %.1fs\n" (jint [ "workers" ] json)
      (jfloat [ "uptime_seconds" ] json);
    Printf.printf "queue: %d queued (capacity %d), %d in flight (peak %d)\n"
      (jint [ "queue_depth" ] json)
      (jint [ "queue_capacity" ] json)
      (jint [ "in_flight" ] json)
      (jint [ "peak_in_flight" ] json);
    Printf.printf
      "jobs: %d submitted, %d completed, %d cancelled, %d failed, %d rejected\n"
      (jint [ "jobs"; "submitted" ] json)
      (jint [ "jobs"; "completed" ] json)
      (jint [ "jobs"; "cancelled" ] json)
      (jint [ "jobs"; "failed" ] json)
      (jint [ "jobs"; "rejected" ] json);
    Printf.printf "cache: %.1f%% hit rate; coalesced %d (inflight keys %d)\n"
      (100.0 *. jfloat [ "cache"; "hit_rate" ] json)
      (jint [ "coalesce"; "coalesced_total" ] json)
      (jint [ "coalesce"; "inflight_keys" ] json);
    (match J.member "store" json with
    | Some store ->
        Printf.printf "store: %s (%d entries, %d loaded, %d hits)\n"
          (jstr [ "path" ] store) (jint [ "entries" ] store)
          (jint [ "loaded" ] store) (jint [ "hits" ] store)
    | None -> ());
    match J.member "tenants" json with
    | Some (J.Arr (_ :: _ as tenants)) ->
        Printf.printf "%-12s %6s %5s %8s %6s %6s %6s %7s %7s %9s\n" "tenant"
          "weight" "quota" "accepted" "cached" "coal" "done" "rej/q" "rej/b"
          "p95-age";
        List.iter
          (fun t ->
            Printf.printf "%-12s %6.1f %5s %8d %6d %6d %6d %7d %7d %8.3fs\n"
              (jstr [ "name" ] t)
              (jfloat [ "weight" ] t)
              (match J.member "quota" t with
              | Some (J.Int q) -> string_of_int q
              | _ -> "-")
              (jint [ "accepted" ] t) (jint [ "cache_hits" ] t)
              (jint [ "coalesced" ] t) (jint [ "completed" ] t)
              (jint [ "rejected_quota" ] t)
              (jint [ "rejected_busy" ] t)
              (jfloat [ "queue_age"; "p95_seconds" ] t))
          tenants
    | Some _ | None -> ()
  in
  let run () socket tcp api_key raw =
    let addr = addr_of socket tcp in
    with_daemon addr (fun () ->
        let json = Server.Client.stats ?api_key ~addr () in
        if raw then print_endline (J.to_string ~pretty:true json)
        else print_summary json;
        0)
  in
  let term =
    Term.(
      const run $ logs_term $ socket_arg $ tcp_client_arg $ api_key_arg
      $ json_flag)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Per-tenant accounting, queue and cache statistics of a running \
          daemon")
    term

(* The one-request subcommands: [request] sends it and the reply is
   printed; the client raises on any reply that is not ok. *)
let reply_cmd name ~doc request =
  let run () socket tcp api_key request =
    let addr = addr_of socket tcp in
    with_daemon addr (fun () ->
        let json = request ~api_key ~addr in
        print_endline (Telemetry.Jsonw.to_string ~pretty:true json);
        0)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ logs_term $ socket_arg $ tcp_client_arg $ api_key_arg
      $ request)

let id_arg =
  let doc = "Job id (from the submit response)." in
  Arg.(required & opt (some int) None & info [ "id" ] ~docv:"ID" ~doc)

let status_cmd =
  let since_arg =
    let doc = "Only return events with sequence number at least $(docv)." in
    Arg.(value & opt int 0 & info [ "since" ] ~docv:"SEQ" ~doc)
  in
  reply_cmd "status" ~doc:"Poll one job's state and events"
    Term.(
      const (fun id since ~api_key ~addr ->
          Server.Client.status ?api_key ~addr ~since id)
      $ id_arg $ since_arg)

let cancel_cmd =
  reply_cmd "cancel" ~doc:"Cancel a queued or running job"
    Term.(
      const (fun id ~api_key ~addr -> Server.Client.cancel ?api_key ~addr id)
      $ id_arg)

let ping_cmd =
  reply_cmd "ping" ~doc:"Check that a running daemon answers"
    (Term.const (fun ~api_key ~addr -> Server.Client.ping ?api_key ~addr ()))

let shutdown_cmd =
  reply_cmd "shutdown" ~doc:"Stop a running daemon (cancels all pending jobs)"
    (Term.const (fun ~api_key ~addr ->
         Server.Client.shutdown ?api_key ~addr ()))

(* ------------------------------------------------------------------ *)
(* dverify / worker                                                   *)

let dverify_cmd =
  let dworkers_arg =
    let doc = "Worker $(i,processes) to shard the problem across." in
    Arg.(value & opt int 2 & info [ "workers"; "w" ] ~docv:"N" ~doc)
  in
  let splits_arg =
    let doc =
      "Lower bound on initial canonical splits (0 = four per worker)."
    in
    Arg.(value & opt int 0 & info [ "splits" ] ~docv:"N" ~doc)
  in
  let worker_exe_arg =
    let doc =
      "Worker executable (defaults to this binary, re-executed as \
       $(b,charon worker))."
    in
    Arg.(
      value & opt (some string) None & info [ "worker-exe" ] ~docv:"EXE" ~doc)
  in
  let crash_after_arg =
    let doc =
      "Crash injection: the first worker SIGKILLs itself upon receiving \
       its ($(docv)+1)-th split.  Exercises the reassignment path (used \
       by the CI distributed lane)."
    in
    Arg.(
      value & opt (some int) None & info [ "crash-after" ] ~docv:"K" ~doc)
  in
  let trace_dir_arg =
    let doc =
      "Directory for per-process JSONL traces (coordinator.jsonl plus \
       worker-N.jsonl, via each worker's CHARON_WORKER_TRACE)."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let stats_json_arg =
    let doc = "Write the outcome and coordinator statistics to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)
  in
  let run () network target center radius box timeout delta seed workers
      splits worker_exe crash_after trace_dir proofcache_persist
      stats_json trace stats =
    let spec =
      {
        Server.Protocol.name = Filename.basename network;
        network = In_channel.with_open_text network In_channel.input_all;
        box = region_of ~center ~radius ~box;
        target;
        delta;
        timeout = Some timeout;
        max_steps = None;
        seed;
      }
    in
    let config =
      {
        (Server.Coordinator.default_config ~workers) with
        Server.Coordinator.initial_splits = splits;
        trace_dir;
        proofcache_persist;
        crash_injection = Option.map (fun k -> (0, k)) crash_after;
      }
    in
    (match trace_dir with
    | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
    | Some _ | None -> ());
    let worker_cmd =
      match worker_exe with
      | Some exe -> [| exe; "worker" |]
      | None -> [| Sys.executable_name; "worker" |]
    in
    let trace =
      (* --trace-dir routes the coordinator's own trace next to the
         workers' unless --trace already named a file. *)
      match (trace, trace_dir) with
      | (Some _ as t), _ -> t
      | None, Some dir -> Some (Filename.concat dir "coordinator.jsonl")
      | None, None -> None
    in
    with_telemetry ~trace ~stats (fun () ->
        match Server.Coordinator.run ~worker_cmd ~config spec with
        | r ->
            let s = r.Server.Coordinator.stats in
            Format.printf "%a@." Common.Outcome.pp r.Server.Coordinator.outcome;
            Format.printf "time %.3fs, %d worker processes@."
              r.Server.Coordinator.elapsed workers;
            Format.printf
              "dverify stats: initial %d, dealt %d, stolen %d, reassigned \
               %d, deaths %d, respawns %d@."
              s.Server.Coordinator.initial_splits s.Server.Coordinator.dealt
              s.Server.Coordinator.stolen s.Server.Coordinator.reassigned
              s.Server.Coordinator.worker_deaths
              s.Server.Coordinator.respawns;
            List.iter
              (fun (slot, wall) ->
                Format.printf "  shard %d busy %.3fs@." slot wall)
              s.Server.Coordinator.shard_walls;
            (match stats_json with
            | None -> ()
            | Some path ->
                let j =
                  Telemetry.Jsonw.Obj
                    [
                      ( "outcome",
                        Server.Protocol.outcome_to_json
                          r.Server.Coordinator.outcome );
                      ("elapsed", Telemetry.Jsonw.Float
                         r.Server.Coordinator.elapsed);
                      ("workers", Telemetry.Jsonw.Int workers);
                      ( "initial_splits",
                        Telemetry.Jsonw.Int s.Server.Coordinator.initial_splits
                      );
                      ("dealt", Telemetry.Jsonw.Int s.Server.Coordinator.dealt);
                      ( "stolen",
                        Telemetry.Jsonw.Int s.Server.Coordinator.stolen );
                      ( "reassigned",
                        Telemetry.Jsonw.Int s.Server.Coordinator.reassigned );
                      ( "worker_deaths",
                        Telemetry.Jsonw.Int s.Server.Coordinator.worker_deaths
                      );
                      ( "respawns",
                        Telemetry.Jsonw.Int s.Server.Coordinator.respawns );
                      ( "handshake_rejects",
                        Telemetry.Jsonw.Int
                          s.Server.Coordinator.handshake_rejects );
                      ( "shard_walls",
                        Telemetry.Jsonw.Arr
                          (List.map
                             (fun (slot, wall) ->
                               Telemetry.Jsonw.Obj
                                 [
                                   ("slot", Telemetry.Jsonw.Int slot);
                                   ("wall", Telemetry.Jsonw.Float wall);
                                 ])
                             s.Server.Coordinator.shard_walls) );
                    ]
                in
                Out_channel.with_open_text path (fun oc ->
                    output_string oc
                      (Telemetry.Jsonw.to_string ~pretty:true j);
                    output_char oc '\n'));
            (match r.Server.Coordinator.outcome with
            | Common.Outcome.Verified | Common.Outcome.Refuted _ -> 0
            | Common.Outcome.Timeout | Common.Outcome.Unknown -> 1)
        | exception Failure msg ->
            Printf.eprintf "charon dverify: %s\n" msg;
            2)
  in
  let term =
    Term.(
      const run $ logs_term $ network_arg $ target_arg $ center_arg
      $ radius_arg $ box_arg $ timeout_arg $ delta_arg $ seed_arg
      $ dworkers_arg $ splits_arg $ worker_exe_arg $ crash_after_arg
      $ trace_dir_arg $ proofcache_persist_arg $ stats_json_arg $ trace_arg
      $ stats_arg)
  in
  Cmd.v
    (Cmd.info "dverify"
       ~doc:
         "Verify one hard property across multiple worker processes \
          (split-and-conquer with work-stealing and crash recovery)")
    term

let worker_cmd =
  let run () = Server.Worker.main () in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run as a charon-dverify worker speaking Protocol.Dist on \
          stdin/stdout (spawned by $(b,charon dverify); rarely useful \
          by hand)")
    Term.(const run $ logs_term)

(* ------------------------------------------------------------------ *)
(* demo                                                               *)

let demo_cmd =
  let run () trace stats =
    let net = Nn.Init.xor () in
    print_string (Nn.Network.describe net);
    let region = Domains.Box.create ~lo:[| 0.3; 0.3 |] ~hi:[| 0.7; 0.7 |] in
    let prop =
      Common.Property.create ~name:"example-3.1" ~region ~target:1 ()
    in
    let rng = Linalg.Rng.create 2019 in
    with_telemetry ~trace ~stats (fun () ->
        let report =
          Charon.Verify.run ~rng ~policy:Charon.Policy.default net prop
        in
        Format.printf "property %a: %a@." Common.Property.pp prop
          Common.Outcome.pp report.Charon.Verify.outcome;
        let bad = { prop with Common.Property.target = 0; name = "negation" } in
        let report =
          Charon.Verify.run ~rng ~policy:Charon.Policy.default net bad
        in
        Format.printf "property %a: %a@." Common.Property.pp bad
          Common.Outcome.pp report.Charon.Verify.outcome);
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Verify the XOR example from the paper")
    Term.(const run $ logs_term $ trace_arg $ stats_arg)

let () =
  let doc = "robustness analysis of neural networks (Charon)" in
  let info = Cmd.info "charon" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            verify_cmd;
            check_cmd;
            analyze_cmd;
            attack_cmd;
            train_cmd;
            netgen_cmd;
            suite_cmd;
            export_cmd;
            serve_cmd;
            submit_cmd;
            status_cmd;
            cancel_cmd;
            stats_srv_cmd;
            ping_cmd;
            shutdown_cmd;
            dverify_cmd;
            worker_cmd;
            demo_cmd;
          ]))
