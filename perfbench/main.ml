(* perfbench: Charon's end-to-end benchmark.

   Usage, from the repository root:
     bash perfbench/run.sh --workload suite|serve|split --seed N \
       --seconds S --trace 0|1
     bash perfbench/run.sh --smoke
     bash perfbench/run.sh --write-strata   # re-record strata.txt, inputs.md5

   Each run prints every metric with its unit, any failing problem, and
   as its last line one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics of BENCHMARK.json with --trace 0,
   the per-layer ones with --trace 1.  The exit code is 0 only when
   every verdict passed its gates (gates.ml) and every check held.

   Workloads and the end-to-end metrics are described in
   perfbench/README.md; the recorded configuration (seeds, budgets,
   serve rate, latency limits, worker counts) is perfbench/config.json.
   Inputs are generated and cached under perfbench/_cache; traces and
   the serve daemon's files go to perfbench/_out. *)

open Util

(* Re-exec modes: a dverify worker or the serve daemon, before
   anything else reads argv. *)
let () =
  if Array.exists (String.equal "--charon-dverify-worker") Sys.argv then
    exit (Split.worker_main ());
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--perfbench-daemon" then
    exit (Serve.daemon_main ())

let usage () =
  prerr_endline
    "usage: perfbench --workload suite|serve|split --seed N --seconds S --trace 0|1\n\
    \       perfbench --smoke";
  exit 2

let arg name =
  let rec find = function
    | f :: v :: _ when String.equal f name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let int_arg name ~default =
  match arg name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let run_workload (cfg : Config.t) ~workload ~seed ~seconds ~trace =
  let r = Report.create () in
  (* Only the latest run's traces are kept: a traced split run writes
     tens of MB. *)
  let root = Filename.concat "perfbench" "_out" in
  let out = Filename.concat root (Printf.sprintf "%s-s%d" workload seed) in
  rm_rf root;
  mkdir_p out;
  (match workload with
  | "suite" -> Suite.run cfg ~seed ~seconds ~trace ~out r
  | "serve" -> Serve.run cfg ~seed ~seconds ~trace ~out r
  | "split" -> Split.run cfg ~seed ~seconds ~trace ~out r
  | _ -> usage ());
  r

let () =
  if not (Sys.file_exists Config.path && Sys.file_exists "BENCHMARK.json") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  let cfg = Config.load () in
  if nproc () <> cfg.Config.nproc then
    Printf.printf "note: nproc is %d here, config.json records %d\n" (nproc ())
      cfg.Config.nproc;
  Inputs.ensure_models ~model_seed:cfg.Config.model_seed;
  if Array.exists (String.equal "--write-strata") Sys.argv then begin
    let s = cfg.Config.suite in
    let nets, policy =
      Inputs.load_models ~model_seed:cfg.Config.model_seed Datasets.Suite.network_names
    in
    Inputs.write_strata ~max_steps:s.Config.max_steps ~policy nets
      (Inputs.pool ~model_seed:cfg.Config.model_seed ~size:s.Config.pool_size);
    Inputs.write_digests ~model_seed:cfg.Config.model_seed ~pool_size:s.Config.pool_size;
    exit 0
  end;
  (try
     Inputs.check_digests ~model_seed:cfg.Config.model_seed
       ~pool_size:cfg.Config.suite.Config.pool_size
   with Failure msg ->
     prerr_endline ("perfbench: " ^ msg);
     exit 1);
  if Array.exists (String.equal "--smoke") Sys.argv then exit (Smoke.run cfg run_workload)
  else
    let workload = match arg "--workload" with Some w -> w | None -> usage () in
    let seed = int_arg "--seed" ~default:cfg.Config.seed in
    let seconds = float_of_int (int_arg "--seconds" ~default:30) in
    let trace = int_arg "--trace" ~default:0 = 1 in
    let r = run_workload cfg ~workload ~seed ~seconds ~trace in
    Report.print r ~trace;
    exit (if Report.correct r then 0 else 1)
