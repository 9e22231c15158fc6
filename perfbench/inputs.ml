(* Input generation, cached under perfbench/_cache.

   The model seed (config.json) trains the seven suite networks, learns
   the verification policy and draws a pool of candidate properties;
   training and learning take ~25 s, so they run once per checkout.  The
   run seed (--seed) draws everything else: which pool problems a run
   verifies, the serve schedule and the random attack samples of the
   verdict gates.  Each run's draw is written under the seed's cache
   directory. *)

open Util

let cache_root = Filename.concat "perfbench" "_cache"

let models_dir ~model_seed =
  Filename.concat cache_root (Printf.sprintf "models-s%d" model_seed)

let net_path ~model_seed name =
  Filename.concat (models_dir ~model_seed) (name ^ ".net")

let policy_path ~model_seed =
  Filename.concat (models_dir ~model_seed) "policy.txt"

let seed_dir seed = Filename.concat cache_root (Printf.sprintf "seed-%d" seed)

let dense_names =
  List.filter
    (fun n -> not (String.equal n "conv-lenet"))
    Datasets.Suite.network_names

(* Train the networks and learn the policy into a private directory,
   then publish it with one rename: a run killed half-way leaves no
   partial model set behind. *)
let ensure_models ~model_seed =
  let dir = models_dir ~model_seed in
  if not (Sys.file_exists dir) then begin
    mkdir_p cache_root;
    let tmp = Printf.sprintf "%s.tmp%d" dir (Unix.getpid ()) in
    rm_rf tmp;
    mkdir_p tmp;
    Printf.eprintf "perfbench: training suite networks (model seed %d)...\n%!"
      model_seed;
    ignore (Datasets.Suite.build ~cache_dir:tmp ~seed:model_seed ());
    Printf.eprintf "perfbench: learning the verification policy...\n%!";
    ignore
      (Experiments.Training.learned_policy
         ~cache:(Filename.concat tmp "policy.txt")
         ~seed:model_seed ());
    try Sys.rename tmp dir with Sys_error _ when Sys.file_exists dir -> rm_rf tmp
  end

(* Suite entries for property generation (loads the cached nets). *)
let entries ~model_seed =
  ensure_models ~model_seed;
  Datasets.Suite.build ~cache_dir:(models_dir ~model_seed) ~seed:model_seed ()

(* The program's set-up on generated inputs: parse every network file
   and load the policy.  Returns the parsed networks by name. *)
let load_models ~model_seed names =
  let nets =
    List.map
      (fun name ->
        ( name,
          Telemetry.Span.wrap "bench.nn.parse" (fun () ->
              Nn.Serial.of_string (read_file (net_path ~model_seed name))) ))
      names
  in
  let policy =
    Telemetry.Span.wrap "bench.core.policy_load" (fun () ->
        Charon.Policy.load (policy_path ~model_seed))
  in
  (nets, policy)

(* --- The suite's property pool ---

   [size] candidates per network, drawn once from the model seed.  A
   candidate keeps its own PGD stream, so its sequential verdict and
   node count are fixed facts of the program. *)

type candidate = {
  index : int;  (** position in the pool *)
  net : string;
  prop : Common.Property.t;
  rng_seed : int;
}

let verify_candidate ~max_steps ~policy net c =
  Charon.Verify.run
    ~budget:(Common.Budget.of_steps max_steps)
    ~rng:(Linalg.Rng.create c.rng_seed) ~policy net c.prop

let pool_file size = Printf.sprintf "pool-%d.props" size

let pool ~model_seed ~size =
  let path = Filename.concat (models_dir ~model_seed) (pool_file size) in
  if not (Sys.file_exists path) then begin
    let records =
      List.concat_map
        (fun e ->
          Datasets.Suite.properties ~seed:model_seed e ~count:size
          |> List.map (fun property ->
                 { Common.Propfile.property; network = Some e.Datasets.Suite.name }))
        (entries ~model_seed)
    in
    write_file path (Common.Propfile.print records)
  end;
  Common.Propfile.load path
  |> List.mapi (fun index (r : Common.Propfile.entry) ->
         {
           index;
           net = Option.get r.Common.Propfile.network;
           prop = r.Common.Propfile.property;
           rng_seed = (model_seed * 100_003) + index;
         })

(* --- Strata ---

   perfbench/strata.txt records, for every pool candidate, the class of
   its sequential verdict at the suite's step budget: decided at the
   root or deeper, and verified, falsified or capped.  It was written
   once (--write-strata) and is committed, so the problems a seed draws
   never depend on the program being measured. *)

let strata_path = Filename.concat "perfbench" "strata.txt"

let write_strata ~max_steps ~policy nets candidates =
  let line c =
    let rep = verify_candidate ~max_steps ~policy (List.assoc c.net nets) c in
    Printf.sprintf "%d %s %s-%s %d" c.index c.net
      (if rep.Charon.Verify.nodes = 1 then "root" else "deep")
      (Common.Outcome.label rep.Charon.Verify.outcome)
      rep.Charon.Verify.nodes
  in
  write_file strata_path (String.concat "" (List.map (fun c -> line c ^ "\n") candidates))

(* --- The recorded inputs ---

   The networks, the policy and the pool are made by the program
   (training, policy learning, property generation) from the model
   seed.  perfbench/inputs.md5 records their digests as first made,
   next to strata.txt.  A checkout whose program makes different inputs
   stops before measuring, so two commits are never compared on
   different problems, and strata.txt never describes another pool. *)

let digest_path = Filename.concat "perfbench" "inputs.md5"

let digests ~model_seed ~pool_size =
  ignore (pool ~model_seed ~size:pool_size);
  List.map
    (fun f -> (f, Digest.to_hex (Digest.file (Filename.concat (models_dir ~model_seed) f))))
    (List.map (fun n -> n ^ ".net") Datasets.Suite.network_names
    @ [ "policy.txt"; pool_file pool_size ])

let write_digests ~model_seed ~pool_size =
  write_file digest_path
    (String.concat ""
       (List.map
          (fun (f, d) -> Printf.sprintf "%s  %s\n" d f)
          (digests ~model_seed ~pool_size)))

let check_digests ~model_seed ~pool_size =
  let recorded =
    String.split_on_char '\n' (read_file digest_path)
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l |> List.filter (( <> ) "") with
           | [ d; f ] -> Some (f, d)
           | _ -> None)
  in
  let differ =
    List.filter
      (fun (f, d) -> not (List.assoc_opt f recorded = Some d))
      (digests ~model_seed ~pool_size)
  in
  if differ <> [] then
    fail
      "the inputs made from model seed %d in %s differ from those recorded in %s (%s): \
       this program trains, learns or draws them differently, so its results are not \
       comparable with the recorded baseline.  To adopt the new inputs on purpose, \
       rerun with --write-strata and commit strata.txt and inputs.md5."
      model_seed (models_dir ~model_seed) digest_path
      (String.concat ", " (List.map fst differ))

(* Stratum of each pool index: its verdict class at its node count. *)
let load_strata () =
  let tbl = Hashtbl.create 512 in
  String.split_on_char '\n' (read_file strata_path)
  |> List.iter (fun l ->
         if l <> "" then
           Scanf.sscanf l "%d %s %s %d" (fun i net cls nodes ->
               Hashtbl.replace tbl i (net, Printf.sprintf "%s-%d" cls nodes)));
  tbl

(* A hard problem is not decided at the root: its search splits. *)
let hard =
  let strata = lazy (load_strata ()) in
  fun c ->
    match Hashtbl.find_opt (Lazy.force strata) c.index with
    | Some (_, key) -> String.length key >= 4 && String.sub key 0 4 = "deep"
    | None -> false

(* One draw of [per_network] candidates per named network.  Each
   network's slots are shared among its strata by largest remainder, so
   every seed draws the same number of problems from each stratum and
   only the members differ: seeds change the problems but not their cost
   profile. *)
let draw ~seed ~per_network names candidates =
  let strata = load_strata () in
  let stratum c =
    match Hashtbl.find_opt strata c.index with
    | Some (net, key) when String.equal net c.net -> key
    | Some _ | None -> fail "%s does not match pool candidate %d" strata_path c.index
  in
  let rng = rng ~seed ~stream:7919 in
  List.concat_map
    (fun name ->
      let mine = List.filter (fun c -> String.equal c.net name) candidates in
      let groups =
        List.sort_uniq String.compare (List.map stratum mine)
        |> List.map (fun key ->
               let members = Array.of_list (List.filter (fun c -> stratum c = key) mine) in
               let quota =
                 float_of_int (per_network * Array.length members)
                 /. float_of_int (List.length mine)
               in
               (key, members, quota))
      in
      let base = List.map (fun (_, _, q) -> int_of_float q) groups in
      let spare = per_network - List.fold_left ( + ) 0 base in
      let extra =
        List.mapi (fun i (key, _, q) -> (q -. Float.of_int (int_of_float q), key, i)) groups
        |> List.sort (fun a b -> compare b a)
        |> List.filteri (fun j _ -> j < spare)
        |> List.map (fun (_, _, i) -> i)
      in
      List.concat
        (List.mapi
           (fun i (_, members, _) ->
             let k = List.nth base i + if List.mem i extra then 1 else 0 in
             let m = float_of_int (Array.length members) in
             (* Systematic sampling: one member from each of k equal runs. *)
             List.init k (fun j ->
                 let pos = (float_of_int j +. Random.State.float rng 1.0) *. m /. float_of_int k in
                 members.(min (Array.length members - 1) (int_of_float pos))))
           groups))
    names

(* Record a seed's drawn problems under the seed's cache directory. *)
let record_draw ~seed ~tag candidates =
  let dir = seed_dir seed in
  mkdir_p dir;
  write_file
    (Filename.concat dir (tag ^ ".props"))
    (Common.Propfile.print
       (List.map
          (fun c -> { Common.Propfile.property = c.prop; network = Some c.net })
          candidates))
