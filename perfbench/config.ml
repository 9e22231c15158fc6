(* The benchmark's recorded configuration, perfbench/config.json. *)

open Util

type suite = {
  per_network : int;  (** properties per network in one slice *)
  pool_size : int;  (** pool candidates per network *)
  max_steps : int;  (** per-property transformer-step budget *)
  latency_limit_ms : float;
}

type serve = {
  rate_rps : float;
  cache_capacity : int;  (** verdict LRU size; older repeats reach the store *)
  serve_steps : int;  (** [max_steps] carried by every job *)
  serve_latency_limit_ms : float;
  cold_share : float;
  repeat_share : float;
  duplicate_share : float;
  shifted_share : float;  (** the four shares sum to 1 *)
  shift_share : float;  (** shift, as a share of the box width *)
  deadline_s : float;  (** client deadline for the last verdict *)
}

type split = {
  inproc_dim : int;  (** staircase input dimension of in-process solves *)
  dverify_dim : int;  (** ... and of dverify solves *)
  dverify_per_inproc : int;  (** dverify solves per in-process solve *)
  split_latency_limit_ms : float;
}

type t = {
  nproc : int;  (** the worker count of every workload that has one *)
  model_seed : int;
  seed : int;
  heldout_seed : int;
  attack_samples : int;
  setup_repeats : int;
  reconcile_tolerance : float;
  suite : suite;
  serve : serve;
  split : split;
}

let path = Filename.concat "perfbench" "config.json"

let load () =
  let doc = J.parse (read_file path) in
  let s = field "suite" doc and v = field "serve" doc and p = field "split" doc in
  let mix = field "mix" v in
  let share name =
    match J.to_float_opt (field name mix) with
    | Some f when f >= 0.0 -> f
    | Some _ | None -> fail "serve mix share %S is not a non-negative number" name
  in
  let shares = List.map share [ "cold"; "repeat"; "duplicate"; "shifted" ] in
  if Float.abs (sum shares -. 1.0) > 1e-9 then fail "%s: the serve mix does not sum to 1" path;
  {
    nproc = int_field "nproc" doc;
    model_seed = int_field "model_seed" doc;
    seed = int_field "seed" doc;
    heldout_seed = int_field "heldout_seed" doc;
    attack_samples = int_field "attack_samples" doc;
    setup_repeats = int_field "setup_repeats" doc;
    reconcile_tolerance = float_field "reconcile_tolerance" doc;
    suite =
      {
        per_network = int_field "per_network" s;
        pool_size = int_field "pool_size" s;
        max_steps = int_field "max_steps" s;
        latency_limit_ms = float_field "latency_limit_ms" s;
      };
    serve =
      {
        rate_rps = float_field "rate_rps" v;
        cache_capacity = int_field "cache_capacity" v;
        serve_steps = int_field "max_steps" v;
        serve_latency_limit_ms = float_field "latency_limit_ms" v;
        cold_share = share "cold";
        repeat_share = share "repeat";
        duplicate_share = share "duplicate";
        shifted_share = share "shifted";
        shift_share = float_field "shift_share" v;
        deadline_s = float_field "deadline_s" v;
      };
    split =
      {
        inproc_dim = int_field "inproc_dim" p;
        dverify_dim = int_field "dverify_dim" p;
        dverify_per_inproc = int_field "dverify_per_inproc" p;
        split_latency_limit_ms = float_field "latency_limit_ms" p;
      };
  }
