(** Benchmark execution: every tool on every property with a per-
    benchmark budget, producing the flat result records the figure
    generators aggregate. *)

type result = {
  tool : string;
  network : string;
  property : string;
  outcome : Common.Outcome.t;
  time : float;  (** seconds spent on this benchmark *)
}

val run_suite :
  ?progress:(result -> unit) ->
  ?jobs:int ->
  seed:int ->
  timeout:float ->
  Tool.t list ->
  (Datasets.Suite.entry * Common.Property.t list) list ->
  result list
(** Runs each tool on each benchmark.  Tools that do not support
    convolutional networks are recorded as [Unknown] with zero time on
    those, mirroring §7.2's exclusion.

    [jobs] (default 1) runs the independent (tool, network, property)
    instances on that many worker domains.  Results always come back in
    deterministic input order; [progress] calls are serialized, but fire
    in completion order when [jobs > 1]. *)

val by_tool : result list -> string -> result list

val by_network : result list -> string -> result list

val solved : result list -> result list

val networks : result list -> string list
(** Distinct network names in first-appearance order. *)

val to_csv : result list -> string
(** Flat CSV ([tool,network,property,outcome,time_seconds]) with a
    header row, for plotting with external tools. *)

val save_csv : string -> result list -> unit

val to_json :
  ?workers:int ->
  ?wall_seconds:float ->
  ?counters:(string * int) list ->
  result list ->
  string
(** JSON document with the per-instance rows plus the run configuration
    ([workers], default 1) and optional end-to-end [wall_seconds], so
    benchmark archives can track the parallel speedup trajectory.
    [counters] (typically [Telemetry.Metrics.counters ()]) embeds
    aggregate work-done metrics as a ["counters"] object, which
    [bin/benchdiff.exe] compares alongside the timings. *)

val save_json :
  ?workers:int ->
  ?wall_seconds:float ->
  ?counters:(string * int) list ->
  string ->
  result list ->
  unit

val consistency_errors : result list -> (string * string * string) list
(** Cross-tool disagreements: benchmarks where one tool verified and
    another refuted.  Returns [(property, tool_a, tool_b)] triples; an
    empty list is a global sanity check on all solvers. *)
