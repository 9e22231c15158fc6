(** Atomic counters and log2-bucketed histograms behind a global
    name-keyed registry.

    Handles are find-or-create by name, so libraries register their
    instruments at module toplevel ([let c = Metrics.counter "x.y"])
    and recording is wait-free: a single atomic RMW per event, one load
    and a branch when telemetry is disabled.  All histogram values are
    integers; by convention the verifier records nanoseconds (spans,
    queue waits) or counts (generators per layer). *)

type counter

type histogram

val counter : string -> counter
(** Find-or-create; idempotent and safe from any domain. *)

val histogram : string -> histogram

val incr : counter -> unit
(** No-op unless telemetry is enabled. *)

val add : counter -> int -> unit

val value : counter -> int
(** Current value — readable even when telemetry is disabled. *)

val observe : histogram -> int -> unit
(** Record one observation (negative values clamp to 0).  No-op unless
    telemetry is enabled. *)

type histogram_stats = {
  name : string;
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;  (** quantiles are bucket upper bounds: at most 2x high *)
  p90 : int;
  p99 : int;
}

val counters : unit -> (string * int) list
(** Non-zero counters, sorted by name.  This is the list bench harness
    runs embed in BENCH_*.json next to [wall_seconds]. *)

val histograms : unit -> histogram_stats list
(** Non-empty histograms, sorted by name. *)

val reset : unit -> unit
(** Zero every registered instrument (handles stay valid). *)

val summary_table : unit -> string
(** The aligned text table behind [charon --stats]. *)
