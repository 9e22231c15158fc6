(* A fixed-size pool of OCaml 5 domains.

   [run ~workers f] executes [f 0], ..., [f (workers - 1)], one call per
   domain, with the calling domain serving as worker 0, and returns once
   every worker has finished.  With [workers <= 1] no domain is spawned
   at all — the sequential path stays exactly the caller's code.

   Exceptions: if any worker raises, the first exception (worker 0's
   first, then spawn order) is re-raised in the caller after all domains
   have been joined, so no domain is ever leaked. *)

let run ~workers f =
  if workers <= 1 then f 0
  else begin
    (* Each worker body runs under a telemetry span and flushes its
       domain-local trace buffer on the way out — a spawned domain dies
       with the pool, so this is its only chance to drain. *)
    let instrumented i =
      Fun.protect ~finally:Telemetry.Trace.flush_local (fun () ->
          Telemetry.Span.wrap "parallel.worker"
            ~attrs:(fun () -> [ ("worker", Telemetry.Jsonw.Int i) ])
            (fun () -> f i))
    in
    let spawned =
      Array.init (workers - 1) (fun i ->
          Domain.spawn (fun () -> instrumented (i + 1)))
    in
    let caller_result =
      match instrumented 0 with () -> Ok () | exception e -> Error e
    in
    let join_results =
      Array.map
        (fun d -> match Domain.join d with () -> Ok () | exception e -> Error e)
        spawned
    in
    match caller_result with
    | Error e -> raise e
    | Ok () ->
        Array.iter
          (function Error e -> raise e | Ok () -> ())
          join_results
  end

(* [iter ~workers n f] applies [f] to every index in [0, n), sharing the
   indices across at most [workers] domains via an atomic cursor.  Each
   index is processed exactly once; the assignment of indices to workers
   is nondeterministic, so [f] must only write worker-private or
   per-index state. *)
let c_tasks = Telemetry.Metrics.counter "parallel.tasks"

let iter ~workers n f =
  if n <= 0 then ()
  else if workers <= 1 || n = 1 then
    for i = 0 to n - 1 do
      Telemetry.Metrics.incr c_tasks;
      f i
    done
  else begin
    let next = Atomic.make 0 in
    run
      ~workers:(Stdlib.min workers n)
      (fun _ ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            Telemetry.Metrics.incr c_tasks;
            f i;
            loop ()
          end
        in
        loop ())
  end
