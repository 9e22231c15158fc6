(* A thread-safe priority work queue for divide-and-conquer draining.

   The queue tracks *outstanding* work — items queued plus items handed
   to a worker whose [finish] call is still pending — so [pop] can tell
   "momentarily empty, but a peer may still push children" (block) apart
   from "the whole work tree is drained" (return [None]).  The protocol
   for workers is strict:

     match pop q with
     | None -> exit                      (* drained or closed *)
     | Some x -> ... push children ...; finish q; loop

   [finish] must be called exactly once per popped item, after any
   children have been pushed; forgetting it deadlocks the drain, calling
   it before pushing children can end the drain early.

   Items are served lowest priority first (a min-heap guarded by a
   mutex/condition pair so any number of domains can share one queue).
   [close] ends the queue immediately: every blocked and future [pop]
   returns [None]; [leftovers] ends it and hands back what it still held.
   Built on OCaml 5 stdlib primitives only. *)

(* [wakeup] is signalled on push/done_one/close. *)
type 'a t = {
  mutex : Mutex.t;
  wakeup : Condition.t;
  mutable data : (float * 'a) array;  (* slots [0, size) are a min-heap *)
  mutable size : int;
  mutable outstanding : int;
  mutable closed : bool;
}
[@@race.guarded_by "mutex"]

let create () =
  {
    mutex = Mutex.create ();
    wakeup = Condition.create ();
    data = [||];
    size = 0;
    outstanding = 0;
    closed = false;
  }

(* Heap helpers; callers hold [mutex]. *)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp
[@@race.locked "mutex"]

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if fst t.data.(i) < fst t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end
[@@race.locked "mutex"]

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && fst t.data.(l) < fst t.data.(!smallest) then smallest := l;
  if r < t.size && fst t.data.(r) < fst t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end
[@@race.locked "mutex"]

let heap_push t entry =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let data = Array.make (Stdlib.max 8 (2 * cap)) entry in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)
[@@race.locked "mutex"]

let heap_pop t =
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  snd top
[@@race.locked "mutex"]

(* ------------------------------------------------------------------ *)

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let c_pushes = Telemetry.Metrics.counter "parallel.queue.pushes"

let c_pops = Telemetry.Metrics.counter "parallel.queue.pops"

(* Blocked time in [pop] — the per-worker idle/steal-wait signal the
   scheduling PRs tune against. *)
let h_wait = Telemetry.Metrics.histogram "parallel.queue.wait"

let push t ~priority x =
  with_lock t (fun () ->
      if not t.closed then begin
        heap_push t (priority, x);
        t.outstanding <- t.outstanding + 1;
        Telemetry.Metrics.incr c_pushes;
        Condition.signal t.wakeup
      end)

let pop t =
  with_lock t (fun () ->
      (* [wait_start] is set the first time this pop has to block, so
         the observed duration covers the whole idle stretch even
         across spurious wakeups.  Clock reads only happen on the
         blocking path and only with telemetry enabled. *)
      let wait_start = ref 0 in
      let waited = ref false in
      let rec wait () =
        if t.closed then None
        else if t.size > 0 then Some (heap_pop t)
        else if t.outstanding = 0 then None
        else begin
          if (not !waited) && Telemetry.enabled () then begin
            waited := true;
            wait_start := Telemetry.Trace.now_ns ()
          end;
          Condition.wait t.wakeup t.mutex;
          wait ()
        end
      in
      let result = wait () in
      if !waited then
        Telemetry.Metrics.observe h_wait
          (Telemetry.Trace.now_ns () - !wait_start);
      (match result with
      | Some _ -> Telemetry.Metrics.incr c_pops
      | None -> ());
      result)

let finish t =
  with_lock t (fun () ->
      t.outstanding <- t.outstanding - 1;
      if t.outstanding < 0 then
        invalid_arg "Wqueue.finish: more finishes than pops";
      (* Drained: wake every blocked popper so they can all return. *)
      if t.outstanding = 0 then Condition.broadcast t.wakeup)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.wakeup)

let leftovers t =
  close t;
  with_lock t (fun () ->
      let rec take acc =
        if t.size = 0 then List.rev acc else take (heap_pop t :: acc)
      in
      take [])

let closed t = with_lock t (fun () -> t.closed)

let outstanding t = with_lock t (fun () -> t.outstanding)

let size t = with_lock t (fun () -> t.size)
