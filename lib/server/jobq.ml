(* A blocking, bounded, priority-aged fair-share queue.

   This replaced the plain FIFO when charon-serve went multi-tenant.
   Items are pushed into per-tenant *lanes* (FIFO within a lane) and
   popped by weighted fair queueing with aging:

   - Each lane carries a virtual time [vtime], advanced by [1/weight]
     per item served — stride scheduling, so a tenant with weight 2
     drains twice as fast as a weight-1 tenant under contention.
   - A lane (re)activating starts at the queue's virtual floor (the
     vtime of the most recently served lane), so an idle tenant
     resumes at the current service level: no monopolizing burst from
     a fresh lane, no penalty for having been idle.
   - [pop] picks the non-empty lane minimizing
     [vtime - aging_rate * head_wait]: the aging term grows linearly
     while a lane's head item waits, so *every* lane's score
     eventually undercuts the rest — no tenant starves, whatever the
     weights (the fairness property test_soak.ml measures as p95
     queue age).

   Pushing with the defaults (one implicit lane) degenerates to the
   old FIFO exactly, which is what the dverify coordinator's event
   mailbox and each worker's split mailbox use.  Capacity bounds the
   *total* queued items across lanes; [push] refuses with [`Busy] at
   the bound, which the scheduler turns into a structured, retryable
   backpressure reject.

   Blocking discipline is unchanged: [pop] waits until an item arrives
   or the queue closes, and [close] is the only way a consumer sees
   [None].  [wakeup] is signalled on push and broadcast on close. *)

type 'a lane = {
  tenant : string;
  mutable weight : float;
  mutable vtime : float;
  items : (float * 'a) Queue.t;  (* (enqueued_at, item) *)
}
[@@race.guarded_by "mutex"]

type 'a t = {
  mutex : Mutex.t;
  wakeup : Condition.t;
  lanes : (string, 'a lane) Hashtbl.t;
  order : string Queue.t;  (* lane creation order, for stable scans *)
  capacity : int;
  mutable vfloor : float;
  mutable total : int;
  mutable closed : bool;
}
[@@race.guarded_by "mutex"]

let default_tenant = "default"

(* vtime units a lane gains per second its head item waits. *)
let aging_rate = 0.05

let create ?(capacity = max_int) () =
  if capacity < 1 then invalid_arg "Jobq.create: capacity must be positive";
  {
    mutex = Mutex.create ();
    wakeup = Condition.create ();
    lanes = Hashtbl.create 8;
    order = Queue.create ();
    capacity;
    vfloor = 0.0;
    total = 0;
    closed = false;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let lane_of t tenant weight =
  match Hashtbl.find_opt t.lanes tenant with
  | Some lane ->
      lane.weight <- weight;
      if Queue.is_empty lane.items then
        (* Reactivation: catch up to the current service level. *)
        lane.vtime <- Float.max lane.vtime t.vfloor;
      lane
  | None ->
      let lane = { tenant; weight; vtime = t.vfloor; items = Queue.create () } in
      Hashtbl.replace t.lanes tenant lane;
      Queue.add tenant t.order;
      lane
[@@race.locked "mutex"]

let push ?(tenant = default_tenant) ?(weight = 1.0) t x =
  if not (Float.is_finite weight) || weight <= 0.0 then
    invalid_arg "Jobq.push: weight must be positive";
  with_lock t (fun () ->
      if t.closed then `Closed
      else if t.total >= t.capacity then `Busy
      else begin
        let lane = lane_of t tenant weight in
        Queue.add (Unix.gettimeofday (), x) lane.items;
        t.total <- t.total + 1;
        Condition.signal t.wakeup;
        `Queued
      end)

(* The winning lane: minimum [vtime - aging_rate * head_wait] over
   non-empty lanes, scanned in creation order (ties go to the older
   lane, keeping single-lane use bit-exact FIFO). *)
let select t ~now =
  let best = ref None in
  Queue.iter
    (fun tenant ->
      match Hashtbl.find_opt t.lanes tenant with
      | Some lane when not (Queue.is_empty lane.items) ->
          let enqueued, _ = Queue.peek lane.items in
          let score = lane.vtime -. (aging_rate *. (now -. enqueued)) in
          (match !best with
          | Some (s, _) when s <= score -> ()
          | _ -> best := Some (score, lane))
      | Some _ | None -> ())
    t.order;
  !best
[@@race.locked "mutex"]

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        if t.total > 0 then begin
          match select t ~now:(Unix.gettimeofday ()) with
          | Some (_, lane) ->
              let _, x = Queue.pop lane.items in
              t.total <- t.total - 1;
              lane.vtime <- lane.vtime +. (1.0 /. lane.weight);
              t.vfloor <- Float.max t.vfloor lane.vtime;
              Some x
          | None ->
              (* total > 0 guarantees a non-empty lane. *)
              assert false
        end
        else if t.closed then None
        else begin
          Condition.wait t.wakeup t.mutex;
          wait ()
        end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.wakeup)

let closed t = with_lock t (fun () -> t.closed)

let length t = with_lock t (fun () -> t.total)

let capacity t = t.capacity

let depths t =
  with_lock t (fun () ->
      let acc = ref [] in
      Queue.iter
        (fun tenant ->
          match Hashtbl.find_opt t.lanes tenant with
          | Some lane when not (Queue.is_empty lane.items) ->
              acc := (tenant, Queue.length lane.items) :: !acc
          | Some _ | None -> ())
        t.order;
      List.rev !acc)
