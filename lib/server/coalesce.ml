(* In-flight request coalescing for charon-serve.

   Identical hard problems arrive in bursts (duplicated queries are
   the common case in fleet traffic), and the verdict cache only helps
   once the *first* run finishes.  This index closes the gap: it maps
   the problem key (the verdict-cache MD5) of every run currently
   queued or executing to that run's id, so a duplicate submit
   attaches to the existing run as a *follower* instead of queueing a
   second identical verification.  When the run settles, every
   attached job receives the verdict.

   Domain-safe behind its own mutex.  The scheduler calls in with its
   own lock held; the nesting is always scheduler -> coalesce, never
   the reverse, so the order cannot deadlock. *)

type t = {
  mutex : Mutex.t;
  inflight : (string, int) Hashtbl.t;  (* problem key -> run id *)
  mutable coalesced_total : int;  (* followers ever attached *)
  mutable peak_inflight : int;  (* high-water of distinct keys *)
}
[@@race.guarded_by "mutex"]

let c_coalesced = Telemetry.Metrics.counter "serve.coalesced"

let create () =
  {
    mutex = Mutex.create ();
    inflight = Hashtbl.create 64;
    coalesced_total = 0;
    peak_inflight = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key = with_lock t (fun () -> Hashtbl.find_opt t.inflight key)

let register t key rid =
  with_lock t (fun () ->
      Hashtbl.replace t.inflight key rid;
      let n = Hashtbl.length t.inflight in
      if n > t.peak_inflight then t.peak_inflight <- n)

let attached t =
  with_lock t (fun () -> t.coalesced_total <- t.coalesced_total + 1);
  Telemetry.Metrics.incr c_coalesced

(* Only while [key] still maps to [rid]: a cancelled run settles after
   a newer run for the same question has registered, and must not
   orphan it. *)
let finish t key rid =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some r when r = rid -> Hashtbl.remove t.inflight key
      | Some _ | None -> ())

let inflight_keys t = with_lock t (fun () -> Hashtbl.length t.inflight)

let coalesced_total t = with_lock t (fun () -> t.coalesced_total)

let peak_inflight t = with_lock t (fun () -> t.peak_inflight)
