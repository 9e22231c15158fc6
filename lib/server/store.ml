(* The persistent verdict store behind the charon-serve LRU.

   The in-memory verdict cache answers repeats fast but forgets on
   restart; this store is the durable layer underneath it.  Like
   Charon.Proofcache it persists through a Common.Journal: one verdict
   per line, appended and flushed as jobs solve new problems and
   replayed on [create] under the journal's replay rule, so a crash
   mid-append can lose at most the final fact, never poison a restart.

   One line per fact:

     {"v":1,"key":"<hex>","cold_wall":1.23,
      "verdict":{"verdict":"verified"}}

   The verdict object is Protocol's outcome encoding, so falsified
   entries carry their bit-exact (%.17g) witness and a restart serves
   back the very counterexample the cold run found.  Only *solved*
   verdicts belong here — callers enforce that, same as for the LRU.

   Unlike the LRU, the store keeps every fact in memory (a hash table,
   not a recency list): it is the system of record the LRU is a hot
   set of, and a verdict is a few hundred bytes.  Domain-safe: one
   mutex over the table and the tallies; appends happen under it, so
   the journal's own lock nests inside and is never contended. *)

module J = Telemetry.Jsonw

let c_loaded = Telemetry.Metrics.counter "serve.store.loaded"

let c_appended = Telemetry.Metrics.counter "serve.store.appended"

let c_hits = Telemetry.Metrics.counter "serve.store.hits"

type t = {
  mutex : Mutex.t;
  table : (string, Common.Outcome.t * float) Hashtbl.t;
  journal : Common.Journal.t;
  mutable appended : int;
  mutable hits : int;
}
[@@race.guarded_by "mutex"]

(* The line codec: the journal adds the v:1 tag and applies the replay
   rule; a line whose verdict does not decode is skipped like a torn
   one. *)
let fields key outcome ~cold_wall =
  [
    ("key", J.Str key);
    ("cold_wall", J.Float cold_wall);
    ("verdict", Protocol.outcome_to_json outcome);
  ]

let decode json =
  match (J.member "key" json, J.member "verdict" json) with
  | Some (J.Str key), Some verdict -> (
      match Protocol.outcome_of_json verdict with
      | outcome ->
          let cold_wall =
            Option.value ~default:0.0
              (Option.bind (J.member "cold_wall" json) J.to_float_opt)
          in
          Some (key, (outcome, cold_wall))
      | exception Protocol.Bad_request _ -> None)
  | _ -> None

let create ~path () =
  let table = Hashtbl.create 1024 in
  let journal =
    Common.Journal.create ~path ~decode ~replay:(Hashtbl.replace table)
  in
  Telemetry.Metrics.add c_loaded (Common.Journal.loaded journal);
  { mutex = Mutex.create (); table; journal; appended = 0; hits = 0 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some v ->
          t.hits <- t.hits + 1;
          Telemetry.Metrics.incr c_hits;
          Some v
      | None -> None)

let record t key outcome ~cold_wall =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        Hashtbl.replace t.table key (outcome, cold_wall);
        t.appended <- t.appended + 1;
        Telemetry.Metrics.incr c_appended;
        Common.Journal.append t.journal (fields key outcome ~cold_wall)
      end)

let close t = Common.Journal.close t.journal

let path t = Common.Journal.path t.journal

let loaded t = Common.Journal.loaded t.journal

type stats = { entries : int; loaded : int; appended : int; hits : int }

let stats t =
  with_lock t (fun () ->
      {
        entries = Hashtbl.length t.table;
        loaded = loaded t;
        appended = t.appended;
        hits = t.hits;
      })
