(* The persistent verdict store behind the charon-serve LRU.

   The in-memory verdict cache answers repeats fast but forgets on
   restart; this store is the durable layer underneath it.  Same
   journal discipline as Charon.Proofcache: an append-only JSONL file,
   one verdict per line, appended and flushed as jobs solve new
   problems and replayed on [create].  Unparseable or torn lines are
   skipped on load, so a crash mid-append can lose at most the final
   fact, never poison a restart.

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
   mutex over table and journal. *)

module J = Telemetry.Jsonw

let c_loaded = Telemetry.Metrics.counter "serve.store.loaded"

let c_appended = Telemetry.Metrics.counter "serve.store.appended"

let c_hits = Telemetry.Metrics.counter "serve.store.hits"

type t = {
  mutex : Mutex.t;
  table : (string, Common.Outcome.t * float) Hashtbl.t;
  mutable journal : out_channel option;
  path : string;
  loaded : int;
  mutable appended : int;
  mutable hits : int;
}
[@@race.guarded_by "mutex"]

let journal_line key outcome ~cold_wall =
  J.to_string
    (J.Obj
       [
         ("v", J.Int 1);
         ("key", J.Str key);
         ("cold_wall", J.Float cold_wall);
         ("verdict", Protocol.outcome_to_json outcome);
       ])

(* A line only counts when it parses end to end, carries the v:1 tag,
   and its verdict decodes; anything else — torn tail, garbage, a
   future format — is skipped, not fatal. *)
let parse_journal_line line =
  match J.parse line with
  | exception J.Parse_error _ -> None
  | json -> (
      match (J.member "v" json, J.member "key" json, J.member "verdict" json)
      with
      | Some (J.Int 1), Some (J.Str key), Some verdict -> (
          match Protocol.outcome_of_json verdict with
          | outcome ->
              let cold_wall =
                Option.value ~default:0.0
                  (Option.bind (J.member "cold_wall" json) J.to_float_opt)
              in
              Some (key, outcome, cold_wall)
          | exception Protocol.Bad_request _ -> None)
      | _ -> None)

let load_journal table path =
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (try
           while true do
             match parse_journal_line (input_line ic) with
             | Some (key, outcome, cold_wall) ->
                 (* First record wins, as in [record]: a verdict is a
                    fact, so a duplicate line (e.g. an eviction race
                    that appended twice) never replaces it. *)
                 if not (Hashtbl.mem table key) then
                   Hashtbl.replace table key (outcome, cold_wall)
             | None -> ()
           done
         with End_of_file -> ());
        Hashtbl.length table)
  end
  else 0

let create ~path () =
  let table = Hashtbl.create 1024 in
  let loaded = load_journal table path in
  Telemetry.Metrics.add c_loaded loaded;
  let journal = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  {
    mutex = Mutex.create ();
    table;
    journal = Some journal;
    path;
    loaded;
    appended = 0;
    hits = 0;
  }

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
        match t.journal with
        | None -> ()
        | Some oc ->
            output_string oc (journal_line key outcome ~cold_wall);
            output_char oc '\n';
            flush oc
      end)

let close t =
  with_lock t (fun () ->
      match t.journal with
      | Some oc ->
          t.journal <- None;
          close_out_noerr oc
      | None -> ())

let path t = t.path

let loaded t = t.loaded

type stats = { entries : int; loaded : int; appended : int; hits : int }

let stats t =
  with_lock t (fun () ->
      {
        entries = Hashtbl.length t.table;
        loaded = t.loaded;
        appended = t.appended;
        hits = t.hits;
      })
