(* Reading a telemetry JSONL trace into a per-layer ledger.

   A span's self time is its duration minus the durations of its direct
   children.  Children always close before their parent on the same
   domain, and each domain's events reach the file in order, so one pass
   that parks child time under the (worker, parent id) key settles every
   span's self time when the parent's line arrives. *)

open Util

type t = {
  total_ns : (string, float) Hashtbl.t;  (** summed durations, by span name *)
  self_ns : (string, float) Hashtbl.t;  (** summed self times, by span name *)
  spans : (string, int) Hashtbl.t;  (** span count, by name *)
  layer_ns : (string, float) Hashtbl.t;
      (** [absint.layer] durations by the layer kind attribute *)
  counters : (string, int) Hashtbl.t;  (** final counter values *)
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let empty () =
  {
    total_ns = Hashtbl.create 16;
    self_ns = Hashtbl.create 16;
    spans = Hashtbl.create 16;
    layer_ns = Hashtbl.create 8;
    counters = Hashtbl.create 32;
  }

let read ?(into = empty ()) path =
  let l = into in
  let pending = Hashtbl.create 1024 in
  let ival name ev = Option.bind (J.member name ev) J.to_int_opt in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some "" -> loop ()
        | Some line ->
            let ev = J.parse line in
            let name = Option.value ~default:"" (Option.bind (J.member "name" ev) J.to_string_opt) in
            (match Option.bind (J.member "kind" ev) J.to_string_opt with
            | Some "span" ->
                let worker = Option.value ~default:0 (ival "worker" ev) in
                let id = Option.value ~default:0 (ival "id" ev) in
                let dur = float_of_int (Option.value ~default:0 (ival "dur" ev)) in
                let child =
                  Option.value ~default:0.0 (Hashtbl.find_opt pending (worker, id))
                in
                Hashtbl.remove pending (worker, id);
                add l.total_ns name dur;
                add l.self_ns name (dur -. child);
                Hashtbl.replace l.spans name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt l.spans name));
                (if String.equal name "absint.layer" then
                   match
                     Option.bind (J.member "attrs" ev) (fun a ->
                         Option.bind (J.member "layer" a) J.to_string_opt)
                   with
                   | Some kind -> add l.layer_ns kind dur
                   | None -> ());
                Option.iter
                  (fun p -> add pending (worker, p) dur)
                  (ival "parent" ev)
            | Some "counter" ->
                Hashtbl.replace l.counters name
                  (Option.value ~default:0 (ival "value" ev)
                  + Option.value ~default:0 (Hashtbl.find_opt l.counters name))
            | Some _ | None -> ());
            loop ()
      in
      loop ());
  l

let total l name = Option.value ~default:0.0 (Hashtbl.find_opt l.total_ns name)
let self l name = Option.value ~default:0.0 (Hashtbl.find_opt l.self_ns name)
let spans l name = Option.value ~default:0 (Hashtbl.find_opt l.spans name)
let counter l name = Option.value ~default:0 (Hashtbl.find_opt l.counters name)
let layer l kind = Option.value ~default:0.0 (Hashtbl.find_opt l.layer_ns kind)

(* The verifier's phases inside [verify.run]: PGD, the abstract
   interpreter, and the search's own self time (policy, features,
   split, bookkeeping).  They add back to [verify.run]'s total. *)
let pgd_ns l = total l "optim.pgd"
let absint_ns l = total l "absint.layer"
let verify_self_ns l = self l "verify.run" +. self l "verify.region"
