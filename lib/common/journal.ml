(* The append-only JSONL journal shared by the subregion proof cache
   and the serve verdict store.  The replay rule is stated in
   journal.mli; docs/serving.md ("Journals") describes it for users.

   The torn-tail repair matters because writers reopen in append mode:
   after a crash leaves a last line with no newline, the first fact
   appended after the restart would otherwise join that fragment and be
   dropped by the next replay.  The repair only ever appends a newline,
   so a concurrent writer in another process loses nothing; at worst
   two openers both repair and leave an empty line, which replay
   skips. *)

module J = Telemetry.Jsonw

type t = {
  mutex : Mutex.t;
  mutable oc : out_channel option;
  path : string;
  loaded : int;
}
[@@race.guarded_by "mutex"]

let decode_line decode line =
  match J.parse line with
  | exception J.Parse_error _ -> None
  | json -> (
      match J.member "v" json with Some (J.Int 1) -> decode json | _ -> None)

(* Replays the newline-terminated lines of [text]; returns the number
   of distinct keys and whether [text] ends in a torn line. *)
let replay_text ~decode ~replay text =
  let seen = Hashtbl.create 1024 in
  let rec go start =
    match String.index_from_opt text start '\n' with
    | None -> start < String.length text
    | Some stop ->
        (match decode_line decode (String.sub text start (stop - start)) with
        | Some (key, v) when not (Hashtbl.mem seen key) ->
            Hashtbl.add seen key ();
            replay key v
        | Some _ | None -> ());
        go (stop + 1)
  in
  let torn = go 0 in
  (Hashtbl.length seen, torn)

let create ~path ~decode ~replay =
  let loaded, torn =
    if Sys.file_exists path then
      replay_text ~decode ~replay
        (In_channel.with_open_bin path In_channel.input_all)
    else (0, false)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if torn then begin
    output_char oc '\n';
    flush oc
  end;
  { mutex = Mutex.create (); oc = Some oc; path; loaded }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let append t fields =
  let line = J.to_string (J.Obj (("v", J.Int 1) :: fields)) in
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc)

let loaded t = t.loaded

let path t = t.path

let close t =
  with_lock t (fun () ->
      Option.iter close_out_noerr t.oc;
      t.oc <- None)
