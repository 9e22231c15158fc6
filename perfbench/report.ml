(* What one run measured and checked, and how it is printed: a
   human-readable block of every metric with its unit, then, as the last
   line of stdout, the JSON object whose [metrics] are exactly the
   names BENCHMARK.json lists for the mode (end-to-end untraced,
   per-layer traced). *)

open Util

type metric = { name : string; value : float; unit : string }

type t = {
  mutable e2e : metric list;
  mutable layer : metric list;
  mutable attempted : int;
  mutable failures : string list;  (** "problem: reason", newest first *)
  mutable checks : (string * bool * string) list;
}

let create () = { e2e = []; layer = []; attempted = 0; failures = []; checks = [] }

let e2e r name unit value = r.e2e <- { name; value; unit } :: r.e2e
let layer r name unit value = r.layer <- { name; value; unit } :: r.layer
let attempt r = r.attempted <- r.attempted + 1
let fail r ~problem reason = r.failures <- (problem ^ ": " ^ reason) :: r.failures

let gate r ~problem = function
  | None -> ()
  | Some reason -> fail r ~problem reason

let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks

let failed r = List.length r.failures

let correct r =
  r.failures = [] && List.for_all (fun (_, ok, _) -> ok) r.checks

(* The metric list BENCHMARK.json declares for a mode. *)
let declared ~trace =
  let doc = J.parse (read_file "BENCHMARK.json") in
  list_field (if trace then "per_layer" else "end_to_end") doc
  |> List.map (fun m -> (string_field "name" m, string_field "unit" m))

let print r ~trace =
  let line m = Printf.printf "  %-44s %14.6g %s\n" m.name m.value m.unit in
  Printf.printf "end-to-end metrics:\n";
  List.iter line (List.rev r.e2e);
  line
    {
      name = "fail_share";
      value = share (float_of_int (failed r)) (float_of_int (max 1 r.attempted));
      unit = "share";
    };
  if r.layer <> [] then begin
    Printf.printf "per-layer metrics:\n";
    List.iter line (List.rev r.layer)
  end;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "check %-28s %s  %s\n" name (if ok then "ok" else "FAILED") detail)
    (List.rev r.checks);
  List.iter (Printf.printf "FAILURE %s\n") (List.rev r.failures);
  let have = if trace then r.layer else r.e2e in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun m -> String.equal m.name name) have with
        | Some m when String.equal m.unit unit -> (name, m.value)
        | Some m -> Util.fail "metric %s measured in %s, declared in %s" name m.unit unit
        | None when trace -> (name, 0.0)
        | None -> Util.fail "end-to-end metric %s was not measured" name)
      (declared ~trace)
  in
  (* Rendered by hand so every value keeps all 17 significant digits. *)
  let units = declared ~trace in
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct r) (max 1 r.attempted) (failed r)
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
              (List.assoc name units))
          metrics))
