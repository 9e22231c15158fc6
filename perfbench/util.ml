(* Small helpers shared by the workloads: clocks, order statistics,
   files, process memory, and JSON field access. *)

module J = Telemetry.Jsonw

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let fail fmt = Printf.ksprintf failwith fmt

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile of a handful of samples is still a measured value. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float (Float.floor pos) in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The benchmark's own draws use the standard library's generator, so
   the problems and the schedule a seed gives never depend on the
   program being measured. *)
let rng ~seed ~stream = Random.State.make [| seed; stream |]

let uniform rng ~lo ~hi = lo +. Random.State.float rng (hi -. lo)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let sum xs = List.fold_left ( +. ) 0.0 xs

let share num den = if den > 0.0 then num /. den else 0.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Write-then-rename, so a reader never sees a half-written cache file. *)
let write_file path contents =
  let tmp = Printf.sprintf "%s.tmp%d" path (Unix.getpid ()) in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
  Sys.rename tmp path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

(* High-water resident set of this process in MB, from /proc (VmHWM). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

let nproc () =
  match Domain.recommended_domain_count () with n when n >= 1 -> n | _ -> 1

(* --- JSON field access, failing loudly on a malformed document --- *)

let field name doc =
  match J.member name doc with
  | Some v -> v
  | None -> fail "missing JSON field %S" name

let int_field name doc =
  match J.to_int_opt (field name doc) with
  | Some v -> v
  | None -> fail "JSON field %S is not an integer" name

let float_field name doc =
  match J.to_float_opt (field name doc) with
  | Some v -> v
  | None -> fail "JSON field %S is not a number" name

let string_field name doc =
  match J.to_string_opt (field name doc) with
  | Some v -> v
  | None -> fail "JSON field %S is not a string" name

let list_field name doc =
  match field name doc with J.Arr l -> l | _ -> fail "%S is not a list" name
