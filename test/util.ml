(* Shared helpers for the test suites: random structure generators and
   common checks.  Linked into every test executable in this directory. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_vec ?(eps = 1e-9) msg expected actual =
  if not (Vec.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg
      (Format.asprintf "%a" Vec.pp expected)
      (Format.asprintf "%a" Vec.pp actual)

let check_true msg b = Alcotest.(check bool) msg true b

(* A random dense ReLU network with the given layer sizes. *)
let random_dense rng sizes = Nn.Init.dense rng ~layer_sizes:sizes

(* A random small network: 2-4 inputs, one or two hidden layers, 2-3
   classes.  Small enough for exhaustive-ish sampling checks. *)
let small_net rng =
  let inputs = 2 + Rng.int rng 3 in
  let classes = 2 + Rng.int rng 2 in
  let hidden = 3 + Rng.int rng 5 in
  let sizes =
    if Rng.bool rng then [ inputs; hidden; classes ]
    else [ inputs; hidden; hidden; classes ]
  in
  random_dense rng sizes

(* A random box around the origin with sides in (0, 1]. *)
let small_box rng dim =
  let center = Vec.init dim (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let lo = Vec.init dim (fun i -> center.(i) -. Rng.float rng 0.5) in
  let hi = Vec.init dim (fun i -> center.(i) +. (0.01 +. Rng.float rng 0.5)) in
  Domains.Box.create ~lo ~hi

(* A random small network and a robustness property just inside its
   decision boundary: the radius is bisected towards the largest one at
   which sampling finds no violation, then shrunk by a random factor, so
   PGD rarely refutes the root and the search has to split. *)
let boundary_problem rng =
  let net = small_net rng in
  let dim = net.Nn.Network.input_dim in
  let center = Vec.init dim (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let target = Nn.Network.classify net center in
  let prop radius =
    Common.Property.create
      ~region:(Domains.Box.of_center_radius center radius)
      ~target ()
  in
  let violated radius =
    Common.Property.check_samples rng net (prop radius) ~n:200 <> None
  in
  let rec bisect lo hi n =
    if n = 0 then lo
    else
      let mid = 0.5 *. (lo +. hi) in
      if violated mid then bisect lo mid (n - 1) else bisect mid hi (n - 1)
  in
  let boundary = if violated 1.0 then bisect 0.0 1.0 8 else 1.0 in
  (net, prop (boundary *. (0.6 +. Rng.float rng 0.35)))

(* Pop one item off a work queue and mark it finished, as a lone worker
   with no children to push does. *)
let pop_finish q =
  let v = Parallel.Wqueue.pop q in
  if Option.is_some v then Parallel.Wqueue.finish q;
  v

(* Deterministic, reproducible randomness for every test suite
   (docs/testing.md).  Each call site passes its own default seed, but
   CHARON_TEST_SEED overrides all of them at once — so a failure seen
   under some seed reproduces with

     CHARON_TEST_SEED=<seed> dune runtest

   and a soak can sweep seeds without editing tests.  Failures print
   the seed that produced them. *)
let env_seed =
  match Sys.getenv_opt "CHARON_TEST_SEED" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> Some n
      | None ->
          Printf.eprintf "ignoring malformed CHARON_TEST_SEED=%S\n%!" s;
          None)

let effective_seed default = Option.value env_seed ~default

(* Property-based testing glue: run a seeded check [count] times. *)
let repeat ?(count = 50) ~seed f =
  let seed = effective_seed seed in
  let rng = Rng.create seed in
  for i = 1 to count do
    try f (Rng.split rng) i
    with e ->
      Printf.eprintf
        "\nfailing case %d/%d; reproduce with CHARON_TEST_SEED=%d\n%!" i count
        seed;
      raise e
  done

let qtest name ?(count = 100) gen prop =
  (* An explicit ~rand pins QCheck's stream to our seed convention;
     without it qcheck-alcotest self-initialises from the global
     Random state and failures are unreproducible. *)
  let seed = effective_seed 421 in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make
       ~name:(Printf.sprintf "%s (CHARON_TEST_SEED=%d)" name seed)
       ~count gen prop)

let suite name cases = (name, cases)

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* A small JSON reader, enough to round-trip machine-readable tool
   output (charon-lint --json) back into structured form in tests. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then fail "unexpected end of input";
      let c = s.[!pos] in
      incr pos;
      c
    in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      let got = next () in
      if got <> c then fail "expected %c, got %c at %d" c got (!pos - 1)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents buf
        | '\\' ->
            (match next () with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let hex = String.init 4 (fun _ -> next ()) in
                let code = int_of_string ("0x" ^ hex) in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else
                  (* Tests only ever see ASCII; anything else keeps its
                     escaped spelling rather than growing a UTF-8 encoder. *)
                  Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
            | c -> fail "bad escape \\%c" c);
            go ()
        | c ->
            Buffer.add_char buf c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> number_char c | None -> false) do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number %S" tok)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          expect '{';
          skip_ws ();
          if peek () = Some '}' then (expect '}'; Obj [])
          else Obj (parse_members [])
      | Some '[' ->
          expect '[';
          skip_ws ();
          if peek () = Some ']' then (expect ']'; Arr [])
          else Arr (parse_items [])
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    and parse_members acc =
      skip_ws ();
      let key = parse_string () in
      skip_ws ();
      expect ':';
      let v = parse_value () in
      skip_ws ();
      match next () with
      | ',' -> parse_members ((key, v) :: acc)
      | '}' -> List.rev ((key, v) :: acc)
      | c -> fail "expected , or } in object, got %c" c
    and parse_items acc =
      let v = parse_value () in
      skip_ws ();
      match next () with
      | ',' -> parse_items (v :: acc)
      | ']' -> List.rev (v :: acc)
      | c -> fail "expected , or ] in array, got %c" c
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input at %d" !pos;
    v

  let member key = function
    | Obj kvs -> (
        match List.assoc_opt key kvs with
        | Some v -> v
        | None -> fail "no member %S" key)
    | _ -> fail "member %S of non-object" key

  let to_string = function Str s -> s | _ -> fail "expected string"

  let to_int = function Int i -> i | _ -> fail "expected int"

  let to_list = function Arr l -> l | _ -> fail "expected array"
end
