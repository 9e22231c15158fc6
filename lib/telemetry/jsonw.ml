(* The one JSON value type shared by every machine-readable artifact in
   the repo: telemetry JSONL traces, BENCH_*.json archives, and the
   bench suite records.  Mirrors the conventions of lib/lint/json_out
   (which must stay separate — it lives in the compiler-libs world) and
   adds floats and a reader, so tools like benchdiff can round-trip
   their own output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer *)

(* Appends [s] JSON-escaped, copying each run of bytes that need no
   escape in one [Buffer.add_substring]. *)
let add_escaped buf s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s start (i - start);
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

(* JSON has no NaN/infinity literals; a non-finite measurement becomes
   null rather than corrupting the document. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          render buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          render buf (Str k);
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'

(* Pretty mode: 2-space indentation, one field/element per line.  Used
   for the on-disk BENCH_*.json artifacts (diff-friendly); the trace
   path always renders compact (one event per JSONL line). *)
let rec render_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> render buf v
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
      let inner = indent ^ "  " in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf inner;
          render_pretty buf inner item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      let inner = indent ^ "  " in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf inner;
          render buf (Str k);
          Buffer.add_string buf ": ";
          render_pretty buf inner v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  if pretty then render_pretty buf "" t else render buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

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
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    let got = next () in
    if got <> c then fail "expected %C at offset %d, got %C" c (!pos - 1) got
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      (* Copy the run of plain bytes up to the next quote or escape in
         one piece. *)
      let start = !pos in
      while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
        incr pos
      done;
      Buffer.add_substring buf s start (!pos - start);
      if next () = '"' then Buffer.contents buf
      else begin
        (* The run stopped at a backslash. *)
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            let hex = String.init 4 (fun _ -> next ()) in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail "bad \\u escape %S" hex
            in
            (* ASCII range only; anything above becomes '?' — traces
               and bench files never emit non-ASCII. *)
            Buffer.add_char buf (if code < 0x80 then Char.chr code else '?')
        | c -> fail "bad escape \\%C" c);
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
        expect '{';
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> fields ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> fail "expected ',' or '}', got %C" c
          in
          fields []
        end
    | Some '[' ->
        expect '[';
        skip_ws ();
        if peek () = Some ']' then (incr pos; Arr [])
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> items (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> fail "expected ',' or ']', got %C" c
          in
          items []
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
