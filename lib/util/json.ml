(** Minimal JSON: a value type, a printer, and a recursive-descent
    parser.  Used by the machine-readable artifacts this repo commits
    (the benchmark records that CI gates diff) and by tests that inspect
    exported reports.  Deliberately small: no streaming, no options —
    the grammar of RFC 8259 over strings that fit in memory. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Render a float the way the repo's JSON artifacts expect: integral
    values without a fraction, everything else via [%.17g] so a parse
    round-trips to the identical float (the baseline gate depends on
    this). *)
let num_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec render buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num x -> Buffer.add_string buf (num_to_string x)
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        render buf (indent + 2) item)
      items;
    Buffer.add_string buf ("\n" ^ pad indent ^ "]")
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf "%s\"%s\": " (pad (indent + 2)) (escape k));
        render buf (indent + 2) item)
      fields;
    Buffer.add_string buf ("\n" ^ pad indent ^ "}")

let to_string v =
  let buf = Buffer.create 1024 in
  render buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(** One-line rendering for line-delimited protocols: no newlines anywhere
    (string bodies escape them), no trailing newline. *)
let rec render_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num x -> Buffer.add_string buf (num_to_string x)
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        render_compact buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":" (escape k));
        render_compact buf item)
      fields;
    Buffer.add_char buf '}'

let to_compact_string v =
  let buf = Buffer.create 256 in
  render_compact buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Hardened against adversarial input: [depth] bounds container nesting
   (unbounded nesting would otherwise overflow the OCaml stack — a raw
   [Stack_overflow], not a typed error), and string/number token lengths
   are bounded so a hostile frame cannot make the parser commit to an
   absurd allocation before failing.  Every violation is a
   [Parse_error]. *)
type state = {
  src : string;
  mutable pos : int;
  mutable depth : int;
  max_depth : int;
  max_string : int;
}

let default_max_depth = 512

let default_max_string = 8 * 1024 * 1024

(** Longest token [%.17g] can need is ~25 chars; anything near this bound
    is adversarial, not numeric. *)
let max_number_len = 64

let fail st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %c" c)

let parse_literal st word v =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    v
  end
  else fail st ("expected " ^ word)

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let grow c =
    if Buffer.length buf >= st.max_string then fail st "string too long";
    Buffer.add_char buf c
  in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some '"' -> advance st; grow '"'; go ()
      | Some '\\' -> advance st; grow '\\'; go ()
      | Some '/' -> advance st; grow '/'; go ()
      | Some 'n' -> advance st; grow '\n'; go ()
      | Some 't' -> advance st; grow '\t'; go ()
      | Some 'r' -> advance st; grow '\r'; go ()
      | Some 'b' -> advance st; grow '\b'; go ()
      | Some 'f' -> advance st; grow '\012'; go ()
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
        let hex = String.sub st.src st.pos 4 in
        (* strict: exactly four hex digits ([int_of_string] would also
           accept signs and underscores) *)
        if not (String.for_all is_hex hex) then fail st "bad \\u escape";
        let code = int_of_string ("0x" ^ hex) in
        st.pos <- st.pos + 4;
        (* ASCII range only; everything this repo writes stays there *)
        if code < 0x80 then grow (Char.chr code) else grow '?';
        go ()
      | _ -> fail st "bad escape")
    | Some c ->
      advance st;
      grow c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st;
    if st.pos - start > max_number_len then fail st "number too long"
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some x -> Num x
  | None -> fail st ("bad number " ^ s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    enter st;
    advance st;
    skip_ws st;
    let v =
      if peek st = Some '}' then begin advance st; Obj [] end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; fields ((k, v) :: acc)
          | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected , or } in object"
        in
        fields []
      end
    in
    leave st;
    v
  | Some '[' ->
    enter st;
    advance st;
    skip_ws st;
    let v =
      if peek st = Some ']' then begin advance st; List [] end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; items (v :: acc)
          | Some ']' -> advance st; List (List.rev (v :: acc))
          | _ -> fail st "expected , or ] in array"
        in
        items []
      end
    in
    leave st;
    v
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

and enter st =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then fail st "nesting too deep"

and leave st = st.depth <- st.depth - 1

let of_string ?(max_depth = default_max_depth)
    ?(max_string = default_max_string) s =
  let st = { src = s; pos = 0; depth = 0; max_depth; max_string } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let of_string_opt ?max_depth ?max_string s =
  try Some (of_string ?max_depth ?max_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function Num x -> Some x | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list = function List l -> l | _ -> []

(* ------------------------------------------------------------------ *)
(* Artifact files                                                      *)
(* ------------------------------------------------------------------ *)

let write_file ~path contents =
  let tmp = path ^ ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc contents);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
