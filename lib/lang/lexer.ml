(** Hand-written lexer for MiniC.

    Produces the token stream as a struct of arrays, so a token costs no
    record, cons cell or boxed payload: the bundled DSP kernels carry
    their coefficient tables and inputs as initialiser lists, and most
    of their tokens are integer literals and commas.  Integer literals
    are read in place, digit by digit.  [#pragma lp ...] lines become
    dedicated [PRAGMA] tokens so the parser can attach them to the
    following statement or function. *)

type kind =
  | INT_LIT
  | FLOAT_LIT
  | IDENT
  | KW_INT | KW_FLOAT | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | SHL | SHR | AMP | PIPE | CARET | TILDE
  | LT | LE | GT | GE | EQEQ | NE | BANG
  | ANDAND | OROR
  | ASSIGN
  | PRAGMA
  | EOF

(** Token [i] (for [i < count]; the last one is [EOF]) is [kinds.(i)],
    ending at [lines.(i)], [cols.(i)]: the column after its last
    character.  [ints.(i)] is its payload: an [INT_LIT]'s value, a
    [FLOAT_LIT]'s index into [floats], or the index into [strs] of an
    [IDENT]'s name or a [PRAGMA]'s text after ["#pragma lp"], trimmed.
    The arrays may be longer than [count]. *)
type tokens = {
  count : int;
  kinds : kind array;
  ints : int array;
  lines : int array;
  cols : int array;
  floats : Float.Array.t;
  strs : string array;
}

exception Lex_error of string * int  (** message, line *)

(** Token [i] as the source spells it (literals normalised), for
    diagnostics. *)
let token_to_string t i =
  match t.kinds.(i) with
  | INT_LIT -> string_of_int t.ints.(i)
  | FLOAT_LIT -> string_of_float (Float.Array.get t.floats t.ints.(i))
  | IDENT -> t.strs.(t.ints.(i))
  | PRAGMA -> "#pragma lp " ^ t.strs.(t.ints.(i))
  | KW_INT -> "int" | KW_FLOAT -> "float" | KW_VOID -> "void"
  | KW_IF -> "if" | KW_ELSE -> "else" | KW_WHILE -> "while"
  | KW_FOR -> "for" | KW_RETURN -> "return"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> ","
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | SHL -> "<<" | SHR -> ">>" | AMP -> "&" | PIPE -> "|" | CARET -> "^"
  | TILDE -> "~"
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | EQEQ -> "==" | NE -> "!="
  | BANG -> "!"
  | ANDAND -> "&&" | OROR -> "||"
  | ASSIGN -> "="
  | EOF -> "<eof>"

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

(* whether src.[start .. start + len - 1] spells [word] *)
let spells src start len word =
  String.length word = len
  &&
  let k = ref 0 in
  while !k < len && src.[start + !k] = word.[!k] do incr k done;
  !k = len

(* the keyword spelt by src.[start .. start + len - 1], else [IDENT] *)
let word_kind src start len =
  if spells src start len "int" then KW_INT
  else if spells src start len "float" then KW_FLOAT
  else if spells src start len "void" then KW_VOID
  else if spells src start len "if" then KW_IF
  else if spells src start len "else" then KW_ELSE
  else if spells src start len "while" then KW_WHILE
  else if spells src start len "for" then KW_FOR
  else if spells src start len "return" then KW_RETURN
  else IDENT

(* the operator or punctuation mark [c] starts, [next] the character
   after it; [EOF] when [c] starts none *)
let punct c next =
  match c with
  | '(' -> LPAREN | ')' -> RPAREN | '{' -> LBRACE | '}' -> RBRACE
  | '[' -> LBRACKET | ']' -> RBRACKET | ';' -> SEMI | ',' -> COMMA
  | '+' -> PLUS | '-' -> MINUS | '*' -> STAR | '/' -> SLASH | '%' -> PERCENT
  | '^' -> CARET | '~' -> TILDE
  | '<' -> if next = '<' then SHL else if next = '=' then LE else LT
  | '>' -> if next = '>' then SHR else if next = '=' then GE else GT
  | '=' -> if next = '=' then EQEQ else ASSIGN
  | '!' -> if next = '=' then NE else BANG
  | '&' -> if next = '&' then ANDAND else AMP
  | '|' -> if next = '|' then OROR else PIPE
  | _ -> EOF

let width = function
  | SHL | SHR | LE | GE | EQEQ | NE | ANDAND | OROR -> 2
  | _ -> 1

let pragma_prefix = "#pragma lp "

let tokenize (src : string) : tokens =
  let n = String.length src in
  (* a token takes at least one byte, so n + 1 slots (the last for EOF)
     always suffice: the token arrays are sized once and never grow *)
  let kinds = Array.make (n + 1) EOF and ints = Array.make (n + 1) 0 in
  let lines = Array.make (n + 1) 0 and cols = Array.make (n + 1) 0 in
  let count = ref 0 in
  (* float literals and strings are few: their arrays grow by doubling *)
  let floats = ref (Float.Array.make 8 0.0) and n_floats = ref 0 in
  let strs = ref (Array.make 64 "") and n_strs = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in  (* index of the first character of [!line] *)
  (* a token ending before offset [stop]: its column is the one after
     its last character *)
  let emit kind payload stop =
    let k = !count in
    kinds.(k) <- kind;
    ints.(k) <- payload;
    lines.(k) <- !line;
    cols.(k) <- stop - !bol + 1;
    count := k + 1
  in
  (* the index of the stored float or string, for the token's payload *)
  let add_float f =
    if !n_floats = Float.Array.length !floats then
      floats := Float.Array.append !floats !floats;
    Float.Array.set !floats !n_floats f;
    incr n_floats;
    !n_floats - 1
  in
  let add_str s =
    if !n_strs = Array.length !strs then strs := Array.append !strs !strs;
    !strs.(!n_strs) <- s;
    incr n_strs;
    !n_strs - 1
  in
  let peek j = if j < n then src.[j] else '\000' in
  (* no closure reads the offset, so it stays in a register *)
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
      incr i;
      incr line;
      bol := !i
    | '/' when peek (!i + 1) = '/' ->
      while !i < n && src.[!i] <> '\n' do incr i done
    | '/' when peek (!i + 1) = '*' ->
      i := !i + 2;
      while !i < n && not (src.[!i] = '*' && peek (!i + 1) = '/') do
        if src.[!i] = '\n' then begin
          incr line;
          bol := !i + 1
        end;
        incr i
      done;
      if !i >= n then raise (Lex_error ("unterminated comment", !line));
      i := !i + 2
    | '#' ->
      (* pragma line: "#pragma lp <rest-of-line>" *)
      let start = !i in
      while !i < n && src.[!i] <> '\n' do incr i done;
      let len = !i - start in
      let plen = String.length pragma_prefix in
      if len >= plen && spells src start plen pragma_prefix then
        emit PRAGMA
          (add_str (String.trim (String.sub src (start + plen) (len - plen))))
          !i
      else
        raise
          (Lex_error ("unknown directive: " ^ String.sub src start len, !line))
    | '0' .. '9' ->
      let start = !i in
      let v = ref 0 and big = ref false in
      while !i < n && is_digit src.[!i] do
        let d = Char.code src.[!i] - Char.code '0' in
        if !v > (max_int - d) / 10 then big := true else v := (!v * 10) + d;
        incr i
      done;
      if !i < n && src.[!i] = '.' then begin
        incr i;
        while !i < n && is_digit src.[!i] do incr i done;
        (* few and far between: strtod on the slice rounds them exactly *)
        emit FLOAT_LIT
          (add_float (float_of_string (String.sub src start (!i - start))))
          !i
      end
      else if !big then raise (Lex_error ("integer literal out of range", !line))
      else emit INT_LIT !v !i
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      match word_kind src start (!i - start) with
      | IDENT -> emit IDENT (add_str (String.sub src start (!i - start))) !i
      | kw -> emit kw 0 !i)
    | c ->
      let kind = punct c (peek (!i + 1)) in
      if kind = EOF then
        raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line));
      i := !i + width kind;
      emit kind 0 !i
  done;
  emit EOF 0 n;
  { count = !count; kinds; ints; lines; cols; floats = !floats; strs = !strs }
