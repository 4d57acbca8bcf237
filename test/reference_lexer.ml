(** Reference MiniC lexer, kept as the test oracle for [Lp_lang.Lexer]
    (see the lexer property in [Test_lang]).

    It is the simple, slow formulation: one [located] record, cons cell
    and boxed payload per token, in a list, with every literal and word
    cut out of the source by [String.sub] before it is converted.  The
    production lexer must give the same kinds, payloads (float literals
    bit for bit), lines, columns and [Lex_error]s.  [#pragma lp ...]
    lines become [PRAGMA] tokens. *)

type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW_INT | KW_FLOAT | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | SHL | SHR | AMP | PIPE | CARET | TILDE
  | LT | LE | GT | GE | EQEQ | NE | BANG
  | ANDAND | OROR
  | ASSIGN
  | PRAGMA of string  (** raw text after "#pragma lp" *)
  | EOF

type located = { tok : token; line : int; col : int }

exception Lex_error of string * int  (** message, line *)

let token_to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
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
  | PRAGMA s -> "#pragma lp " ^ s
  | EOF -> "<eof>"

let keyword_of_string = function
  | "int" -> Some KW_INT
  | "float" -> Some KW_FLOAT
  | "void" -> Some KW_VOID
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "for" -> Some KW_FOR
  | "return" -> Some KW_RETURN
  | _ -> None

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize (src : string) : located list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let col = ref 1 in
  let i = ref 0 in
  let emit tok = toks := { tok; line = !line; col = !col } :: !toks in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let advance () =
    (match src.[!i] with
    | '\n' -> line := !line + 1; col := 1
    | _ -> col := !col + 1);
    incr i
  in
  let read_while pred =
    let start = !i in
    while !i < n && pred src.[!i] do advance () done;
    String.sub src start (!i - start)
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do advance () done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      advance (); advance ();
      let closed = ref false in
      while !i < n && not !closed do
        if src.[!i] = '*' && peek 1 = Some '/' then begin
          advance (); advance (); closed := true
        end
        else advance ()
      done;
      if not !closed then raise (Lex_error ("unterminated comment", !line))
    end
    else if c = '#' then begin
      (* pragma line: "#pragma lp <rest-of-line>" *)
      let rest = read_while (fun c -> c <> '\n') in
      let prefix = "#pragma lp " in
      let plen = String.length prefix in
      if String.length rest >= plen && String.sub rest 0 plen = prefix then
        emit (PRAGMA (String.trim (String.sub rest plen (String.length rest - plen))))
      else
        raise (Lex_error ("unknown directive: " ^ rest, !line))
    end
    else if is_digit c then begin
      let intpart = read_while is_digit in
      if !i < n && src.[!i] = '.' then begin
        advance ();
        let frac = read_while is_digit in
        emit (FLOAT_LIT (float_of_string (intpart ^ "." ^ (if frac = "" then "0" else frac))))
      end
      else
        match int_of_string_opt intpart with
        | Some v -> emit (INT_LIT v)
        | None -> raise (Lex_error ("integer literal out of range", !line))
    end
    else if is_ident_start c then begin
      let word = read_while is_ident_char in
      match keyword_of_string word with
      | Some kw -> emit kw
      | None -> emit (IDENT word)
    end
    else begin
      let two a b tok_two tok_one =
        if c = a && peek 1 = Some b then begin advance (); advance (); emit tok_two end
        else begin advance (); emit tok_one end
      in
      match c with
      | '(' -> advance (); emit LPAREN
      | ')' -> advance (); emit RPAREN
      | '{' -> advance (); emit LBRACE
      | '}' -> advance (); emit RBRACE
      | '[' -> advance (); emit LBRACKET
      | ']' -> advance (); emit RBRACKET
      | ';' -> advance (); emit SEMI
      | ',' -> advance (); emit COMMA
      | '+' -> advance (); emit PLUS
      | '-' -> advance (); emit MINUS
      | '*' -> advance (); emit STAR
      | '/' -> advance (); emit SLASH
      | '%' -> advance (); emit PERCENT
      | '^' -> advance (); emit CARET
      | '~' -> advance (); emit TILDE
      | '<' ->
        if peek 1 = Some '<' then begin advance (); advance (); emit SHL end
        else two '<' '=' LE LT
      | '>' ->
        if peek 1 = Some '>' then begin advance (); advance (); emit SHR end
        else two '>' '=' GE GT
      | '=' -> two '=' '=' EQEQ ASSIGN
      | '!' -> two '!' '=' NE BANG
      | '&' -> two '&' '&' ANDAND AMP
      | '|' -> two '|' '|' OROR PIPE
      | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  emit EOF;
  List.rev !toks
