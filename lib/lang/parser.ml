(** Recursive-descent parser for MiniC. *)

open Ast

exception Parse_error of string * int (** message, line *)

(* the parser reads the lexer's arrays at [pos]: kinds compare as
   immediates, payloads are read only where the grammar needs them *)
type state = { toks : Lexer.tokens; mutable pos : int }

let cur_kind st = st.toks.Lexer.kinds.(st.pos)
let cur_line st = st.toks.Lexer.lines.(st.pos)

(* the current token's payload: an integer literal's value *)
let cur_int st = st.toks.Lexer.ints.(st.pos)

(* an identifier's name or a pragma's text *)
let cur_str st = st.toks.Lexer.strs.(cur_int st)

let err st msg =
  raise (Parse_error (Printf.sprintf "%s (got %s)" msg
                        (Lexer.token_to_string st.toks st.pos),
                      cur_line st))

let advance st = st.pos <- st.pos + 1

let expect st kind msg =
  if cur_kind st = kind then advance st else err st msg

let position st = { line = cur_line st; col = st.toks.Lexer.cols.(st.pos) }

(* ------------------------------------------------------------------ *)
(* Pragmas: the raw text after "#pragma lp" is "key(arg1, arg2, ...)"
   or a bare "key".                                                    *)
(* ------------------------------------------------------------------ *)

let parse_pragma_text ~line text : pragma =
  let text = String.trim text in
  let ppos = { line; col = 0 } in
  match String.index_opt text '(' with
  | None -> { pkey = text; pargs = []; ppos }
  | Some lp ->
    let key = String.trim (String.sub text 0 lp) in
    (match String.rindex_opt text ')' with
    | None -> raise (Parse_error ("pragma missing ')'", line))
    | Some rp when rp > lp ->
      let inner = String.sub text (lp + 1) (rp - lp - 1) in
      let args =
        String.split_on_char ',' inner
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      { pkey = key; pargs = args; ppos }
    | Some _ -> raise (Parse_error ("pragma malformed parentheses", line)))

let collect_pragmas st =
  let rec loop acc =
    match cur_kind st with
    | Lexer.PRAGMA ->
      let line = cur_line st and text = cur_str st in
      advance st;
      loop (parse_pragma_text ~line text :: acc)
    | _ -> List.rev acc
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let parse_base_ty st =
  match cur_kind st with
  | Lexer.KW_INT -> advance st; Tint
  | Lexer.KW_FLOAT -> advance st; Tfloat
  | Lexer.KW_VOID -> advance st; Tvoid
  | _ -> err st "expected type"

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

(* Precedence levels, loosest first:
   || ; && ; | ; ^ ; & ; == != ; < <= > >= ; << >> ; + - ; * / % *)
let binop_of_kind = function
  | Lexer.OROR -> Some (Lor, 1)
  | Lexer.ANDAND -> Some (Land, 2)
  | Lexer.PIPE -> Some (Bor, 3)
  | Lexer.CARET -> Some (Bxor, 4)
  | Lexer.AMP -> Some (Band, 5)
  | Lexer.EQEQ -> Some (Eq, 6)
  | Lexer.NE -> Some (Ne, 6)
  | Lexer.LT -> Some (Lt, 7)
  | Lexer.LE -> Some (Le, 7)
  | Lexer.GT -> Some (Gt, 7)
  | Lexer.GE -> Some (Ge, 7)
  | Lexer.SHL -> Some (Shl, 8)
  | Lexer.SHR -> Some (Shr, 8)
  | Lexer.PLUS -> Some (Add, 9)
  | Lexer.MINUS -> Some (Sub, 9)
  | Lexer.STAR -> Some (Mul, 10)
  | Lexer.SLASH -> Some (Div, 10)
  | Lexer.PERCENT -> Some (Mod, 10)
  | _ -> None

let rec parse_expr st = parse_binop st 1

and parse_binop st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_kind (cur_kind st) with
    | Some (op, prec) when prec >= min_prec ->
      let pos = position st in
      advance st;
      let rhs = parse_binop st (prec + 1) in
      loop { edesc = Binop (op, lhs, rhs); epos = pos }
    | Some _ | None -> lhs
  in
  loop lhs

and parse_unary st =
  let pos = position st in
  match cur_kind st with
  | Lexer.MINUS ->
    advance st;
    { edesc = Unop (Neg, parse_unary st); epos = pos }
  | Lexer.BANG ->
    advance st;
    { edesc = Unop (Not, parse_unary st); epos = pos }
  | Lexer.TILDE ->
    advance st;
    { edesc = Unop (Bnot, parse_unary st); epos = pos }
  | _ -> parse_primary st

and parse_primary st =
  let pos = position st in
  match cur_kind st with
  | Lexer.INT_LIT ->
    let n = cur_int st in
    advance st;
    { edesc = Int_lit n; epos = pos }
  | Lexer.FLOAT_LIT ->
    let f = Float.Array.get st.toks.Lexer.floats (cur_int st) in
    advance st;
    { edesc = Float_lit f; epos = pos }
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    e
  | Lexer.KW_INT | Lexer.KW_FLOAT ->
    (* cast: int(e) / float(e) *)
    let ty = parse_base_ty st in
    expect st Lexer.LPAREN "expected '(' after cast type";
    let e = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    { edesc = Cast (ty, e); epos = pos }
  | Lexer.IDENT -> (
    let name = cur_str st in
    advance st;
    match cur_kind st with
    | Lexer.LPAREN ->
      advance st;
      let args = parse_args st in
      { edesc = Call (name, args); epos = pos }
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET "expected ']'";
      { edesc = Index (name, idx); epos = pos }
    | _ -> { edesc = Var name; epos = pos })
  | _ -> err st "expected expression"

and parse_args st =
  if cur_kind st = Lexer.RPAREN then begin advance st; [] end
  else
    let rec loop acc =
      let e = parse_expr st in
      match cur_kind st with
      | Lexer.COMMA -> advance st; loop (e :: acc)
      | Lexer.RPAREN -> advance st; List.rev (e :: acc)
      | _ -> err st "expected ',' or ')' in arguments"
    in
    loop []

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : stmt =
  let pragmas = collect_pragmas st in
  let pos = position st in
  let mk sdesc = { sdesc; spos = pos; pragmas } in
  match cur_kind st with
  | Lexer.KW_INT | Lexer.KW_FLOAT ->
    let s = parse_decl st in
    expect st Lexer.SEMI "expected ';' after declaration";
    { s with pragmas }
  | Lexer.KW_IF ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after if";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    let then_b = parse_block_or_stmt st in
    let else_b =
      if cur_kind st = Lexer.KW_ELSE then begin
        advance st;
        parse_block_or_stmt st
      end
      else []
    in
    mk (If (cond, then_b, else_b))
  | Lexer.KW_WHILE ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after while";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    let body = parse_block_or_stmt st in
    mk (While (cond, body))
  | Lexer.KW_FOR ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after for";
    let init = parse_simple st in
    expect st Lexer.SEMI "expected ';' in for";
    let cond = parse_expr st in
    expect st Lexer.SEMI "expected ';' in for";
    let step = parse_simple st in
    expect st Lexer.RPAREN "expected ')'";
    let body = parse_block_or_stmt st in
    mk (For (init, cond, step, body))
  | Lexer.KW_RETURN ->
    advance st;
    if cur_kind st = Lexer.SEMI then begin
      advance st;
      mk (Return None)
    end
    else begin
      let e = parse_expr st in
      expect st Lexer.SEMI "expected ';' after return";
      mk (Return (Some e))
    end
  | Lexer.LBRACE -> mk (Block (parse_block st))
  | _ ->
    let s = parse_simple st in
    expect st Lexer.SEMI "expected ';'";
    { s with pragmas }

(** Simple statement: declaration, assignment, array store, or expression
    statement.  Used both standalone and in for-headers. *)
and parse_simple st : stmt =
  let pos = position st in
  let mk sdesc = { sdesc; spos = pos; pragmas = [] } in
  match cur_kind st with
  | Lexer.KW_INT | Lexer.KW_FLOAT -> parse_decl st
  | Lexer.IDENT -> (
    (* lookahead to distinguish assignment / store / call *)
    let name = cur_str st in
    advance st;
    match cur_kind st with
    | Lexer.ASSIGN ->
      advance st;
      mk (Assign (name, parse_expr st))
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET "expected ']'";
      (match cur_kind st with
      | Lexer.ASSIGN ->
        advance st;
        mk (Store (name, idx, parse_expr st))
      | _ -> mk (Expr { edesc = Index (name, idx); epos = pos }))
    | Lexer.LPAREN ->
      advance st;
      let args = parse_args st in
      mk (Expr { edesc = Call (name, args); epos = pos })
    | _ -> err st "expected '=', '[' or '(' after identifier")
  | _ -> err st "expected statement"

and parse_decl st : stmt =
  let pos = position st in
  let ty = parse_base_ty st in
  let name =
    match cur_kind st with
    | Lexer.IDENT -> let n = cur_str st in advance st; n
    | _ -> err st "expected identifier in declaration"
  in
  match cur_kind st with
  | Lexer.LBRACKET ->
    advance st;
    let size =
      match cur_kind st with
      | Lexer.INT_LIT -> let n = cur_int st in advance st; n
      | _ -> err st "expected array size literal"
    in
    expect st Lexer.RBRACKET "expected ']'";
    { sdesc = Decl (Tarray (ty, size), name, None); spos = pos; pragmas = [] }
  | Lexer.ASSIGN ->
    advance st;
    let e = parse_expr st in
    { sdesc = Decl (ty, name, Some e); spos = pos; pragmas = [] }
  | _ -> { sdesc = Decl (ty, name, None); spos = pos; pragmas = [] }

and parse_block st : stmt list =
  expect st Lexer.LBRACE "expected '{'";
  let rec loop acc =
    if cur_kind st = Lexer.RBRACE then begin
      advance st;
      List.rev acc
    end
    else loop (parse_stmt st :: acc)
  in
  loop []

and parse_block_or_stmt st : stmt list =
  if cur_kind st = Lexer.LBRACE then parse_block st else [ parse_stmt st ]

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_params st : (ty * string) list =
  expect st Lexer.LPAREN "expected '('";
  if cur_kind st = Lexer.RPAREN then begin advance st; [] end
  else
    let rec loop acc =
      let ty = parse_base_ty st in
      let name =
        match cur_kind st with
        | Lexer.IDENT -> let n = cur_str st in advance st; n
        | _ -> err st "expected parameter name"
      in
      match cur_kind st with
      | Lexer.COMMA -> advance st; loop ((ty, name) :: acc)
      | Lexer.RPAREN -> advance st; List.rev ((ty, name) :: acc)
      | _ -> err st "expected ',' or ')' in parameters"
    in
    loop []

let parse_global_init st =
  (* "= { 1, 2, 3 }" *)
  expect st Lexer.LBRACE "expected '{' in initialiser";
  let rec loop acc =
    match cur_kind st with
    | Lexer.INT_LIT -> (
      let n = cur_int st in
      advance st;
      match cur_kind st with
      | Lexer.COMMA -> advance st; loop (n :: acc)
      | Lexer.RBRACE -> advance st; List.rev (n :: acc)
      | _ -> err st "expected ',' or '}' in initialiser")
    | Lexer.MINUS -> (
      advance st;
      match cur_kind st with
      | Lexer.INT_LIT -> (
        let n = cur_int st in
        advance st;
        match cur_kind st with
        | Lexer.COMMA -> advance st; loop (-n :: acc)
        | Lexer.RBRACE -> advance st; List.rev (-n :: acc)
        | _ -> err st "expected ',' or '}' in initialiser")
      | _ -> err st "expected integer after '-'")
    | Lexer.RBRACE -> advance st; List.rev acc
    | _ -> err st "expected integer in initialiser"
  in
  loop []

let parse_program (src : string) : program =
  let st = { toks = Lexer.tokenize src; pos = 0 } in
  let globals = ref [] in
  let funcs = ref [] in
  let rec loop () =
    if cur_kind st = Lexer.EOF then ()
    else begin
      let pragmas = collect_pragmas st in
      let pos = position st in
      let ty = parse_base_ty st in
      let name =
        match cur_kind st with
        | Lexer.IDENT -> let n = cur_str st in advance st; n
        | _ -> err st "expected identifier at top level"
      in
      (match cur_kind st with
      | Lexer.LPAREN ->
        let params = parse_params st in
        let body = parse_block st in
        funcs :=
          { fname = name; fret = ty; fparams = params; fbody = body;
            fpragmas = pragmas; fpos = pos }
          :: !funcs
      | Lexer.LBRACKET ->
        advance st;
        let size =
          match cur_kind st with
          | Lexer.INT_LIT -> let n = cur_int st in advance st; n
          | _ -> err st "expected array size"
        in
        expect st Lexer.RBRACKET "expected ']'";
        let init =
          if cur_kind st = Lexer.ASSIGN then begin
            advance st;
            Some (parse_global_init st)
          end
          else None
        in
        expect st Lexer.SEMI "expected ';'";
        globals :=
          { gname = name; gty = Tarray (ty, size); ginit = init; gpos = pos }
          :: !globals
      | Lexer.ASSIGN ->
        advance st;
        let v =
          match cur_kind st with
          | Lexer.INT_LIT -> let n = cur_int st in advance st; n
          | Lexer.MINUS -> (
            advance st;
            match cur_kind st with
            | Lexer.INT_LIT -> let n = cur_int st in advance st; -n
            | _ -> err st "expected integer initialiser")
          | _ -> err st "expected integer initialiser"
        in
        expect st Lexer.SEMI "expected ';'";
        globals :=
          { gname = name; gty = ty; ginit = Some [ v ]; gpos = pos } :: !globals
      | Lexer.SEMI ->
        advance st;
        globals := { gname = name; gty = ty; ginit = None; gpos = pos } :: !globals
      | _ -> err st "expected '(', '[', '=' or ';' at top level");
      loop ()
    end
  in
  loop ();
  { globals = List.rev !globals; funcs = List.rev !funcs }
