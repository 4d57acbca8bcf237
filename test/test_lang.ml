(** Front-end tests: lexer, parser, type checker. *)

module Lexer = Lp_lang.Lexer
module Parser = Lp_lang.Parser
module Ast = Lp_lang.Ast
module Typecheck = Lp_lang.Typecheck

let check = Alcotest.check
let fail = Alcotest.fail

module Ref = Reference_lexer

(* the lexer's token arrays, read back as the reference lexer's located
   tokens *)
let located (t : Lexer.tokens) : Ref.located list =
  List.init t.Lexer.count (fun i ->
      let p = t.Lexer.ints.(i) in
      let tok : Ref.token =
        match t.Lexer.kinds.(i) with
        | Lexer.INT_LIT -> INT_LIT p
        | Lexer.FLOAT_LIT -> FLOAT_LIT (Float.Array.get t.Lexer.floats p)
        | Lexer.IDENT -> IDENT t.Lexer.strs.(p)
        | Lexer.PRAGMA -> PRAGMA t.Lexer.strs.(p)
        | Lexer.KW_INT -> KW_INT | Lexer.KW_FLOAT -> KW_FLOAT
        | Lexer.KW_VOID -> KW_VOID | Lexer.KW_IF -> KW_IF
        | Lexer.KW_ELSE -> KW_ELSE | Lexer.KW_WHILE -> KW_WHILE
        | Lexer.KW_FOR -> KW_FOR | Lexer.KW_RETURN -> KW_RETURN
        | Lexer.LPAREN -> LPAREN | Lexer.RPAREN -> RPAREN
        | Lexer.LBRACE -> LBRACE | Lexer.RBRACE -> RBRACE
        | Lexer.LBRACKET -> LBRACKET | Lexer.RBRACKET -> RBRACKET
        | Lexer.SEMI -> SEMI | Lexer.COMMA -> COMMA
        | Lexer.PLUS -> PLUS | Lexer.MINUS -> MINUS | Lexer.STAR -> STAR
        | Lexer.SLASH -> SLASH | Lexer.PERCENT -> PERCENT
        | Lexer.SHL -> SHL | Lexer.SHR -> SHR | Lexer.AMP -> AMP
        | Lexer.PIPE -> PIPE | Lexer.CARET -> CARET | Lexer.TILDE -> TILDE
        | Lexer.LT -> LT | Lexer.LE -> LE | Lexer.GT -> GT | Lexer.GE -> GE
        | Lexer.EQEQ -> EQEQ | Lexer.NE -> NE | Lexer.BANG -> BANG
        | Lexer.ANDAND -> ANDAND | Lexer.OROR -> OROR
        | Lexer.ASSIGN -> ASSIGN | Lexer.EOF -> EOF
      in
      { Ref.tok; line = t.Lexer.lines.(i); col = t.Lexer.cols.(i) })

let tokens src = List.map (fun (l : Ref.located) -> l.Ref.tok) (located (Lexer.tokenize src))

(* ---------------- lexer ---------------- *)

let test_lex_basic () =
  match tokens "int x = 42;" with
  | [ Ref.KW_INT; Ref.IDENT "x"; Ref.ASSIGN; Ref.INT_LIT 42;
      Ref.SEMI; Ref.EOF ] -> ()
  | ts -> Alcotest.failf "unexpected tokens: %s"
            (String.concat " " (List.map Ref.token_to_string ts))

let test_lex_operators () =
  match tokens "<< >> <= >= == != && || & | ^ ~" with
  | [ Ref.SHL; Ref.SHR; Ref.LE; Ref.GE; Ref.EQEQ; Ref.NE;
      Ref.ANDAND; Ref.OROR; Ref.AMP; Ref.PIPE; Ref.CARET;
      Ref.TILDE; Ref.EOF ] -> ()
  | _ -> fail "operator lexing"

let test_lex_comments () =
  match tokens "1 // line comment\n 2 /* block \n comment */ 3" with
  | [ Ref.INT_LIT 1; Ref.INT_LIT 2; Ref.INT_LIT 3; Ref.EOF ] -> ()
  | _ -> fail "comments not skipped"

let test_lex_float () =
  match tokens "2.5 7." with
  | [ Ref.FLOAT_LIT a; Ref.FLOAT_LIT b; Ref.EOF ] ->
    check (Alcotest.float 1e-9) "2.5" 2.5 a;
    check (Alcotest.float 1e-9) "7.0" 7.0 b
  | _ -> fail "float lexing"

let test_lex_pragma () =
  match tokens "#pragma lp pattern(doall)\nint x;" with
  | Ref.PRAGMA "pattern(doall)" :: Ref.KW_INT :: _ -> ()
  | _ -> fail "pragma lexing"

let test_lex_errors () =
  (try ignore (Lexer.tokenize "int $ x;"); fail "expected lex error"
   with Lexer.Lex_error _ -> ());
  (try ignore (Lexer.tokenize "/* unterminated"); fail "expected lex error"
   with Lexer.Lex_error _ -> ());
  try ignore (Lexer.tokenize "#pragma omp parallel\n"); fail "expected lex error"
  with Lexer.Lex_error _ -> ()

let test_lex_line_numbers () =
  let toks = located (Lexer.tokenize "int a;\nint b;") in
  let b_line =
    List.find_map
      (fun (l : Ref.located) ->
        match l.Ref.tok with Ref.IDENT "b" -> Some l.Ref.line | _ -> None)
      toks
  in
  check Alcotest.(option int) "line of b" (Some 2) b_line

(* ---------------- parser ---------------- *)

let parse = Parser.parse_program

let main_body src =
  let p = parse src in
  (List.find (fun (f : Ast.func) -> f.Ast.fname = "main") p.Ast.funcs).Ast.fbody

let test_parse_precedence () =
  (* 1 + 2 * 3 must parse as 1 + (2 * 3) *)
  match main_body "int main() { return 1 + 2 * 3; }" with
  | [ { Ast.sdesc =
          Ast.Return
            (Some { edesc = Ast.Binop (Ast.Add, { edesc = Ast.Int_lit 1; _ },
                                       { edesc = Ast.Binop (Ast.Mul, _, _); _ }); _ });
        _ } ] -> ()
  | _ -> fail "precedence of + vs *"

let test_parse_shift_precedence () =
  (* a << b + c  ==  a << (b + c), as in C *)
  match main_body "int main() { int a = 1; int b = 2; int c = 3; return a << b + c; }" with
  | [ _; _; _;
      { Ast.sdesc =
          Ast.Return
            (Some { edesc = Ast.Binop (Ast.Shl, { edesc = Ast.Var "a"; _ },
                                       { edesc = Ast.Binop (Ast.Add, _, _); _ }); _ });
        _ } ] -> ()
  | _ -> fail "precedence of << vs +"

let test_parse_unary () =
  match main_body "int main() { return -1 + !0; }" with
  | [ { Ast.sdesc =
          Ast.Return
            (Some { edesc = Ast.Binop (Ast.Add, { edesc = Ast.Unop (Ast.Neg, _); _ },
                                       { edesc = Ast.Unop (Ast.Not, _); _ }); _ });
        _ } ] -> ()
  | _ -> fail "unary parsing"

let test_parse_for () =
  match main_body "int main() { for (int i = 0; i < 4; i = i + 1) { } return 0; }" with
  | [ { Ast.sdesc = Ast.For ({ Ast.sdesc = Ast.Decl (Ast.Tint, "i", Some _); _ },
                             { edesc = Ast.Binop (Ast.Lt, _, _); _ },
                             { Ast.sdesc = Ast.Assign ("i", _); _ }, []); _ };
      _ ] -> ()
  | _ -> fail "for parsing"

let test_parse_pragma_attach () =
  let body =
    main_body
      "int main() { #pragma lp pattern(farm, chunk=4)\nfor (int i = 0; i < 4; i = i + 1) { } return 0; }"
  in
  match body with
  | [ { Ast.pragmas = [ { Ast.pkey = "pattern"; pargs = [ "farm"; "chunk=4" ]; _ } ];
        Ast.sdesc = Ast.For _; _ };
      _ ] -> ()
  | _ -> fail "pragma attachment"

let test_parse_globals () =
  let p = parse "int tab[4] = {1, -2, 3};\nint s = -7;\nfloat f;\nint main() { return 0; }" in
  match p.Ast.globals with
  | [ { Ast.gname = "tab"; gty = Ast.Tarray (Ast.Tint, 4); ginit = Some [ 1; -2; 3 ]; _ };
      { Ast.gname = "s"; gty = Ast.Tint; ginit = Some [ -7 ]; _ };
      { Ast.gname = "f"; gty = Ast.Tfloat; ginit = None; _ } ] -> ()
  | _ -> fail "global parsing"

let test_parse_call_and_index () =
  match main_body "int main() { int x = f(1, 2) + a[3]; return x; }" with
  | [ { Ast.sdesc =
          Ast.Decl (_, "x",
                    Some { edesc = Ast.Binop (Ast.Add,
                                              { edesc = Ast.Call ("f", [ _; _ ]); _ },
                                              { edesc = Ast.Index ("a", _); _ }); _ });
        _ };
      _ ] -> ()
  | _ -> fail "call/index parsing"

let test_parse_dangling_else () =
  (* else binds to nearest if *)
  match main_body "int main() { if (1) if (0) return 1; else return 2; return 3; }" with
  | [ { Ast.sdesc = Ast.If (_, [ { Ast.sdesc = Ast.If (_, _, [ _ ]); _ } ], []); _ }; _ ] -> ()
  | _ -> fail "dangling else"

let test_parse_errors () =
  List.iter
    (fun src ->
      try
        ignore (parse src);
        Alcotest.failf "expected parse error for %S" src
      with Parser.Parse_error _ -> ())
    [
      "int main() { return 1 }";
      "int main() { int = 3; }";
      "int main( { return 0; }";
      "int main() { for (int i = 0) {} }";
      "int x[] = {};";
      "int main() { a[1; }";
    ]

(* ---------------- typecheck ---------------- *)

let typecheck src = Typecheck.check_program (parse src)

let ok src =
  try typecheck src
  with Typecheck.Type_error (m, _) -> Alcotest.failf "unexpected type error: %s" m

let bad src =
  try
    typecheck src;
    Alcotest.failf "expected a type error in %S" src
  with Typecheck.Type_error _ -> ()

let test_typecheck_ok () =
  ok "int main() { int x = 1; float y = 2.5; y = y + float(x); return int(y); }";
  ok "int g[8];\nint main() { g[0] = 1; return g[0]; }";
  ok "int add(int a, int b) { return a + b; }\nint main() { return add(1, 2); }";
  ok "void nop() { return; }\nint main() { nop(); return 0; }";
  ok "int main() { int x = 0; { int x = 1; x = x + 1; } return x; }";
  ok "int main() { return __recv(0) + __faa(gc, 1); }\nint gc;" |> ignore

let test_typecheck_bad () =
  bad "int main() { return 1.5; }";
  bad "int main() { int x = 1.0; return 0; }";
  bad "int main() { return 1 + 2.0; }";
  bad "int main() { return 1.5 % 2.0; }";
  bad "float f;\nint main() { if (f) { } return 0; }";
  bad "int main() { return unknown(1); }";
  bad "int g[4];\nint main() { g = 3; return 0; }";
  bad "int main() { int x; int x; return 0; }";
  bad "int f() { return 0; }\nint f() { return 1; }\nint main() { return 0; }";
  bad "int main(int argc) { return 0; }";
  bad "void main() { }";
  bad "int nope() { return 0; }";
  (* last one has no main at all *)
  bad "int __evil() { return 0; }\nint main() { return 0; }"

let test_typecheck_missing_main () =
  bad "int f() { return 0; }"

let test_typecheck_intrinsics () =
  ok "int main() { __send(0, 1); __barrier(2); return __recv(1); }";
  bad "int main() { __send(1.0, 1); return 0; }";
  bad "int main() { return __recvf(0); }"

let suite =
  [
    Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex float" `Quick test_lex_float;
    Alcotest.test_case "lex pragma" `Quick test_lex_pragma;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "lex line numbers" `Quick test_lex_line_numbers;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse shift precedence" `Quick test_parse_shift_precedence;
    Alcotest.test_case "parse unary" `Quick test_parse_unary;
    Alcotest.test_case "parse for" `Quick test_parse_for;
    Alcotest.test_case "parse pragma attach" `Quick test_parse_pragma_attach;
    Alcotest.test_case "parse globals" `Quick test_parse_globals;
    Alcotest.test_case "parse call/index" `Quick test_parse_call_and_index;
    Alcotest.test_case "parse dangling else" `Quick test_parse_dangling_else;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "typecheck ok" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck bad" `Quick test_typecheck_bad;
    Alcotest.test_case "typecheck missing main" `Quick test_typecheck_missing_main;
    Alcotest.test_case "typecheck intrinsics" `Quick test_typecheck_intrinsics;
  ]

(* ---------------- pretty-printer round trip ---------------- *)

(* print -> parse -> print must be a fixpoint, over every bundled
   workload (pragma-carrying, multi-function, float-using sources) *)
let test_printer_round_trip () =
  List.iter
    (fun (w : Lp_workloads.Workload.t) ->
      let src = w.Lp_workloads.Workload.source in
      let p1 = Lp_lang.Ast_printer.program_to_string (parse src) in
      let p2 = Lp_lang.Ast_printer.program_to_string (parse p1) in
      if p1 <> p2 then
        Alcotest.failf "%s: printer not a fixpoint" w.Lp_workloads.Workload.name;
      (* and the reprinted program still type-checks *)
      Typecheck.check_program (parse p1))
    Lp_workloads.Suite.all

(* the parallelizer's generated program must also survive the round trip *)
let test_printer_round_trip_generated () =
  let w = Lp_workloads.Suite.find_exn "fir" in
  let ast = parse w.Lp_workloads.Workload.source in
  Typecheck.check_program ast;
  let det = Lp_patterns.Detect.detect ast in
  let (gen, _) =
    Lp_transforms.Parallelize.run ~n_cores:4 ast
      det.Lp_patterns.Pattern.instances
  in
  let p1 = Lp_lang.Ast_printer.program_to_string gen in
  let p2 = Lp_lang.Ast_printer.program_to_string (parse p1) in
  Alcotest.(check string) "generated fixpoint" p1 p2;
  Typecheck.check_program (parse p1)

(* a decimal literal above [max_int] is a lex error (E_LEX), not an
   uncaught [Failure]; one that fits still lexes *)
let test_lex_int_out_of_range () =
  let src = "int main() {\n  int x = 99999999999999999999999; return x; }" in
  (match Lexer.tokenize src with
  | _ -> fail "expected lex error"
  | exception Lexer.Lex_error (msg, line) ->
    check Alcotest.string "message" "integer literal out of range" msg;
    check Alcotest.int "line" 2 line);
  (match
     Lowpower.Compile.compile_result
       ~machine:(Lp_machine.Machine.generic ~n_cores:4 ()) src
   with
  | Error d -> check Alcotest.string "code" "E_LEX" d.Lp_util.Diag.code
  | Ok _ -> fail "expected E_LEX");
  match tokens (string_of_int max_int ^ " 4611686018427387904.5") with
  | [ Ref.INT_LIT n; Ref.FLOAT_LIT f; Ref.EOF ] ->
    check Alcotest.int "max_int" max_int n;
    check (Alcotest.float 0.0) "float" 4611686018427387904.5 f
  | _ -> fail "max_int literal"

let suite =
  suite
  @ [
      Alcotest.test_case "printer round trip" `Quick test_printer_round_trip;
      Alcotest.test_case "printer round trip (generated)" `Quick
        test_printer_round_trip_generated;
      Alcotest.test_case "lex integer literal out of range" `Quick
        test_lex_int_out_of_range;
    ]

(* ---------------- lexer vs reference lexer ---------------- *)

(* what a lexer makes of a source: its located tokens, or its error *)
let lex_new src =
  match Lexer.tokenize src with
  | t -> Ok (located t)
  | exception Lexer.Lex_error (msg, line) -> Error (msg, line)

let lex_ref src =
  match Ref.tokenize src with
  | toks -> Ok toks
  | exception Ref.Lex_error (msg, line) -> Error (msg, line)

(* float literals compare bit for bit *)
let same_located (a : Ref.located) (b : Ref.located) =
  a.Ref.line = b.Ref.line && a.Ref.col = b.Ref.col
  &&
  match (a.Ref.tok, b.Ref.tok) with
  | (Ref.FLOAT_LIT x, Ref.FLOAT_LIT y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (x, y) -> x = y

let show_located (l : Ref.located) =
  Printf.sprintf "%s@%d:%d" (Ref.token_to_string l.Ref.tok) l.Ref.line l.Ref.col

(* [None] when both lexers agree on [src], else both results *)
let disagreement src =
  let show = function
    | Ok toks -> String.concat " " (List.map show_located toks)
    | Error (msg, line) -> Printf.sprintf "Lex_error (%S, %d)" msg line
  in
  let a = lex_new src and r = lex_ref src in
  let same =
    match (a, r) with
    | (Ok a, Ok r) -> List.equal same_located a r
    | (Error e, Error e') -> e = e'
    | _ -> false
  in
  if same then None
  else Some (Printf.sprintf "%s\nreference: %s" (show a) (show r))

(* one lexical error, inserted at offset [at] modulo the source's length + 1 *)
let lex_faults =
  [ "$"; "/* never closed"; "\n#pragma omp parallel\n";
    "99999999999999999999999"; "4611686018427387904" (* max_int + 1 *) ]

let with_fault src fault at =
  let at = at mod (String.length src + 1) in
  String.sub src 0 at ^ fault ^ String.sub src at (String.length src - at)

let agree ~what src =
  match disagreement src with
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "%s: %s" what d

(* a generated program, and the same program with each lexical error
   inserted at a seeded offset *)
let prop_lexers_agree_generated =
  QCheck.Test.make ~count:500 ~name:"lexer == reference lexer (generated programs)"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (seed, at) ->
      let src = (Lp_robust.Gen.generate ~seed).Lp_robust.Gen.source in
      agree ~what:(Printf.sprintf "seed %d" seed) src
      && List.for_all
           (fun fault ->
             agree
               ~what:(Printf.sprintf "seed %d, %S at %d" seed fault at)
               (with_fault src fault at))
           lex_faults)

(* random text over MiniC's alphabet: operators split and merged at every
   boundary, literals running into identifiers, stray bytes *)
let prop_lexers_agree_text =
  let alphabet = "09a_Z(){}[];,+-*/%^~<>=!&|.# \n\t\r$pragm lx" in
  QCheck.Test.make ~count:2000 ~name:"lexer == reference lexer (random text)"
    QCheck.(
      string_gen_of_size Gen.(int_range 0 60)
        Gen.(map (String.get alphabet) (int_bound (String.length alphabet - 1))))
    (fun src -> agree ~what:(Printf.sprintf "%S" src) src)

(* the bundled sources, as they are and with each error inserted *)
let test_lexers_agree_bundled () =
  List.iter
    (fun (w : Lp_workloads.Workload.t) ->
      let src = w.Lp_workloads.Workload.source in
      let check_one what src =
        match disagreement src with
        | None -> ()
        | Some d -> Alcotest.failf "%s: %s" what d
      in
      check_one w.Lp_workloads.Workload.name src;
      List.iteri
        (fun k fault ->
          List.iter
            (fun at ->
              check_one
                (Printf.sprintf "%s, %S at %d" w.Lp_workloads.Workload.name
                   fault at)
                (with_fault src fault at))
            [ 0; String.length src / (k + 2); String.length src ])
        lex_faults)
    Lp_workloads.Suite.all

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_lexers_agree_generated;
      QCheck_alcotest.to_alcotest prop_lexers_agree_text;
      Alcotest.test_case "lexer == reference lexer (bundled sources)" `Quick
        test_lexers_agree_bundled;
    ]
