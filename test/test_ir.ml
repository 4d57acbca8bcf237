(** IR construction, lowering, printing and verification tests. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Builder = Lp_ir.Builder
module Lower = Lp_ir.Lower
module Printer = Lp_ir.Printer
module Verify = Lp_ir.Verify
module Component = Lp_power.Component

let fail = Alcotest.fail
let check = Alcotest.check

let lower src =
  let ast = Lp_lang.Parser.parse_program src in
  Lp_lang.Typecheck.check_program ast;
  Lower.lower_program ast

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------------- lowering ---------------- *)

let test_lower_simple () =
  let prog = lower "int main() { return 2 + 3; }" in
  let s = Printer.prog_to_string prog in
  if not (contains s "add") then fail ("no add in:\n" ^ s);
  Verify.verify_prog prog

let test_lower_loop_shape () =
  let prog = lower "int g[4];\nint main() { for (int i = 0; i < 4; i = i + 1) { g[i] = i; } return 0; }" in
  let s = Printer.prog_to_string prog in
  List.iter
    (fun needle -> if not (contains s needle) then fail ("missing " ^ needle))
    [ "lt"; "br"; "store @g" ];
  Verify.verify_prog prog

let test_lower_global_scalar_is_memory () =
  let prog = lower "int s;\nint main() { s = 7; return s; }" in
  let s = Printer.prog_to_string prog in
  if not (contains s "store @s[0]") then fail "global scalar store";
  if not (contains s "load @s[0]") then fail "global scalar load"

let test_lower_short_circuit_blocks () =
  (* && must lower to control flow, not a bitwise and *)
  let prog = lower "int main() { int a = 1; int b = 2; if (a && b) { return 1; } return 0; }" in
  let f = Prog.func_exn prog "main" in
  if List.length f.Prog.block_order < 4 then fail "no control flow for &&"

let test_lower_intrinsics () =
  let src =
    "int gc;\nint main() { __send(1, 5); int x = __recv(0); __barrier(0); \
     int y = __faa(gc, 2); return x + y; }"
  in
  let prog = lower src in
  let s = Printer.prog_to_string prog in
  List.iter
    (fun needle -> if not (contains s needle) then fail ("missing " ^ needle))
    [ "send ch1"; "recv.i ch0"; "barrier 0"; "faa @gc" ]

let test_lower_float_ops () =
  let prog = lower "int main() { float x = 1.5; float y = x * 2.0; return int(y); }" in
  let s = Printer.prog_to_string prog in
  if not (contains s "fmul") then fail "no fmul";
  if not (contains s "f2i") then fail "no f2i"

let test_lower_frame_arrays () =
  let prog = lower "int main() { int buf[8]; buf[0] = 1; return buf[0]; }" in
  let f = Prog.func_exn prog "main" in
  match f.Prog.frame_arrays with
  | [ (_, Ir.I, 8) ] -> ()
  | _ -> fail "frame array metadata"

(* ---------------- component metadata ---------------- *)

let test_component_of () =
  let cases =
    [
      (Ir.Binop (Ir.Add, 0, Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2)), Component.Alu);
      (Ir.Binop (Ir.Mul, 0, Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2)), Component.Multiplier);
      (Ir.Binop (Ir.Div, 0, Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2)), Component.Divider);
      (Ir.Binop (Ir.Shl, 0, Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2)), Component.Shifter);
      (Ir.Binop (Ir.Fadd, 0, Ir.Imm (Ir.Cfloat 1.0), Ir.Imm (Ir.Cfloat 2.0)), Component.Fpu);
      (Ir.Mac (0, Ir.Imm (Ir.Cint 0), Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2)), Component.Mac);
      (Ir.Load (0, { Ir.sym_name = "x"; sym_space = Ir.Shared }, Ir.Imm (Ir.Cint 0)),
       Component.Load_store);
    ]
  in
  List.iteri
    (fun k (idesc, expected) ->
      let i = { Ir.iid = k; idesc; loc = Ir.no_loc } in
      if Ir.component_of i <> expected then
        Alcotest.failf "component_of case %d" k)
    cases

let test_uses_def () =
  let i = { Ir.iid = 0; idesc = Ir.Binop (Ir.Add, 5, Ir.Reg 1, Ir.Reg 2);
            loc = Ir.no_loc } in
  check Alcotest.(list int) "uses" [ 1; 2 ] (Ir.uses i);
  check Alcotest.(option int) "def" (Some 5) (Ir.def i);
  let st = { Ir.iid = 1; idesc = Ir.Store ({ Ir.sym_name = "a"; sym_space = Ir.Shared },
                                           Ir.Reg 3, Ir.Reg 4);
             loc = Ir.no_loc } in
  check Alcotest.(option int) "store def" None (Ir.def st);
  check Alcotest.(list int) "store uses" [ 3; 4 ] (Ir.uses st)

(* ---------------- builder ---------------- *)

let test_builder () =
  let f = Prog.create_func ~name:"f" ~params:[ Ir.I ] ~ret:(Some Ir.I) in
  let b = Builder.create f in
  let (p, _) = List.hd f.Prog.params in
  let d = Builder.binop b Ir.Add (Ir.Reg p) (Ir.Imm (Ir.Cint 1)) in
  Builder.set_term b (Ir.Ret (Some (Ir.Reg d)));
  let prog = Prog.create ~globals:[] in
  Prog.add_func prog f;
  Verify.verify_func prog f;
  check Alcotest.int "one instr" 1 (Prog.instr_count f)

let test_builder_double_term () =
  let f = Prog.create_func ~name:"f" ~params:[] ~ret:None in
  let b = Builder.create f in
  Builder.set_term b (Ir.Ret None);
  Alcotest.check_raises "emit after seal"
    (Invalid_argument "Builder.emit: current block already terminated")
    (fun () -> ignore (Builder.int_const b 1))

(* ---------------- verifier ---------------- *)

let expect_invalid what g =
  let prog = Prog.create ~globals:[] in
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  Prog.add_func prog f;
  g prog f;
  try
    Verify.verify_prog prog;
    Alcotest.failf "verifier accepted: %s" what
  with Verify.Invalid _ -> ()

let test_verify_bad_target () =
  expect_invalid "branch to unknown block" (fun _prog f ->
      (Prog.block f f.Prog.entry).Ir.term <- Ir.Jmp 999)

let test_verify_undefined_reg () =
  expect_invalid "use of undefined register" (fun _prog f ->
      (Prog.block f f.Prog.entry).Ir.term <- Ir.Ret (Some (Ir.Reg 77)))

let test_verify_unknown_global () =
  expect_invalid "load from unknown global" (fun _prog f ->
      let b = Prog.block f f.Prog.entry in
      b.Ir.instrs <-
        [ Prog.new_instr f
            (Ir.Load (Prog.new_reg f, { Ir.sym_name = "nope"; sym_space = Ir.Shared },
                      Ir.Imm (Ir.Cint 0))) ];
      b.Ir.term <- Ir.Ret (Some (Ir.Imm (Ir.Cint 0))))

let test_verify_rom_write () =
  let prog =
    Prog.create ~globals:[ { Prog.gsym = "t"; gty = Ir.I; gsize = 4; ginit = None } ]
  in
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  Prog.add_func prog f;
  let b = Prog.block f f.Prog.entry in
  b.Ir.instrs <-
    [ Prog.new_instr f
        (Ir.Store ({ Ir.sym_name = "t"; sym_space = Ir.Rom }, Ir.Imm (Ir.Cint 0),
                   Ir.Imm (Ir.Cint 1))) ];
  b.Ir.term <- Ir.Ret (Some (Ir.Imm (Ir.Cint 0)));
  (try
     Verify.verify_prog prog;
     fail "verifier accepted a ROM write"
   with Verify.Invalid _ -> ())

let test_verify_intrinsic_in_sequential () =
  expect_invalid "send in sequential program" (fun _prog f ->
      let b = Prog.block f f.Prog.entry in
      b.Ir.instrs <- [ Prog.new_instr f (Ir.Send (0, Ir.Imm (Ir.Cint 1))) ];
      b.Ir.term <- Ir.Ret (Some (Ir.Imm (Ir.Cint 0))))

let test_verify_channel_range () =
  let prog = Prog.create ~globals:[] in
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  Prog.add_func prog f;
  let b = Prog.block f f.Prog.entry in
  b.Ir.instrs <- [ Prog.new_instr f (Ir.Send (5, Ir.Imm (Ir.Cint 1))) ];
  b.Ir.term <- Ir.Ret (Some (Ir.Imm (Ir.Cint 0)));
  prog.Prog.layout <-
    Prog.Parallel { entries = [ "main" ]; n_channels = 2; n_barriers = 0;
                    chan_capacity = 4 };
  try
    Verify.verify_prog prog;
    fail "verifier accepted out-of-range channel"
  with Verify.Invalid _ -> ()

(* every register holds one class of value, int or float *)
let test_verify_two_classes () =
  expect_invalid "register defined as both int and float" (fun _prog f ->
      let b = Prog.block f f.Prog.entry in
      let r = Prog.new_reg f in
      b.Ir.instrs <-
        [ Prog.new_instr f (Ir.Const (r, Ir.Cint 1));
          Prog.new_instr f (Ir.Const (r, Ir.Cfloat 1.5)) ];
      b.Ir.term <- Ir.Ret (Some (Ir.Imm (Ir.Cint 0))))

let test_verify_move_across_classes () =
  expect_invalid "move of a float register into an int register"
    (fun _prog f ->
      let b = Prog.block f f.Prog.entry in
      let ri = Prog.new_reg f and rf = Prog.new_reg f in
      b.Ir.instrs <-
        [ Prog.new_instr f (Ir.Const (ri, Ir.Cint 1));
          Prog.new_instr f (Ir.Const (rf, Ir.Cfloat 1.5));
          Prog.new_instr f (Ir.Move (ri, Ir.Reg rf)) ];
      b.Ir.term <- Ir.Ret (Some (Ir.Reg ri)))

(* every workload's lowered program verifies *)
let test_verify_all_workloads () =
  List.iter
    (fun (w : Lp_workloads.Workload.t) ->
      Verify.verify_prog (lower w.Lp_workloads.Workload.source))
    Lp_workloads.Suite.all

(* ---------------- the verifier's rules: one rejection each ---------------- *)

let imm n = Ir.Imm (Ir.Cint n)
let fimm x = Ir.Imm (Ir.Cfloat x)
let global name = { Ir.sym_name = name; sym_space = Ir.Shared }

(** [main] runs [body] and returns 0, beside an int global [g], a float
    global [fg], [id(int) : int] and [void0()], in a parallel layout with
    one channel. *)
let class_prog body =
  let prog =
    Prog.create
      ~globals:
        [ { Prog.gsym = "g"; gty = Ir.I; gsize = 4; ginit = None };
          { Prog.gsym = "fg"; gty = Ir.F; gsize = 4; ginit = None } ]
  in
  let id = Prog.create_func ~name:"id" ~params:[ Ir.I ] ~ret:(Some Ir.I) in
  Builder.set_term (Builder.create id)
    (Ir.Ret (Some (Ir.Reg (fst (List.hd id.Prog.params)))));
  let main = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let b = Builder.create main in
  body b;
  Builder.set_term b (Ir.Ret (Some (imm 0)));
  List.iter (Prog.add_func prog)
    [ main; id; Prog.create_func ~name:"void0" ~params:[] ~ret:None ];
  prog.Prog.layout <-
    Prog.Parallel
      { entries = [ "main" ]; n_channels = 1; n_barriers = 0;
        chan_capacity = 1 };
  prog

(** Each rule of the class check, and the layout's listing every block:
    a program that breaks it, and what the rejection says. *)
let class_rejections =
  let reg b mk = ignore (Builder.emit_reg b mk) in
  [
    ( "float operand of an int operator", "float operand where int",
      fun b -> ignore (Builder.binop b Ir.Add (imm 1) (fimm 1.5)) );
    ( "int operand of a float operator", "int operand where float",
      fun b -> ignore (Builder.binop b Ir.Fmul (fimm 1.5) (imm 1)) );
    ( "float operand of a mac", "float operand where int",
      fun b -> reg b (fun d -> Ir.Mac (d, imm 1, fimm 1.5, imm 2)) );
    ( "float index", "float operand where int",
      fun b -> ignore (Builder.load b (global "g") (fimm 1.5)) );
    ( "float fetch-add amount", "float operand where int",
      fun b -> reg b (fun d -> Ir.Faa (d, global "g", fimm 1.5)) );
    ( "float branch condition", "branches on a float",
      fun b ->
        let l = (Builder.new_block b).Ir.bid in
        Builder.set_term b (Ir.Br (fimm 1.5, l, l));
        Builder.switch_to b (Prog.block (Builder.func b) l) );
    ( "float stored into an int global", "float operand where int",
      fun b -> Builder.store b (global "g") (imm 0) (fimm 1.5) );
    ( "fetch-add on a float global", "fetch-add on float symbol fg",
      fun b -> reg b (fun d -> Ir.Faa (d, global "fg", imm 1)) );
    ( "too many arguments", "passes 2 argument(s) to id",
      fun b -> ignore (Builder.call_reg b "id" [ imm 1; imm 2 ]) );
    ( "too few arguments", "passes 0 argument(s) to id",
      fun b -> ignore (Builder.call_reg b "id" []) );
    ( "result of a void call", "takes a result from void0",
      fun b -> ignore (Builder.call_reg b "void0" []) );
    ( "call to an unknown function", "unknown function nowhere",
      fun b -> Builder.call b ~dst:None "nowhere" [] );
    ( "load from an unknown frame array", "unknown frame array nope",
      fun b ->
        let nope = { Ir.sym_name = "nope"; sym_space = Ir.Frame } in
        ignore (Builder.load b nope (imm 0)) );
    ( "channel of two classes", "channel 0 carries float",
      fun b ->
        ignore (Builder.emit b (Ir.Send (0, fimm 1.5)));
        reg b (fun d -> Ir.Recv (d, 0, Ir.I)) );
    ( "block missing from the layout", "is not in the layout",
      fun b ->
        let f = Builder.func b in
        let l = (Builder.new_block b).Ir.bid in
        f.Prog.block_order <- List.filter (( <> ) l) f.Prog.block_order );
  ]

let test_class_rejection (name, says, body) () =
  (* the program around [body] verifies on its own *)
  Verify.verify_prog (class_prog ignore);
  match Verify.verify_prog (class_prog body) with
  | () -> Alcotest.failf "verifier accepted: %s" name
  | exception Verify.Invalid msg ->
    if not (contains msg says) then
      Alcotest.failf "%s: %S does not say %S" name msg says

let suite =
  [
    Alcotest.test_case "lower simple" `Quick test_lower_simple;
    Alcotest.test_case "lower loop shape" `Quick test_lower_loop_shape;
    Alcotest.test_case "lower global scalar" `Quick test_lower_global_scalar_is_memory;
    Alcotest.test_case "lower short circuit" `Quick test_lower_short_circuit_blocks;
    Alcotest.test_case "lower intrinsics" `Quick test_lower_intrinsics;
    Alcotest.test_case "lower float ops" `Quick test_lower_float_ops;
    Alcotest.test_case "lower frame arrays" `Quick test_lower_frame_arrays;
    Alcotest.test_case "component_of" `Quick test_component_of;
    Alcotest.test_case "uses/def" `Quick test_uses_def;
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "builder double term" `Quick test_builder_double_term;
    Alcotest.test_case "verify bad target" `Quick test_verify_bad_target;
    Alcotest.test_case "verify undefined reg" `Quick test_verify_undefined_reg;
    Alcotest.test_case "verify unknown global" `Quick test_verify_unknown_global;
    Alcotest.test_case "verify rom write" `Quick test_verify_rom_write;
    Alcotest.test_case "verify intrinsic in sequential" `Quick
      test_verify_intrinsic_in_sequential;
    Alcotest.test_case "verify channel range" `Quick test_verify_channel_range;
    Alcotest.test_case "verify two classes" `Quick test_verify_two_classes;
    Alcotest.test_case "verify move across classes" `Quick
      test_verify_move_across_classes;
    Alcotest.test_case "verify all workloads" `Quick test_verify_all_workloads;
  ]
  @ List.map
      (fun ((name, _, _) as case) ->
        Alcotest.test_case ("verify rejects " ^ name) `Quick
          (test_class_rejection case))
      class_rejections
