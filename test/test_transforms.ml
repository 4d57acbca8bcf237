(** Classic-pass tests: constant folding, DCE, CFG simplification,
    MAC fusion, strength reduction, LICM, constant promotion. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Printer = Lp_ir.Printer
module Verify = Lp_ir.Verify
module T = Lp_transforms

let fail = Alcotest.fail
let check = Alcotest.check

let lower src =
  let ast = Lp_lang.Parser.parse_program src in
  Lp_lang.Typecheck.check_program ast;
  Lp_ir.Lower.lower_program ast

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let run_classic prog =
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Dce.pass ]
    prog;
  Verify.verify_prog prog;
  pm

let count_op prog op_string =
  let s = Printer.prog_to_string prog in
  let parts = String.split_on_char '\n' s in
  List.length (List.filter (fun l -> contains l op_string) parts)

(* ---------------- constant folding ---------------- *)

let test_constfold_arith () =
  let prog = lower "int main() { return 2 + 3 * 4; }" in
  ignore (run_classic prog);
  let s = Printer.prog_to_string prog in
  if not (contains s "ret 14") then fail ("2+3*4 not folded:\n" ^ s)

let test_constfold_agrees_with_sim () =
  (* folding must produce the same value the simulator computes *)
  let src =
    "int main() { return (123456 * 789) % 1000 + (7 / 2) - (-9 % 4) + (1 << 20); }"
  in
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let (_, folded) = Lowpower.Compile.run ~opts:Lowpower.Compile.baseline ~machine src in
  (* compile without any optimisation: lower and simulate directly *)
  let raw = lower src in
  let raw_out = Lp_sim.Sim.run ~machine raw in
  check Alcotest.bool "same result" true
    (folded.Lp_sim.Sim.ret = raw_out.Lp_sim.Sim.ret)

let test_constfold_identities () =
  let prog = lower
      "int main() { int x = 5; int a = x * 1; int b = x + 0; int c = x * 0; return a + b + c; }"
  in
  ignore (run_classic prog);
  check Alcotest.int "no multiplies left" 0 (count_op prog "mul")

let test_constfold_branch () =
  let prog = lower "int main() { if (1 < 2) { return 10; } return 20; }" in
  ignore (run_classic prog);
  let f = Prog.func_exn prog "main" in
  (* the false arm must be gone entirely *)
  check Alcotest.int "single block" 1 (List.length f.Prog.block_order);
  if not (contains (Printer.prog_to_string prog) "ret 10") then fail "wrong arm"

let test_constfold_div_by_zero_preserved () =
  (* folding must NOT fold a division by zero away into garbage; the
     simulator still traps *)
  let prog = lower "int main() { return 1 / 0; }" in
  ignore (run_classic prog);
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  try
    ignore (Lp_sim.Sim.run ~machine prog);
    fail "division by zero not trapped"
  with Lp_sim.Value.Runtime_error _ -> ()

(* ---------------- dce ---------------- *)

let test_dce_removes_dead () =
  let prog = lower "int main() { int dead = 12345; int live = 7; return live; }" in
  ignore (run_classic prog);
  if contains (Printer.prog_to_string prog) "12345" then fail "dead code kept"

let test_dce_keeps_stores () =
  let prog = lower "int g[4];\nint main() { g[0] = 9; return 0; }" in
  ignore (run_classic prog);
  if not (contains (Printer.prog_to_string prog) "store @g") then
    fail "store wrongly removed"

let test_dce_keeps_calls () =
  let prog = lower
      "int g;\nint effect() { g = 1; return 0; }\nint main() { int x = effect(); return 0; }"
  in
  ignore (run_classic prog);
  if not (contains (Printer.prog_to_string prog) "call effect") then
    fail "call with side effects removed"

(* ---------------- simplify-cfg ---------------- *)

let test_simplify_merges_blocks () =
  let prog = lower "int main() { int a = 1; { int b = 2; { int c = 3; return a + b + c; } } }" in
  ignore (run_classic prog);
  let f = Prog.func_exn prog "main" in
  check Alcotest.int "merged to one block" 1 (List.length f.Prog.block_order)

let test_simplify_threads_empty () =
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let empty1 = Prog.new_block f in
  let empty2 = Prog.new_block f in
  let final = Prog.new_block f in
  (Prog.block f f.Prog.entry).Ir.term <- Ir.Jmp empty1.Ir.bid;
  empty1.Ir.term <- Ir.Jmp empty2.Ir.bid;
  empty2.Ir.term <- Ir.Jmp final.Ir.bid;
  final.Ir.term <- Ir.Ret (Some (Ir.Imm (Ir.Cint 0)));
  let prog = Prog.create ~globals:[] in
  Prog.add_func prog f;
  let changes = T.Simplify_cfg.run_func (Lp_analysis.Manager.create prog) f in
  if changes = 0 then fail "no simplification";
  check Alcotest.int "one block" 1 (List.length f.Prog.block_order)

(* A chain entry -> a -> b -> c, laid out backwards, collapses in one
   merge call: each merge hands the absorbed block's successor its new
   sole predecessor, so the same block keeps absorbing. *)
let test_simplify_merges_chain_in_one_call () =
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let a = Prog.new_block f in
  let b = Prog.new_block f in
  let c = Prog.new_block f in
  let entry = Prog.block f f.Prog.entry in
  (* one instruction per block, so none is an empty forwarding block *)
  let def (blk : Ir.block) k =
    let r = Prog.new_reg f in
    blk.Ir.instrs <- [ Prog.new_instr f (Ir.Const (r, Ir.Cint k)) ];
    r
  in
  List.iteri (fun k blk -> ignore (def blk k)) [ entry; a; b ];
  let r = def c 3 in
  entry.Ir.term <- Ir.Jmp a.Ir.bid;
  a.Ir.term <- Ir.Jmp b.Ir.bid;
  b.Ir.term <- Ir.Jmp c.Ir.bid;
  c.Ir.term <- Ir.Ret (Some (Ir.Reg r));
  f.Prog.block_order <- [ f.Prog.entry; c.Ir.bid; b.Ir.bid; a.Ir.bid ];
  Prog.touch f;
  let prog = Prog.create ~globals:[] in
  Prog.add_func prog f;
  let merged =
    T.Simplify_cfg.merge_linear (Lp_analysis.Manager.create prog) f
  in
  check Alcotest.int "three merges in one call" 3 merged;
  check Alcotest.(list int) "one block left" [ f.Prog.entry ] f.Prog.block_order;
  check Alcotest.(list int) "instructions in chain order" [ 0; 1; 2; 3 ]
    (List.filter_map
       (fun (i : Ir.instr) ->
         match i.Ir.idesc with Ir.Const (_, Ir.Cint k) -> Some k | _ -> None)
       entry.Ir.instrs);
  Verify.verify_prog prog

(* ---------------- mac fusion ---------------- *)

let test_mac_fusion_fuses () =
  let prog = lower
      "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i * 3; } return s; }"
  in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm [ T.Simplify_cfg.pass; T.Constfold.pass; T.Dce.pass ] prog;
  ignore (T.Pass.run_pass pm T.Mac_fusion.pass prog);
  T.Pass.run_to_fixpoint pm [ T.Constfold.pass; T.Dce.pass ] prog;
  Verify.verify_prog prog;
  if count_op prog "mac" = 0 then fail "no mac formed";
  check Alcotest.int "mul consumed" 0 (count_op prog "mul");
  (* and the result is unchanged *)
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let out = Lp_sim.Sim.run ~machine prog in
  check Alcotest.bool "value" true
    (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint 18))

let test_mac_fusion_respects_multiuse () =
  (* t = a*b used twice: cannot fuse *)
  let prog = lower
      "int main() { int a = 3; int b = 4; int t = a * b; return (1 + t) + (2 + t); }"
  in
  let pm = T.Pass.create_manager () in
  ignore (T.Pass.run_pass pm T.Mac_fusion.pass prog);
  Verify.verify_prog prog;
  if count_op prog "mac" <> 0 then fail "fused a multi-use multiply"

(* ---------------- strength reduction ---------------- *)

let test_strength_pow2 () =
  let prog = lower "int main() { int x = 5; return x * 8; }" in
  ignore (T.Strength.run_func (Prog.func_exn prog "main"));
  let s = Printer.prog_to_string prog in
  if not (contains s "shl") then fail "x*8 not reduced to shift";
  if contains s "mul" then fail "multiply still present";
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let out = Lp_sim.Sim.run ~machine prog in
  check Alcotest.bool "value" true (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint 40))

let test_strength_leaves_non_pow2 () =
  let prog = lower "int main() { int x = 5; return x * 6; }" in
  check Alcotest.int "no change" 0 (T.Strength.run_func (Prog.func_exn prog "main"))

let test_strength_leaves_div () =
  (* -7 / 2 = -3 (truncation) but -7 asr 1 = -4: division must survive *)
  let prog = lower "int main() { int x = -7; return x / 2; }" in
  ignore (T.Strength.run_func (Prog.func_exn prog "main"));
  if not (contains (Printer.prog_to_string prog) "div") then
    fail "division strength-reduced unsoundly";
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let out = Lp_sim.Sim.run ~machine prog in
  check Alcotest.bool "value" true (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint (-3)))

(* ---------------- licm ---------------- *)

let test_licm_hoists () =
  let prog = lower
      "int g[64];\nint main() { int a = 6; int b = 7; for (int i = 0; i < 64; i = i + 1) { g[i] = i + a * b; } return 0; }"
  in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm [ T.Simplify_cfg.pass; T.Constfold.pass; T.Dce.pass ] prog;
  (* a*b is constant-folded; use registers the folder cannot see through:
     recompute on a fresh program with opaque values *)
  let prog = lower
      "int g[64];\nint opaque(int x) { return x + 1; }\nint main() { int a = opaque(5); int b = opaque(6); for (int i = 0; i < 64; i = i + 1) { g[i] = i + a * b; } return 0; }"
  in
  let f = Prog.func_exn prog "main" in
  let before_mul_in_loop =
    let loops = Lp_analysis.Loops.find f in
    let l = List.hd loops in
    Lp_analysis.Loops.LS.fold
      (fun bid acc ->
        acc
        + List.length
            (List.filter
               (fun (i : Ir.instr) ->
                 match i.Ir.idesc with Ir.Binop (Ir.Mul, _, _, _) -> true | _ -> false)
               (Prog.block f bid).Ir.instrs))
      l.Lp_analysis.Loops.blocks 0
  in
  check Alcotest.int "mul initially in loop" 1 before_mul_in_loop;
  let hoisted = T.Licm.run_func f in
  if hoisted = 0 then fail "nothing hoisted";
  Verify.verify_prog prog;
  (* result preserved *)
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  ignore (Lp_sim.Sim.run ~machine prog)

let test_licm_no_div_hoist () =
  (* division guarded by the loop condition must not be hoisted *)
  let prog = lower
      "int opaque(int x) { return x; }\nint main() { int d = opaque(0); int s = 0; for (int i = 0; i < d; i = i + 1) { s = s + 10 / d; } return s; }"
  in
  let f = Prog.func_exn prog "main" in
  ignore (T.Licm.run_func f);
  Verify.verify_prog prog;
  (* trip count is zero so the division must never execute *)
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let out = Lp_sim.Sim.run ~machine prog in
  check Alcotest.bool "value 0" true (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint 0))

(* ---------------- constant promotion ---------------- *)

let test_const_promote () =
  let prog = lower
      "int table[4] = {1,2,3,4};\nint out[4];\nint main() { for (int i = 0; i < 4; i = i + 1) { out[i] = table[i]; } return 0; }"
  in
  let n = T.Const_promote.run prog in
  if n = 0 then fail "no promotion";
  let s = Printer.prog_to_string prog in
  if not (contains s "@ro:table") then fail "table not promoted";
  if contains s "@ro:out" then fail "written array promoted"

let test_const_promote_faa_blocks () =
  let prog = lower
      "int ctr;\nint main() { return ctr; }"
  in
  (* ctr is never written here: promoted *)
  ignore (T.Const_promote.run prog);
  if not (contains (Printer.prog_to_string prog) "@ro:ctr") then
    fail "read-only scalar not promoted"

(* ---------------- pass manager ---------------- *)

let test_pass_manager_stats () =
  let prog = lower "int main() { return 1 + 2; }" in
  let pm = T.Pass.create_manager () in
  ignore (T.Pass.run_pass pm T.Constfold.pass prog);
  ignore (T.Pass.run_pass pm T.Constfold.pass prog);
  match T.Pass.stats pm with
  | [ s ] ->
    check Alcotest.string "name" "constfold" s.T.Pass.pass_name;
    check Alcotest.int "runs" 2 s.T.Pass.runs
  | _ -> fail "stats aggregation"

(* ---------------- no-op pass-run memo ---------------- *)

(** [p] plus a count of how often its body actually ran. *)
let counted (p : T.Pass.func_pass) =
  let calls = ref 0 in
  ( { p with T.Pass.run = (fun am prog f -> incr calls; p.T.Pass.run am prog f) },
    calls )

let test_pass_memo () =
  let prog =
    lower
      "int g[4] = {1, 2, 3, 4};
       int twice(int x) { int unused = x + 7; return x * 2; }
       int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + twice(g[i]); } return s; }"
  in
  let nfuncs = List.length (Prog.funcs prog) in
  let pm = T.Pass.create_manager () in
  let (dce, dce_calls) = counted T.Dce.pass in
  let runs () =
    (List.find (fun s -> s.T.Pass.pass_name = "dce") (T.Pass.stats pm)).T.Pass.runs
  in
  check Alcotest.bool "first dce run removes code" true
    (T.Pass.run_pass pm dce prog > 0);
  while T.Pass.run_pass pm dce prog > 0 do () done;
  (* the last run changed nothing: every function is clean at its
     current version *)
  let settled = !dce_calls and settled_runs = runs () in
  check Alcotest.int "repeat changes nothing" 0 (T.Pass.run_pass pm dce prog);
  check Alcotest.int "repeat on untouched functions does no work" settled
    !dce_calls;
  check Alcotest.int "skipped runs still count" (settled_runs + 1) (runs ());
  Prog.touch (Prog.func_exn prog "main");
  ignore (T.Pass.run_pass pm dce prog);
  check Alcotest.int "after touch, dce runs again (on main only)"
    (settled + 1) !dce_calls;
  (* const-promote reads every function's stores: never skipped, even
     after a run that changed nothing *)
  let (promote, promote_calls) = counted T.Const_promote.pass in
  for _ = 1 to 3 do
    ignore (T.Pass.run_pass pm promote prog)
  done;
  check Alcotest.int "const-promote never skipped" (3 * nfuncs) !promote_calls;
  (* with the analysis cache off the memo is off too *)
  let pm_off = T.Pass.create_manager ~caching:false () in
  let (dce_off, off_calls) = counted T.Dce.pass in
  ignore (T.Pass.run_pass pm_off dce_off prog);
  ignore (T.Pass.run_pass pm_off dce_off prog);
  check Alcotest.int "cache off: every run executes" (2 * nfuncs) !off_calls

(* A NaN constant used to keep constprop's fixpoint from ever settling:
   under polymorphic equality [nan <> nan], so every sweep "changed". *)
let test_constprop_nan_terminates () =
  let src =
    "int main() { float z = 0.0; float x = z / z; int r = 0; if (r < 1) { r = 2; } if (x == x) { r = r + 1; } return r; }"
  in
  let machine = Lp_machine.Machine.generic () in
  List.iter
    (fun (name, opts) ->
      let (_, out) = Lowpower.Compile.run ~opts ~machine src in
      check Alcotest.bool (name ^ " returns 2") true
        (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint 2)))
    [ ("baseline", Lowpower.Compile.baseline);
      ("full", Lowpower.Compile.full ~n_cores:4) ]

let suite =
  [
    Alcotest.test_case "constfold arith" `Quick test_constfold_arith;
    Alcotest.test_case "constfold = sim semantics" `Quick test_constfold_agrees_with_sim;
    Alcotest.test_case "constfold identities" `Quick test_constfold_identities;
    Alcotest.test_case "constfold branch" `Quick test_constfold_branch;
    Alcotest.test_case "constfold div-by-zero" `Quick test_constfold_div_by_zero_preserved;
    Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead;
    Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores;
    Alcotest.test_case "dce keeps calls" `Quick test_dce_keeps_calls;
    Alcotest.test_case "simplify merges" `Quick test_simplify_merges_blocks;
    Alcotest.test_case "simplify threads empty" `Quick test_simplify_threads_empty;
    Alcotest.test_case "simplify merges a chain in one call" `Quick
      test_simplify_merges_chain_in_one_call;
    Alcotest.test_case "mac fusion" `Quick test_mac_fusion_fuses;
    Alcotest.test_case "mac fusion multi-use" `Quick test_mac_fusion_respects_multiuse;
    Alcotest.test_case "strength pow2" `Quick test_strength_pow2;
    Alcotest.test_case "strength non-pow2" `Quick test_strength_leaves_non_pow2;
    Alcotest.test_case "strength div untouched" `Quick test_strength_leaves_div;
    Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
    Alcotest.test_case "licm no div hoist" `Quick test_licm_no_div_hoist;
    Alcotest.test_case "const promote" `Quick test_const_promote;
    Alcotest.test_case "const promote scalar" `Quick test_const_promote_faa_blocks;
    Alcotest.test_case "pass manager stats" `Quick test_pass_manager_stats;
    Alcotest.test_case "pass memo skips no-op reruns" `Quick test_pass_memo;
    Alcotest.test_case "constprop NaN terminates" `Quick
      test_constprop_nan_terminates;
  ]

(* ---------------- global constant propagation ---------------- *)

let test_constprop_cross_block () =
  (* n is set in the entry block and used in another; local folding
     cannot see it, global propagation must *)
  let prog = lower
      "int g[8];\nint main() { int n = 5; if (g[0] > 0) { g[1] = n; } else { g[2] = n; } return n; }"
  in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
    prog;
  Verify.verify_prog prog;
  if not (contains (Printer.prog_to_string prog) "ret 5") then
    fail "constant not propagated across blocks"

let test_constprop_join_conflict () =
  (* x is 1 on one path and 2 on the other: must NOT be propagated *)
  let src =
    "int g[8];\nint main() { int x = 1; if (g[0] > 0) { x = 2; } return x; }"
  in
  let prog = lower src in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
    prog;
  Verify.verify_prog prog;
  (* simulate both programs; behaviour must be preserved *)
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let out = Lp_sim.Sim.run ~machine prog in
  check Alcotest.bool "value 1" true
    (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint 1))

let test_constprop_through_loop () =
  (* the loop bound flows through a register; after propagation the trip
     estimator sees a constant *)
  let prog = lower
      "int g[64];\nint main() { int n = 16; int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + g[i]; } return s; }"
  in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
    prog;
  let f = Prog.func_exn prog "main" in
  match Lp_analysis.Loops.find f with
  | [ l ] ->
    check Alcotest.int "trip now constant" 16
      (Lp_analysis.Loops.trip_estimate f l)
  | _ -> fail "loop lost"

(* ---------------- unrolling ---------------- *)

let test_unroll_dissolves_tiny_loop () =
  let prog = lower
      "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i * 2; } return s; }"
  in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
    prog;
  let n = T.Unroll.run_func (Prog.func_exn prog "main") in
  check Alcotest.int "one loop unrolled" 1 n;
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
    prog;
  Verify.verify_prog prog;
  (* fully dissolved: single block, constant return *)
  let f = Prog.func_exn prog "main" in
  check Alcotest.int "single block" 1 (List.length f.Prog.block_order);
  if not (contains (Printer.prog_to_string prog) "ret 12") then
    fail "unrolled loop not folded to 12";
  check Alcotest.int "no loops left" 0
    (List.length (Lp_analysis.Loops.find f))

let test_unroll_skips_large_or_unknown () =
  let check_skipped src =
    let prog = lower src in
    let pm = T.Pass.create_manager () in
    T.Pass.run_to_fixpoint pm
      [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
      prog;
    check Alcotest.int "not unrolled" 0
      (T.Unroll.run_func (Prog.func_exn prog "main"))
  in
  (* trip too large *)
  check_skipped
    "int main() { int s = 0; for (int i = 0; i < 100; i = i + 1) { s = s + i; } return s; }";
  (* trip unknown (parameter-like: comes from memory) *)
  check_skipped
    "int n;\nint main() { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }"

let test_unroll_zero_trip () =
  let prog = lower
      "int g[4] = {9};\nint main() { for (int i = 0; i < 0; i = i + 1) { g[0] = 0; } return g[0]; }"
  in
  let pm = T.Pass.create_manager () in
  T.Pass.run_to_fixpoint pm
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]
    prog;
  ignore (T.Unroll.run_func (Prog.func_exn prog "main"));
  T.Pass.run_to_fixpoint pm [ T.Simplify_cfg.pass; T.Constfold.pass; T.Dce.pass ] prog;
  Verify.verify_prog prog;
  let machine = Lp_machine.Machine.generic ~n_cores:1 () in
  let out = Lp_sim.Sim.run ~machine prog in
  check Alcotest.bool "body never ran" true
    (out.Lp_sim.Sim.ret = Some (Lp_sim.Value.Vint 9))

let suite =
  suite
  @ [
      Alcotest.test_case "constprop cross-block" `Quick test_constprop_cross_block;
      Alcotest.test_case "constprop join conflict" `Quick test_constprop_join_conflict;
      Alcotest.test_case "constprop loop bound" `Quick test_constprop_through_loop;
      Alcotest.test_case "unroll dissolves tiny loop" `Quick test_unroll_dissolves_tiny_loop;
      Alcotest.test_case "unroll skips large/unknown" `Quick test_unroll_skips_large_or_unknown;
      Alcotest.test_case "unroll zero trip" `Quick test_unroll_zero_trip;
    ]
