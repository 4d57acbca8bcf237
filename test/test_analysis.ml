(** Analysis tests: CFG, dataflow, liveness, dominators, loops,
    component-activity, static estimation. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Builder = Lp_ir.Builder
module Cfg = Lp_analysis.Cfg
module Dataflow = Lp_analysis.Dataflow
module Liveness = Lp_analysis.Liveness
module Dominators = Lp_analysis.Dominators
module Loops = Lp_analysis.Loops
module Compuse = Lp_analysis.Compuse
module Est = Lp_analysis.Est
module Manager = Lp_analysis.Manager
module Component = Lp_power.Component
module CS = Component.Set
module Bitset = Lp_analysis.Bitset

let check = Alcotest.check
let fail = Alcotest.fail

let lower src =
  let ast = Lp_lang.Parser.parse_program src in
  Lp_lang.Typecheck.check_program ast;
  Lp_ir.Lower.lower_program ast

(** A diamond CFG:  entry -> (then | else) -> join. *)
let diamond () =
  let f = Prog.create_func ~name:"d" ~params:[ Ir.I ] ~ret:(Some Ir.I) in
  let b = Builder.create f in
  let (p, _) = List.hd f.Prog.params in
  let then_b = Builder.new_block b in
  let else_b = Builder.new_block b in
  let join_b = Builder.new_block b in
  let r = Prog.new_reg f in
  Builder.set_term b (Ir.Br (Ir.Reg p, then_b.Ir.bid, else_b.Ir.bid));
  Builder.switch_to b then_b;
  Builder.move b r (Ir.Imm (Ir.Cint 1));
  Builder.set_term b (Ir.Jmp join_b.Ir.bid);
  Builder.switch_to b else_b;
  Builder.move b r (Ir.Imm (Ir.Cint 2));
  Builder.set_term b (Ir.Jmp join_b.Ir.bid);
  Builder.switch_to b join_b;
  Builder.set_term b (Ir.Ret (Some (Ir.Reg r)));
  (f, then_b.Ir.bid, else_b.Ir.bid, join_b.Ir.bid, r)

(** A single natural loop with two latches:
    entry -> h; h -> (b1 | exit); b1 -> (h | b2); b2 -> h. *)
let multi_latch () =
  let f = Prog.create_func ~name:"ml" ~params:[ Ir.I ] ~ret:(Some Ir.I) in
  let b = Builder.create f in
  let (p, _) = List.hd f.Prog.params in
  let h = Builder.new_block b in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let ex = Builder.new_block b in
  Builder.set_term b (Ir.Jmp h.Ir.bid);
  Builder.switch_to b h;
  Builder.set_term b (Ir.Br (Ir.Reg p, b1.Ir.bid, ex.Ir.bid));
  Builder.switch_to b b1;
  Builder.set_term b (Ir.Br (Ir.Reg p, h.Ir.bid, b2.Ir.bid));
  Builder.switch_to b b2;
  Builder.set_term b (Ir.Jmp h.Ir.bid);
  Builder.switch_to b ex;
  Builder.set_term b (Ir.Ret (Some (Ir.Reg p)));
  (f, h.Ir.bid, b1.Ir.bid, b2.Ir.bid, ex.Ir.bid)

(** Two hand-built nested natural loops:
    entry -> oh; oh -> (ih | exit); ih -> (ib | ol); ib -> ih; ol -> oh. *)
let nested_nest () =
  let f = Prog.create_func ~name:"nest" ~params:[ Ir.I ] ~ret:(Some Ir.I) in
  let b = Builder.create f in
  let (p, _) = List.hd f.Prog.params in
  let oh = Builder.new_block b in
  let ih = Builder.new_block b in
  let ib = Builder.new_block b in
  let ol = Builder.new_block b in
  let ex = Builder.new_block b in
  Builder.set_term b (Ir.Jmp oh.Ir.bid);
  Builder.switch_to b oh;
  Builder.set_term b (Ir.Br (Ir.Reg p, ih.Ir.bid, ex.Ir.bid));
  Builder.switch_to b ih;
  Builder.set_term b (Ir.Br (Ir.Reg p, ib.Ir.bid, ol.Ir.bid));
  Builder.switch_to b ib;
  Builder.set_term b (Ir.Jmp ih.Ir.bid);
  Builder.switch_to b ol;
  Builder.set_term b (Ir.Jmp oh.Ir.bid);
  Builder.switch_to b ex;
  Builder.set_term b (Ir.Ret (Some (Ir.Reg p)));
  (f, oh.Ir.bid, ih.Ir.bid, ib.Ir.bid, ol.Ir.bid, ex.Ir.bid)

(* ---------------- cfg ---------------- *)

let test_cfg_diamond () =
  let (f, t, e, j, _) = diamond () in
  let cfg = Cfg.build f in
  check Alcotest.(list int) "entry succs"
    (List.sort compare [ t; e ])
    (List.sort compare (Cfg.succs cfg f.Prog.entry));
  check Alcotest.(list int) "join preds"
    (List.sort compare [ t; e ])
    (List.sort compare (Cfg.preds cfg j));
  check Alcotest.int "rpo head" f.Prog.entry (List.hd cfg.Cfg.rpo);
  check Alcotest.int "all reachable" 4 (List.length cfg.Cfg.rpo)

let test_cfg_unreachable_pruned () =
  let f = Prog.create_func ~name:"u" ~params:[] ~ret:None in
  let dead = Prog.new_block f in
  dead.Ir.term <- Ir.Jmp f.Prog.entry;
  let removed = Cfg.prune_unreachable f in
  check Alcotest.int "one removed" 1 removed;
  check Alcotest.int "one left" 1 (List.length f.Prog.block_order)

(* ---------------- generic dataflow ---------------- *)

(* a toy forward "reachable constant-ness" problem over the diamond *)
let test_dataflow_forward_join () =
  let (f, t, _, j, _) = diamond () in
  let cfg = Cfg.build f in
  let module Flow = Dataflow.Make (Dataflow.Bitset_lattice) in
  (* transfer: add the block id as a fake "fact" *)
  let transfer l inp = Bitset.add l inp in
  let r = Flow.run ~direction:Dataflow.Forward ~cfg ~init:Bitset.empty ~transfer in
  let at_join = Flow.input r j in
  if not (Bitset.mem f.Prog.entry at_join) then fail "entry fact lost";
  if not (Bitset.mem t at_join) then fail "then fact not joined"

(* ---------------- liveness ---------------- *)

let test_liveness_diamond () =
  let (f, t, e, _, r) = diamond () in
  let live = Liveness.compute f in
  (* r is live out of both definition blocks *)
  if not (Bitset.mem r (Liveness.live_out live t)) then fail "r dead after then";
  if not (Bitset.mem r (Liveness.live_out live e)) then fail "r dead after else";
  (* the parameter is live into the entry *)
  let (p, _) = List.hd f.Prog.params in
  if not (Bitset.mem p (Liveness.live_in live f.Prog.entry)) then fail "param not live-in";
  if Liveness.max_pressure live < 1 then fail "pressure"

let test_liveness_loop_carried () =
  let prog = lower
      "int main() { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s + i; } return s; }"
  in
  let f = Prog.func_exn prog "main" in
  let live = Liveness.compute f in
  let loops = Loops.find f in
  check Alcotest.int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  (* something must be live around the back edge (s and i) *)
  if Bitset.cardinal (Liveness.live_in live l.Loops.header) < 2 then
    fail "loop-carried registers not live at header"

(* ---------------- dominators ---------------- *)

let test_dominators_diamond () =
  let (f, t, e, j, _) = diamond () in
  let dom = Dominators.compute f in
  if not (Dominators.dominates dom f.Prog.entry j) then fail "entry dom join";
  if Dominators.dominates dom t j then fail "then must not dominate join";
  check Alcotest.(option int) "idom of join" (Some f.Prog.entry)
    (Dominators.idom dom j);
  check Alcotest.(option int) "idom of then" (Some f.Prog.entry)
    (Dominators.idom dom t);
  if not (Dominators.dominates dom e e) then fail "self-domination"

let test_dominators_multi_latch () =
  let (f, h, b1, b2, ex) = multi_latch () in
  let dom = Dominators.compute f in
  check Alcotest.(option int) "idom of header" (Some f.Prog.entry)
    (Dominators.idom dom h);
  check Alcotest.(option int) "idom of b1" (Some h) (Dominators.idom dom b1);
  check Alcotest.(option int) "idom of b2" (Some b1) (Dominators.idom dom b2);
  check Alcotest.(option int) "idom of exit" (Some h) (Dominators.idom dom ex);
  if not (Dominators.dominates dom h b2) then fail "header dom second latch";
  if Dominators.dominates dom b1 ex then fail "latch must not dominate exit"

let test_dominators_nested () =
  let (f, oh, ih, ib, ol, ex) = nested_nest () in
  let dom = Dominators.compute f in
  List.iter
    (fun l ->
      if not (Dominators.dominates dom oh l) then
        Alcotest.failf "outer header must dominate %d" l)
    [ ih; ib; ol; ex ];
  check Alcotest.(option int) "idom of inner header" (Some oh)
    (Dominators.idom dom ih);
  check Alcotest.(option int) "idom of inner latch" (Some ih)
    (Dominators.idom dom ib);
  check Alcotest.(option int) "idom of outer latch" (Some ih)
    (Dominators.idom dom ol);
  if Dominators.dominates dom ib ol then fail "inner body must not dominate outer latch"

(* ---------------- loops ---------------- *)

let test_loops_simple () =
  let prog = lower
      "int g[64];\nint main() { for (int i = 0; i < 64; i = i + 1) { g[i] = i; } return 0; }"
  in
  let f = Prog.func_exn prog "main" in
  match Loops.find f with
  | [ l ] ->
    check Alcotest.int "depth" 1 l.Loops.depth;
    check Alcotest.int "trip" 64 (Loops.trip_estimate f l)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let test_loops_nested () =
  let prog = lower
      "int g[64];\nint main() { for (int i = 0; i < 8; i = i + 1) { for (int j = 0; j < 4; j = j + 1) { g[i * 4 + j] = j; } } return 0; }"
  in
  let f = Prog.func_exn prog "main" in
  let loops = Loops.find f in
  check Alcotest.int "two loops" 2 (List.length loops);
  let depths = List.sort compare (List.map (fun l -> l.Loops.depth) loops) in
  check Alcotest.(list int) "nesting" [ 1; 2 ] depths;
  let trips = List.sort compare (List.map (Loops.trip_estimate f) loops) in
  check Alcotest.(list int) "trips" [ 4; 8 ] trips

let test_loops_unknown_trip () =
  let prog = lower
      "int main() { int n = 5; int s = 0; for (int i = 0; i < n * 3; i = i + 1) { s = s + 1; } return s; }"
  in
  let f = Prog.func_exn prog "main" in
  match Loops.find f with
  | [ l ] ->
    (* bound is not a literal: falls back to the default estimate *)
    check Alcotest.int "default trip" Loops.default_trip (Loops.trip_estimate f l)
  | _ -> fail "expected one loop"

let test_while_loop_detected () =
  let prog = lower
      "int main() { int x = 100; while (x > 1) { x = x / 2; } return x; }"
  in
  let f = Prog.func_exn prog "main" in
  check Alcotest.int "one loop" 1 (List.length (Loops.find f))

let test_loops_multiple_latches () =
  let (f, h, b1, b2, ex) = multi_latch () in
  match Loops.find f with
  | [ l ] ->
    check Alcotest.int "header" h l.Loops.header;
    check Alcotest.(list int) "both latches" [ b1; b2 ]
      (List.sort compare l.Loops.back_edges);
    check Alcotest.int "three blocks" 3 (Loops.LS.cardinal l.Loops.blocks);
    List.iter
      (fun lbl ->
        if not (Loops.contains l lbl) then Alcotest.failf "block %d missing" lbl)
      [ h; b1; b2 ];
    if Loops.contains l ex then fail "exit inside loop";
    check Alcotest.(list (pair int int)) "single exit edge" [ (h, ex) ]
      l.Loops.exits;
    check Alcotest.int "depth" 1 l.Loops.depth
  | ls -> Alcotest.failf "two latches = one natural loop, got %d" (List.length ls)

let test_loops_nested_hand_built () =
  let (f, oh, ih, ib, ol, _) = nested_nest () in
  match Loops.find f with
  | [ outer; inner ] ->
    (* find sorts by (depth, header): outermost first *)
    check Alcotest.int "outer header" oh outer.Loops.header;
    check Alcotest.int "outer depth" 1 outer.Loops.depth;
    check Alcotest.int "outer blocks" 4 (Loops.LS.cardinal outer.Loops.blocks);
    check Alcotest.int "inner header" ih inner.Loops.header;
    check Alcotest.int "inner depth" 2 inner.Loops.depth;
    check Alcotest.(list int) "inner blocks" [ ih; ib ]
      (List.sort compare (Loops.LS.elements inner.Loops.blocks));
    check Alcotest.(list int) "outer latch" [ ol ]
      outer.Loops.back_edges;
    if not (Loops.LS.subset inner.Loops.blocks outer.Loops.blocks) then
      fail "inner loop not nested in outer"
  | ls -> Alcotest.failf "expected two loops, got %d" (List.length ls)

(* ---------------- analysis manager ---------------- *)

let machine4 = Lp_machine.Machine.generic ~n_cores:4 ()

let cached_prog () =
  lower
    "int main() { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s + i * 2; } return s; }"

let test_manager_hit_and_stale () =
  let prog = cached_prog () in
  let f = Prog.func_exn prog "main" in
  let am = Manager.create prog in
  let c1 = Manager.cfg am f in
  let c2 = Manager.cfg am f in
  if not (c1 == c2) then fail "second query must be served from cache";
  let s = Manager.stats am in
  check Alcotest.int "hits" 1 s.Manager.hits;
  check Alcotest.int "misses" 1 s.Manager.misses;
  Prog.touch f;
  let c3 = Manager.cfg am f in
  if c3 == c1 then fail "stale entry must be recomputed";
  check Alcotest.int "misses after touch" 2 (Manager.stats am).Manager.misses

let test_manager_layering () =
  let prog = cached_prog () in
  let f = Prog.func_exn prog "main" in
  let am = Manager.create prog in
  (* one loops query computes loops, cfg and dominators (doms reuse the
     just-cached cfg: one hit) *)
  ignore (Manager.loops am f);
  let s = Manager.stats am in
  check Alcotest.int "misses" 3 s.Manager.misses;
  check Alcotest.int "cfg reused by doms" 1 s.Manager.hits;
  ignore (Manager.dominators am f);
  check Alcotest.int "doms now cached" 2 (Manager.stats am).Manager.hits

let test_manager_invalidate_preserves () =
  let prog = cached_prog () in
  let f = Prog.func_exn prog "main" in
  let am = Manager.create prog in
  let c1 = Manager.cfg am f in
  ignore (Manager.liveness am f);
  Prog.touch f;
  Manager.invalidate am ~preserves:[ Manager.Cfg ] f;
  check Alcotest.int "only liveness dropped" 1
    (Manager.stats am).Manager.invalidations;
  let c2 = Manager.cfg am f in
  if not (c1 == c2) then fail "preserved analysis must survive invalidation";
  let before = (Manager.stats am).Manager.misses in
  ignore (Manager.liveness am f);
  if (Manager.stats am).Manager.misses <= before then
    fail "non-preserved analysis must recompute"

let test_manager_caching_off () =
  let prog = cached_prog () in
  let f = Prog.func_exn prog "main" in
  let am = Manager.create ~caching:false prog in
  let c1 = Manager.cfg am f in
  let c2 = Manager.cfg am f in
  if c1 == c2 then fail "caching off must recompute every query";
  let s = Manager.stats am in
  check Alcotest.int "no hits" 0 s.Manager.hits;
  check Alcotest.int "all misses" 2 s.Manager.misses

let test_manager_prog_level () =
  let prog = cached_prog () in
  let f = Prog.func_exn prog "main" in
  let am = Manager.create prog in
  let cu1 = Manager.compuse am in
  let cu2 = Manager.compuse am in
  if not (cu1 == cu2) then fail "compuse must cache";
  let e1 = Manager.func_est am machine4 f in
  let e2 = Manager.func_est am machine4 f in
  if not (e1 == e2) then fail "func_est must cache";
  (* touching any function moves prog_version: both expire *)
  Prog.touch f;
  if Manager.compuse am == cu1 then fail "compuse must expire on touch";
  if Manager.func_est am machine4 f == e1 then fail "func_est must expire on touch"

(* ---------------- component usage ---------------- *)

let test_compuse_direct () =
  let prog = lower
      "int main() { int a = 3 * 4; int b = a / 2; float f = 1.5 + 0.5; return b + int(f); }"
  in
  (* constant folding has not run: the operations are still present *)
  let cu = Compuse.compute prog in
  let used = Compuse.func_use cu "main" in
  List.iter
    (fun c ->
      if not (CS.mem c used) then
        Alcotest.failf "expected %s used" (Component.to_string c))
    [ Component.Multiplier; Component.Divider; Component.Fpu; Component.Alu ]

let test_compuse_transitive () =
  let prog = lower
      "int helper(int x) { return x * 2; }\nint main() { return helper(21); }"
  in
  let cu = Compuse.compute prog in
  let used = Compuse.func_use cu "main" in
  if not (CS.mem Component.Multiplier used) then fail "callee usage not propagated"

let test_compuse_never_used () =
  let prog = lower "int main() { return 1 + 2; }" in
  let cu = Compuse.compute prog in
  let never = Compuse.never_used cu ~entry:"main" in
  List.iter
    (fun c ->
      if not (CS.mem c never) then
        Alcotest.failf "%s should be never-used" (Component.to_string c))
    [ Component.Multiplier; Component.Divider; Component.Fpu;
      Component.Mac; Component.Shifter ];
  (* the ALU is not gateable so it never appears *)
  if CS.mem Component.Alu never then fail "alu is not gateable"

let test_compuse_loop_idle () =
  let prog = lower
      "int g[16];\nint main() { for (int i = 0; i < 16; i = i + 1) { g[i] = i + 1; } int p = 1; for (int i = 0; i < 4; i = i + 1) { p = p * 3; } return p; }"
  in
  let f = Prog.func_exn prog "main" in
  let cu = Compuse.compute prog in
  let loops = Loops.find f in
  check Alcotest.int "two loops" 2 (List.length loops);
  (* the store loop does not multiply; the product loop does *)
  let idle_sets = List.map (Compuse.loop_idle cu f) loops in
  let has_mul_idle =
    List.exists (fun s -> CS.mem Component.Multiplier s) idle_sets
  in
  let has_mul_busy =
    List.exists (fun s -> not (CS.mem Component.Multiplier s)) idle_sets
  in
  if not (has_mul_idle && has_mul_busy) then fail "loop idle sets wrong"

(* ---------------- static estimation ---------------- *)

let machine = Lp_machine.Machine.generic ~n_cores:4 ()

let test_est_scales_with_trip () =
  let prog_of n =
    lower
      (Printf.sprintf
         "int g[%d];\nint main() { for (int i = 0; i < %d; i = i + 1) { g[i] = i * 3; } return 0; }"
         n n)
  in
  let est n =
    let prog = prog_of n in
    (Est.func_estimate machine prog (Prog.func_exn prog "main")).Est.total_cycles
  in
  let e64 = est 64 and e512 = est 512 in
  if e512 /. e64 < 4.0 then
    Alcotest.failf "estimate should grow ~8x with trip (got %f / %f)" e512 e64

let test_est_mem_fraction () =
  (* stores to shared memory dominate: high mem fraction *)
  let prog = lower
      "int g[256];\nint main() { for (int i = 0; i < 256; i = i + 1) { g[i] = i; } return 0; }"
  in
  let e = Est.func_estimate machine prog (Prog.func_exn prog "main") in
  if e.Est.mem_fraction < 0.5 then
    Alcotest.failf "store loop should be memory-bound (mu=%f)" e.Est.mem_fraction;
  (* pure compute: low mem fraction *)
  let prog2 = lower
      "int main() { int s = 1; for (int i = 0; i < 256; i = i + 1) { s = s * 3 + i; } return s; }"
  in
  let e2 = Est.func_estimate machine prog2 (Prog.func_exn prog2 "main") in
  if e2.Est.mem_fraction > 0.2 then
    Alcotest.failf "compute loop should not be memory-bound (mu=%f)" e2.Est.mem_fraction

let test_est_within_factor_of_sim () =
  (* the static estimate should land within ~2x of simulated time for a
     straight-line kernel *)
  let src =
    "int g[512];\nint main() { for (int i = 0; i < 512; i = i + 1) { g[i] = i * 5 + 1; } return 0; }"
  in
  let (compiled, outcome) =
    Lowpower.Compile.run ~opts:Lowpower.Compile.baseline ~machine src
  in
  let f = Prog.func_exn compiled.Lowpower.Compile.prog "main" in
  let est = Est.func_estimate machine compiled.Lowpower.Compile.prog f in
  let est_ns = est.Est.total_cycles *. 2.5 in
  let sim_ns = outcome.Lp_sim.Sim.duration_ns in
  let ratio = est_ns /. sim_ns in
  if ratio < 0.4 || ratio > 2.5 then
    Alcotest.failf "estimate %.0fns vs simulated %.0fns (ratio %.2f)" est_ns
      sim_ns ratio

let suite =
  [
    Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "cfg prune unreachable" `Quick test_cfg_unreachable_pruned;
    Alcotest.test_case "dataflow forward join" `Quick test_dataflow_forward_join;
    Alcotest.test_case "liveness diamond" `Quick test_liveness_diamond;
    Alcotest.test_case "liveness loop carried" `Quick test_liveness_loop_carried;
    Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "dominators multi latch" `Quick test_dominators_multi_latch;
    Alcotest.test_case "dominators nested" `Quick test_dominators_nested;
    Alcotest.test_case "loops simple + trip" `Quick test_loops_simple;
    Alcotest.test_case "loops nested" `Quick test_loops_nested;
    Alcotest.test_case "loops unknown trip" `Quick test_loops_unknown_trip;
    Alcotest.test_case "while loop detected" `Quick test_while_loop_detected;
    Alcotest.test_case "loops multiple latches" `Quick test_loops_multiple_latches;
    Alcotest.test_case "loops nested hand-built" `Quick test_loops_nested_hand_built;
    Alcotest.test_case "manager hit + stale" `Quick test_manager_hit_and_stale;
    Alcotest.test_case "manager layering" `Quick test_manager_layering;
    Alcotest.test_case "manager invalidate preserves" `Quick
      test_manager_invalidate_preserves;
    Alcotest.test_case "manager caching off" `Quick test_manager_caching_off;
    Alcotest.test_case "manager prog-level stamps" `Quick test_manager_prog_level;
    Alcotest.test_case "compuse direct" `Quick test_compuse_direct;
    Alcotest.test_case "compuse transitive" `Quick test_compuse_transitive;
    Alcotest.test_case "compuse never used" `Quick test_compuse_never_used;
    Alcotest.test_case "compuse loop idle" `Quick test_compuse_loop_idle;
    Alcotest.test_case "est scales with trip" `Quick test_est_scales_with_trip;
    Alcotest.test_case "est mem fraction" `Quick test_est_mem_fraction;
    Alcotest.test_case "est vs sim" `Quick test_est_within_factor_of_sim;
  ]
