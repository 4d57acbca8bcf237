(** Differential property tests.

    A deterministic generator builds random (but always well-typed and
    trap-free) MiniC kernels whose hot loop is pattern-detectable; the
    property asserts that every compiler configuration produces exactly
    the same result and final memory as the unoptimised baseline.  This
    is the strongest guard against miscompilation anywhere in the stack:
    folding, DCE, LICM, fusion, outlining, channel protocols, gating and
    DVFS all sit between the two runs.

    A second property checks constant folding against the simulator's
    arithmetic on random operand pairs — the folder and the interpreter
    must agree bit-for-bit. *)

module Rng = Lp_util.Rng
module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Ir = Lp_ir.Ir

let machine4 = Machine.generic ~n_cores:4 ()

(* ---------------- random program generator ---------------- *)

let array_n = 48

(** Random arithmetic expression over [i] (the induction variable) and
    [va] (the current input element), guaranteed trap-free: divisions and
    modulos only by non-zero constants, shifts by small constants. *)
let rec gen_expr rng depth =
  if depth = 0 then
    match Rng.int rng 4 with
    | 0 -> "i"
    | 1 -> "va"
    | 2 -> string_of_int (Rng.int_in rng (-9) 9)
    | _ -> Printf.sprintf "(i * %d)" (Rng.int_in rng 1 5)
  else begin
    let a = gen_expr rng (depth - 1) in
    let b = gen_expr rng (depth - 1) in
    match Rng.int rng 9 with
    | 0 -> Printf.sprintf "(%s + %s)" a b
    | 1 -> Printf.sprintf "(%s - %s)" a b
    | 2 -> Printf.sprintf "(%s * %s)" a b
    | 3 -> Printf.sprintf "(%s / %d)" a (Rng.int_in rng 1 7)
    | 4 -> Printf.sprintf "(%s %% %d)" a (Rng.int_in rng 1 7)
    | 5 -> Printf.sprintf "(%s ^ %s)" a b
    | 6 -> Printf.sprintf "(%s & %s)" a b
    | 7 -> Printf.sprintf "(%s << %d)" a (Rng.int rng 5)
    | _ -> Printf.sprintf "(%s >> %d)" a (Rng.int rng 5)
  end

(** Optionally wrap the assignment in a data-dependent branch (makes
    inference pick farm instead of doall). *)
let gen_body rng expr =
  match Rng.int rng 3 with
  | 0 ->
    Printf.sprintf
      "if (va > %d) { pb[i] = %s; } else { pb[i] = va - i; }"
      (Rng.int_in rng (-50) 50) expr
  | _ -> Printf.sprintf "pb[i] = %s;" expr

let gen_program seed =
  let rng = Rng.create ~seed in
  let inputs =
    List.init array_n (fun _ -> Rng.int_in rng (-100) 100)
  in
  let init =
    "{" ^ String.concat "," (List.map string_of_int inputs) ^ "}"
  in
  let expr = gen_expr rng (1 + Rng.int rng 3) in
  let reduction = Rng.bool rng in
  let hot_loop =
    if reduction then
      Printf.sprintf
        "  int s = %d;\n  for (int i = 0; i < %d; i = i + 1) {\n    int va = pa[i];\n    s = s + (%s);\n  }\n"
        (Rng.int_in rng (-5) 5) array_n expr
    else
      Printf.sprintf
        "  for (int i = 0; i < %d; i = i + 1) {\n    int va = pa[i];\n    %s\n  }\n"
        array_n (gen_body rng expr)
  in
  let epilogue =
    if reduction then "  return s;\n"
    else
      Printf.sprintf
        "  int chk = 0;\n  for (int i = 0; i < %d; i = i + 1) {\n    chk = chk * 3 + pb[i];\n  }\n  return chk;\n"
        array_n
  in
  Printf.sprintf "int pa[%d] = %s;\nint pb[%d];\n\nint main() {\n%s%s}\n"
    array_n init array_n hot_loop epilogue

let outcome_of opts src = snd (Compile.run ~opts ~machine:machine4 src)

let same_outcome (a : Sim.outcome) (b : Sim.outcome) =
  let rets_equal =
    match (a.Sim.ret, b.Sim.ret) with
    | (Some x, Some y) -> Value.equal x y
    | _ -> false
  in
  let mem_equal =
    match (Sim.shared_array a "pb", Sim.shared_array b "pb") with
    | (Some xa, Some xb) ->
      Array.length xa = Array.length xb
      && Array.for_all2 Value.equal xa xb
    | _ -> false
  in
  rets_equal && mem_equal

let prop_differential =
  QCheck.Test.make ~count:40
    ~name:"random kernels agree across all configurations"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      let base = outcome_of Compile.baseline src in
      List.for_all
        (fun opts -> same_outcome base (outcome_of opts src))
        [ Compile.pg_dvfs;
          Compile.full ~n_cores:4;
          Compile.full ~n_cores:2;
          { (Compile.full ~n_cores:4) with
            Compile.distribution = Lp_transforms.Parallelize.Cyclic };
          { (Compile.full ~n_cores:3) with
            Compile.sync = Lp_transforms.Parallelize.Barrier_sync } ])

(* every generated program must actually exercise the parallel path *)
let prop_generated_patterns_detected =
  QCheck.Test.make ~count:40 ~name:"random kernels are pattern-detectable"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      let ast = Compile.parse_and_check src in
      let r = Lp_patterns.Detect.detect ast in
      r.Lp_patterns.Pattern.instances <> [])

(* ---------------- analysis-cache transparency ---------------- *)

module Pass = Lp_transforms.Pass
module Pipeline = Lowpower.Pipeline
module Prog = Lp_ir.Prog
module Cfg = Lp_analysis.Cfg
module Loops = Lp_analysis.Loops
module Manager = Lp_analysis.Manager

let lowered src = Lp_ir.Lower.lower_program (Compile.parse_and_check src)

let same_cfg (a : Cfg.t) (b : Cfg.t) =
  a.Cfg.rpo = b.Cfg.rpo
  && List.for_all
       (fun bid ->
         List.sort compare (Cfg.succs a bid)
         = List.sort compare (Cfg.succs b bid)
         && List.sort compare (Cfg.preds a bid)
            = List.sort compare (Cfg.preds b bid))
       a.Cfg.rpo

let same_loops la lb =
  List.length la = List.length lb
  && List.for_all2
       (fun (x : Loops.loop) (y : Loops.loop) ->
         x.Loops.header = y.Loops.header
         && x.Loops.depth = y.Loops.depth
         && List.sort compare x.Loops.back_edges
            = List.sort compare y.Loops.back_edges
         && Loops.LS.equal x.Loops.blocks y.Loops.blocks)
       la lb

let gen_lowered seed = lowered (Lp_robust.Gen.generate ~seed).Lp_robust.Gen.source

(** The default schedule over a fuzzer program: printed IR and per-pass
    (name, runs, changes). *)
let default_schedule ~caching seed =
  let prog = gen_lowered seed in
  let pm = Pass.create_manager ~caching () in
  Pipeline.execute pm ~mac_fusion:true Pipeline.default prog;
  ( Lp_ir.Printer.prog_to_string prog,
    List.map
      (fun (s : Pass.stats) -> (s.Pass.pass_name, s.Pass.runs, s.Pass.changes))
      (Pass.stats pm) )

(** Run a random pass sequence twice — analysis cache on and off — over
    the same random kernel: the resulting IR must be byte-identical, and
    every analysis the warm cache serves at the end must equal a fresh
    recomputation.  This is the contract that lets passes share analyses
    through the manager at all.  The default schedule over a fuzzer
    program must likewise give the same IR and the same per-pass runs and
    changes with caching on and off, which pins the pass manager's
    skipping of runs known to change nothing (on only with the cache). *)
let prop_cache_transparent =
  QCheck.Test.make ~count:30
    ~name:"analysis cache: same IR as uncached, cached == fresh"
    QCheck.(pair (int_range 0 1_000_000)
              (list_of_size Gen.(int_range 1 8) (int_range 0 1_000)))
    (fun (seed, picks) ->
      QCheck.assume (picks <> []);
      let src = gen_program seed in
      let n = List.length Pipeline.all_passes in
      let passes =
        List.map (fun i -> List.nth Pipeline.all_passes (i mod n)) picks
      in
      let run caching =
        let prog = lowered src in
        let pm = Pass.create_manager ~caching () in
        List.iter (fun p -> ignore (Pass.run_pass pm p prog)) passes;
        (prog, pm)
      in
      let (pa, pma) = run true in
      let (pb, _) = run false in
      let same_ir =
        Lp_ir.Printer.prog_to_string pa = Lp_ir.Printer.prog_to_string pb
      in
      let am = Pass.analysis_manager pma pa in
      let cached_fresh =
        List.for_all
          (fun (f : Prog.func) ->
            same_cfg (Manager.cfg am f) (Cfg.build f)
            && same_loops (Manager.loops am f) (Loops.find f))
          (Prog.funcs pa)
      in
      same_ir && cached_fresh
      && default_schedule ~caching:true seed = default_schedule ~caching:false seed)

(* ---------------- rewritten analyses vs reference oracles ---------------- *)

module Ref = Reference_analyses
module Constprop = Lp_transforms.Constprop
module Liveness = Lp_analysis.Liveness
module Bitset = Lp_analysis.Bitset

(** [check prog] on a fuzzer program after lowering and after every pass
    of the default schedule. *)
let holds_through_schedule (check : Prog.t -> bool) seed =
  let prog = gen_lowered seed in
  let ok = ref (check prog) in
  let on_pass _ prog = if !ok then ok := check prog in
  let pm = Pass.create_manager ~on_pass () in
  Pipeline.execute pm ~mac_fusion:true Pipeline.default prog;
  !ok

let constprop_agrees (prog : Prog.t) =
  let am = Manager.create prog in
  List.for_all
    (fun (f : Prog.func) ->
      let got = Constprop.analyse (Manager.cfg am f) in
      let want = Ref.constprop_entry_states f in
      List.for_all
        (fun l ->
          match Hashtbl.find_opt want l with
          | Some st -> Constprop.equal_state st got.(l)
          | None -> Array.length got.(l) = 0)
        f.Prog.block_order)
    (Prog.funcs prog)

let liveness_agrees (prog : Prog.t) =
  List.for_all
    (fun (f : Prog.func) ->
      let got = Liveness.compute f in
      let want = Ref.liveness f in
      List.for_all
        (fun l ->
          Bitset.elements (Liveness.live_in got l) = want.Ref.live_in l
          && Bitset.elements (Liveness.live_out got l) = want.Ref.live_out l)
        f.Prog.block_order)
    (Prog.funcs prog)

let prop_constprop_oracle =
  QCheck.Test.make ~count:40
    ~name:"constprop entry states == round-robin reference"
    QCheck.(int_range 0 1_000_000)
    (holds_through_schedule constprop_agrees)

let prop_liveness_oracle =
  QCheck.Test.make ~count:40
    ~name:"bitset liveness == Int_set reference"
    QCheck.(int_range 0 1_000_000)
    (holds_through_schedule liveness_agrees)

(* ---------------- folder vs interpreter agreement ---------------- *)

let int_binops =
  [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Mod; Ir.Shl; Ir.Shr; Ir.And; Ir.Or;
    Ir.Xor; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge; Ir.Eq; Ir.Ne ]

let prop_fold_matches_interp =
  QCheck.Test.make ~count:2000 ~name:"constant folder == simulator arithmetic"
    QCheck.(triple (int_range 0 15) int int)
    (fun (opi, a, b) ->
      let op = List.nth int_binops opi in
      let folded =
        Lp_transforms.Constfold.fold_binop op (Ir.Cint a) (Ir.Cint b)
      in
      match folded with
      | None -> true (* the folder declined (e.g. division by zero) *)
      | Some (Ir.Cint f) -> (
        match
          Value.binop op
            (Value.Vint (Value.wrap32 a))
            (Value.Vint (Value.wrap32 b))
        with
        | Value.Vint v -> v = f
        | Value.Vfloat _ -> false
        | exception Value.Runtime_error _ -> false)
      | Some (Ir.Cfloat _) -> false)

let prop_unop_matches_interp =
  QCheck.Test.make ~count:1000 ~name:"unop folder == simulator"
    QCheck.(pair (int_range 0 2) int)
    (fun (opi, a) ->
      let op = List.nth [ Ir.Neg; Ir.Not; Ir.Bnot ] opi in
      match Lp_transforms.Constfold.fold_unop op (Ir.Cint a) with
      | Some (Ir.Cint f) -> (
        match Value.unop op (Value.Vint (Value.wrap32 a)) with
        | Value.Vint v -> v = f
        | Value.Vfloat _ -> false)
      | _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:true prop_differential;
    QCheck_alcotest.to_alcotest prop_generated_patterns_detected;
    QCheck_alcotest.to_alcotest prop_cache_transparent;
    QCheck_alcotest.to_alcotest prop_constprop_oracle;
    QCheck_alcotest.to_alcotest prop_liveness_oracle;
    QCheck_alcotest.to_alcotest prop_fold_matches_interp;
    QCheck_alcotest.to_alcotest prop_unop_matches_interp;
  ]
