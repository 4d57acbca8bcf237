(** Tests for the parallelizer codegen and the power passes (gating with
    Sink-N-Hoist, DVFS insertion, pipeline balancing, stage fusion). *)

module Ast = Lp_lang.Ast
module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Printer = Lp_ir.Printer
module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Component = Lp_power.Component
module CS = Component.Set
module T = Lp_transforms
module Pattern = Lp_patterns.Pattern

let check = Alcotest.check
let fail = Alcotest.fail
let machine4 = Machine.generic ~n_cores:4 ()

let doall_src =
  "int a[40];\nint out[40];\nint main() { for (int i = 0; i < 40; i = i + 1) { out[i] = a[i] + i; } return out[39]; }"

let compile_full ?(n_cores = 4) ?(machine = machine4) src =
  Compile.compile ~opts:(Compile.full ~n_cores) ~machine src

(* ---------------- codegen structure ---------------- *)

let test_parallel_layout () =
  let c = compile_full doall_src in
  match c.Compile.prog.Prog.layout with
  | Prog.Parallel { entries; n_channels; _ } ->
    check Alcotest.(list string) "entries"
      [ "main"; "worker1"; "worker2"; "worker3" ] entries;
    if n_channels < 4 then fail "work + done channels expected"
  | Prog.Sequential -> fail "not parallelised"

let test_outlined_function_exists () =
  let c = compile_full doall_src in
  match c.Compile.par_info.T.Par_info.instances with
  | [ cg ] -> (
    match cg.T.Par_info.body_func with
    | Some name ->
      if Prog.find_func c.Compile.prog name = None then fail "outlined body missing"
    | None -> fail "doall must have an outlined body")
  | _ -> fail "one instance expected"

let test_workers_shut_down () =
  (* every worker must halt: the simulator only terminates when all cores
     are done, so a completed run proves shutdown works *)
  let (_, o) = Compile.run ~opts:(Compile.full ~n_cores:4) ~machine:machine4 doall_src in
  check Alcotest.bool "completed" true (o.Sim.ret <> None)

let test_farm_counter_global () =
  let src =
    "int out[32];\nint main() { #pragma lp pattern(farm, chunk=2)\nfor (int i = 0; i < 32; i = i + 1) { out[i] = i * i; } return out[31]; }"
  in
  let c = compile_full src in
  match c.Compile.par_info.T.Par_info.instances with
  | [ cg ] -> (
    match cg.T.Par_info.counter_global with
    | Some g ->
      if Prog.global c.Compile.prog g = None then fail "counter global missing"
    | None -> fail "farm needs a counter")
  | _ -> fail "one instance expected"

let test_two_instances_share_workers () =
  let src =
    "int a[24];\nint b[24];\nint main() { int s = 0; for (int i = 0; i < 24; i = i + 1) { a[i] = i * 3; } for (int i = 0; i < 24; i = i + 1) { s = s + a[i]; } b[0] = s; return s; }"
  in
  let c = compile_full src in
  check Alcotest.int "two instances" 2
    (List.length c.Compile.par_info.T.Par_info.instances);
  (* distinct tags *)
  let tags =
    List.map (fun cg -> cg.T.Par_info.tag) c.Compile.par_info.T.Par_info.instances
  in
  check Alcotest.int "distinct tags" (List.length tags)
    (List.length (List.sort_uniq compare tags))

(* correctness of each pattern shape on 2 cores (tighter than the 4-core
   e2e suite: slices degenerate differently) *)
let test_patterns_on_two_cores () =
  List.iter
    (fun name ->
      let w = Lp_workloads.Suite.find_exn name in
      let src = w.Lp_workloads.Workload.source in
      let (_, base) = Compile.run ~opts:Compile.baseline ~machine:machine4 src in
      let (_, two) = Compile.run ~opts:(Compile.full ~n_cores:2) ~machine:machine4 src in
      if base.Sim.ret <> two.Sim.ret then Alcotest.failf "%s differs on 2 cores" name)
    [ "fir"; "dotprod"; "imgpipe"; "fraciter"; "audio5"; "fft" ]

let test_empty_iteration_space () =
  (* hi < lo: the parallel version must also execute zero iterations *)
  let src =
    "int out[8] = {7};\nint main() { for (int i = 5; i < 3; i = i + 1) { out[i] = 0; } return out[0]; }"
  in
  let (_, base) = Compile.run ~opts:Compile.baseline ~machine:machine4 src in
  let (_, par) = Compile.run ~opts:(Compile.full ~n_cores:4) ~machine:machine4 src in
  check Alcotest.bool "same" true (base.Sim.ret = par.Sim.ret);
  check Alcotest.bool "value 7" true (par.Sim.ret = Some (Value.Vint 7))

let test_fewer_iterations_than_cores () =
  let src =
    "int out[2];\nint main() { for (int i = 0; i < 2; i = i + 1) { out[i] = i + 40; } return out[0] + out[1]; }"
  in
  let (_, par) = Compile.run ~opts:(Compile.full ~n_cores:4) ~machine:machine4 src in
  check Alcotest.bool "81" true (par.Sim.ret = Some (Value.Vint 81))

(* ---------------- stage fusion ---------------- *)

let test_stage_fusion_depth () =
  let w = Lp_workloads.Suite.find_exn "audio5" in
  let src = w.Lp_workloads.Workload.source in
  List.iter
    (fun (cores, expected_stages) ->
      let c = compile_full ~n_cores:cores src in
      let stages =
        List.concat_map
          (fun cg -> cg.T.Par_info.stage_funcs)
          c.Compile.par_info.T.Par_info.instances
      in
      check Alcotest.int
        (Printf.sprintf "stages on %d cores" cores)
        expected_stages (List.length stages))
    [ (2, 2); (3, 3); (4, 4) ]

(* ---------------- gating ---------------- *)

let test_entry_gating_per_core () =
  (* dotprod workers use mul/alu/ldst; fpu, div, shift must be gated at
     worker entry *)
  let w = Lp_workloads.Suite.find_exn "dotprod" in
  let c = compile_full w.Lp_workloads.Workload.source in
  let worker = Prog.func_exn c.Compile.prog "worker1" in
  let entry = Prog.block worker worker.Prog.entry in
  let gated =
    List.fold_left
      (fun acc (i : Ir.instr) ->
        match i.Ir.idesc with Ir.Pg_off s -> CS.union acc s | _ -> acc)
      CS.empty entry.Ir.instrs
  in
  List.iter
    (fun comp ->
      if not (CS.mem comp gated) then
        Alcotest.failf "worker should gate %s" (Component.to_string comp))
    [ Component.Fpu; Component.Divider ]

let test_gating_counts_reported () =
  let w = Lp_workloads.Suite.find_exn "phases" in
  let c =
    Compile.compile ~opts:Compile.pg_only ~machine:machine4
      w.Lp_workloads.Workload.source
  in
  let pre = c.Compile.gating_before_merge.T.Gating.components_toggled in
  let post = c.Compile.gating_after_merge.T.Gating.components_toggled in
  if pre <= post then fail "Sink-N-Hoist merged nothing on the phases workload"

let test_merge_rules_on_handcrafted_block () =
  (* pg_on m ; <no use of m> ; pg_off m  ==> both dropped *)
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let b = Lp_ir.Builder.create f in
  let m = CS.singleton Component.Multiplier in
  ignore (Lp_ir.Builder.emit b (Ir.Pg_on m));
  ignore (Lp_ir.Builder.emit b (Ir.Binop (Ir.Add, Prog.new_reg f, Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2))));
  ignore (Lp_ir.Builder.emit b (Ir.Pg_off m));
  Lp_ir.Builder.set_term b (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
  let changes = T.Gating.merge_block ~fname:"main" machine4 (Prog.block f f.Prog.entry) in
  if changes = 0 then fail "on/off pair not cancelled";
  let remaining =
    List.filter
      (fun (i : Ir.instr) ->
        match i.Ir.idesc with Ir.Pg_on _ | Ir.Pg_off _ -> true | _ -> false)
      (Prog.block f f.Prog.entry).Ir.instrs
  in
  check Alcotest.int "no gating left" 0 (List.length remaining)

let test_merge_respects_uses () =
  (* pg_on m ; mul ; pg_off m must NOT be cancelled *)
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let b = Lp_ir.Builder.create f in
  let m = CS.singleton Component.Multiplier in
  ignore (Lp_ir.Builder.emit b (Ir.Pg_on m));
  ignore (Lp_ir.Builder.emit b (Ir.Binop (Ir.Mul, Prog.new_reg f, Ir.Imm (Ir.Cint 2), Ir.Imm (Ir.Cint 3))));
  ignore (Lp_ir.Builder.emit b (Ir.Pg_off m));
  Lp_ir.Builder.set_term b (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
  ignore (T.Gating.merge_block ~fname:"main" machine4 (Prog.block f f.Prog.entry));
  let remaining =
    List.filter
      (fun (i : Ir.instr) ->
        match i.Ir.idesc with Ir.Pg_on _ | Ir.Pg_off _ -> true | _ -> false)
      (Prog.block f f.Prog.entry).Ir.instrs
  in
  check Alcotest.int "gating kept" 2 (List.length remaining)

let test_merge_adjacent_same_polarity () =
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let b = Lp_ir.Builder.create f in
  ignore (Lp_ir.Builder.emit b (Ir.Pg_off (CS.singleton Component.Multiplier)));
  ignore (Lp_ir.Builder.emit b (Ir.Pg_off (CS.singleton Component.Fpu)));
  Lp_ir.Builder.set_term b (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
  ignore (T.Gating.merge_block ~fname:"main" machine4 (Prog.block f f.Prog.entry));
  match (Prog.block f f.Prog.entry).Ir.instrs with
  | [ { Ir.idesc = Ir.Pg_off s; _ } ] ->
    check Alcotest.int "merged set" 2 (CS.cardinal s)
  | _ -> fail "adjacent pg_off not merged into one instruction"

let test_no_implicit_wakeups_across_suite () =
  (* asserted in the e2e suite per workload; also assert for the leaky
     machine where gating is more aggressive *)
  let machine = Machine.generic ~n_cores:4 ~power:(Lp_power.Power_model.leaky ()) () in
  List.iter
    (fun name ->
      let w = Lp_workloads.Suite.find_exn name in
      let (_, o) =
        Compile.run ~opts:(Compile.full ~n_cores:4) ~machine
          w.Lp_workloads.Workload.source
      in
      check Alcotest.int (name ^ " wakeups") 0 o.Sim.implicit_wakeups)
    [ "phases"; "fft"; "imgpipe" ]

(* ---------------- dvfs ---------------- *)

let test_dvfs_on_memory_bound_loop () =
  let src =
    "int a[512];\nint b[512];\nint main() { for (int i = 0; i < 512; i = i + 1) { a[i] = i; } for (int i = 0; i < 512; i = i + 1) { b[i] = a[i]; } int s = 0; for (int i = 0; i < 512; i = i + 1) { s = s + b[i]; } return s; }"
  in
  let c = Compile.compile ~opts:Compile.dvfs_only ~machine:machine4 src in
  let has_dvfs =
    List.exists
      (fun f ->
        Prog.fold_instrs f
          (fun acc _ i ->
            acc || match i.Ir.idesc with Ir.Dvfs _ -> true | _ -> false)
          false)
      (Prog.funcs c.Compile.prog)
  in
  if not has_dvfs then fail "no dvfs inserted on a memory-bound program"

let test_dvfs_skips_compute_bound () =
  let src =
    "int main() { int s = 1; for (int i = 0; i < 4096; i = i + 1) { s = s * 3 + i; } return s; }"
  in
  let c = Compile.compile ~opts:Compile.dvfs_only ~machine:machine4 src in
  let has_dvfs =
    List.exists
      (fun f ->
        Prog.fold_instrs f
          (fun acc _ i ->
            acc || match i.Ir.idesc with Ir.Dvfs _ -> true | _ -> false)
          false)
      (Prog.funcs c.Compile.prog)
  in
  if has_dvfs then fail "dvfs inserted on a compute-bound loop"

let test_dvfs_choose_level () =
  let pm = Lp_power.Power_model.default () in
  (* fully memory bound: lowest level qualifies *)
  (match T.Dvfs.choose_level pm ~mu:1.0 ~max_slowdown:0.10 with
  | Some 0 -> ()
  | Some l -> Alcotest.failf "expected level 0, got %d" l
  | None -> fail "no level for mu=1");
  (* fully compute bound: nothing qualifies *)
  (match T.Dvfs.choose_level pm ~mu:0.0 ~max_slowdown:0.10 with
  | None -> ()
  | Some l -> Alcotest.failf "level %d chosen for mu=0" l);
  (* monotonicity: higher mu never picks a higher (faster) level *)
  let level_of mu =
    match T.Dvfs.choose_level pm ~mu ~max_slowdown:0.10 with
    | Some l -> l
    | None -> 99
  in
  if level_of 0.9 > level_of 0.95 then fail "level not monotone in mu"

(* ---------------- balancing ---------------- *)

let test_balance_slows_light_stage () =
  let w = Lp_workloads.Suite.find_exn "imgpipe" in
  let c = compile_full w.Lp_workloads.Workload.source in
  (* at least one worker stage function starts with a Dvfs below nominal *)
  let stage_has_dvfs =
    List.exists
      (fun cg ->
        List.exists
          (fun name ->
            match Prog.find_func c.Compile.prog name with
            | Some f -> (
              match (Prog.block f f.Prog.entry).Ir.instrs with
              | { Ir.idesc = Ir.Dvfs l; _ } :: _ ->
                l < Lp_power.Power_model.max_level (Machine.ref_power machine4)
              | _ -> false)
            | None -> false)
          cg.T.Par_info.stage_funcs)
      c.Compile.par_info.T.Par_info.instances
  in
  if not stage_has_dvfs then fail "no stage was balanced down"

let test_balance_choose_level () =
  (* ladder 100/200/300/400 MHz; a stage of 1000 nominal cycles, half of
     them memory-bound, stretches to 2750 cycles at L0 and 1650 at L1
     with the 10% headroom *)
  let pm = Lp_power.Power_model.default () in
  let est = { Lp_analysis.Est.total_cycles = 1000.0; mem_fraction = 0.5 } in
  List.iter
    (fun (budget_cycles, want) ->
      check Alcotest.int
        (Printf.sprintf "budget %.0f" budget_cycles)
        want
        (T.Balance.choose_level pm est ~budget_cycles))
    [ (3000.0, 0); (2000.0, 1); (1000.0, Lp_power.Power_model.max_level pm) ]

let test_balance_preserves_results () =
  (* already covered by e2e, but assert balancing does not slow the
     pipeline beyond the bottleneck by much *)
  let w = Lp_workloads.Suite.find_exn "imgpipe" in
  let src = w.Lp_workloads.Workload.source in
  let (_, par) = Compile.run ~opts:(Compile.par_only ~n_cores:4) ~machine:machine4 src in
  let (_, full) = Compile.run ~opts:(Compile.full ~n_cores:4) ~machine:machine4 src in
  let slowdown = full.Sim.duration_ns /. par.Sim.duration_ns in
  if slowdown > 1.15 then
    Alcotest.failf "balancing cost %.1f%% throughput" ((slowdown -. 1.0) *. 100.0)

let suite =
  [
    Alcotest.test_case "parallel layout" `Quick test_parallel_layout;
    Alcotest.test_case "outlined function" `Quick test_outlined_function_exists;
    Alcotest.test_case "workers shut down" `Quick test_workers_shut_down;
    Alcotest.test_case "farm counter global" `Quick test_farm_counter_global;
    Alcotest.test_case "two instances" `Quick test_two_instances_share_workers;
    Alcotest.test_case "patterns on 2 cores" `Slow test_patterns_on_two_cores;
    Alcotest.test_case "empty iteration space" `Quick test_empty_iteration_space;
    Alcotest.test_case "fewer iters than cores" `Quick test_fewer_iterations_than_cores;
    Alcotest.test_case "stage fusion depth" `Quick test_stage_fusion_depth;
    Alcotest.test_case "entry gating per core" `Quick test_entry_gating_per_core;
    Alcotest.test_case "gating counts reported" `Quick test_gating_counts_reported;
    Alcotest.test_case "merge cancels on/off" `Quick test_merge_rules_on_handcrafted_block;
    Alcotest.test_case "merge respects uses" `Quick test_merge_respects_uses;
    Alcotest.test_case "merge adjacent" `Quick test_merge_adjacent_same_polarity;
    Alcotest.test_case "no wakeups (leaky)" `Slow test_no_implicit_wakeups_across_suite;
    Alcotest.test_case "dvfs memory-bound" `Quick test_dvfs_on_memory_bound_loop;
    Alcotest.test_case "dvfs compute-bound" `Quick test_dvfs_skips_compute_bound;
    Alcotest.test_case "dvfs choose level" `Quick test_dvfs_choose_level;
    Alcotest.test_case "balance slows light stage" `Quick test_balance_slows_light_stage;
    Alcotest.test_case "balance choose level" `Quick test_balance_choose_level;
    Alcotest.test_case "balance cheap" `Quick test_balance_preserves_results;
  ]

(* a program that needs the FPU must be rejected for an FPU-less machine *)
let test_missing_component_rejected () =
  let w = Lp_workloads.Suite.find_exn "fdotprod" in
  let pacduo = Machine.pac_duo_like () in
  (try
     ignore
       (Compile.compile ~opts:Compile.baseline ~machine:pacduo
          w.Lp_workloads.Workload.source);
     fail "float program accepted for an FPU-less machine"
   with Compile.Compile_error _ -> ());
  (* and an integer program is fine *)
  let wi = Lp_workloads.Suite.find_exn "fir" in
  ignore
    (Compile.compile ~opts:(Compile.full ~n_cores:2) ~machine:pacduo
       wi.Lp_workloads.Workload.source)

let suite =
  suite @ [ Alcotest.test_case "missing component rejected" `Quick
              test_missing_component_rejected ]

(* the prodcons kind flows through the pipeline codegen with 2 stages *)
let test_prodcons_codegen () =
  let w = Lp_workloads.Suite.find_exn "prodcons" in
  let c = compile_full ~n_cores:4 w.Lp_workloads.Workload.source in
  match c.Compile.par_info.T.Par_info.instances with
  | [ cg ] ->
    (match cg.T.Par_info.inst.Pattern.kind with
    | Pattern.Prodcons -> ()
    | k -> Alcotest.failf "wrong kind %s" (Pattern.kind_name k));
    check Alcotest.int "two stage funcs" 2
      (List.length cg.T.Par_info.stage_funcs);
    check Alcotest.int "one token channel" 1
      (List.length cg.T.Par_info.token_chans)
  | _ -> fail "one instance expected"

let suite =
  suite @ [ Alcotest.test_case "prodcons codegen" `Quick test_prodcons_codegen ]

(* cyclic distribution preserves results and beats block on triangular work *)
let test_cyclic_distribution () =
  List.iter
    (fun name ->
      let w = Lp_workloads.Suite.find_exn name in
      let src = w.Lp_workloads.Workload.source in
      let (_, base) = Compile.run ~opts:Compile.baseline ~machine:machine4 src in
      let cyc_opts =
        { (Compile.full ~n_cores:4) with
          Compile.distribution = T.Parallelize.Cyclic }
      in
      let (_, cyc) = Compile.run ~opts:cyc_opts ~machine:machine4 src in
      if base.Sim.ret <> cyc.Sim.ret then
        Alcotest.failf "%s differs under cyclic distribution" name)
    [ "tri"; "fir"; "dotprod"; "peakdetect" ];
  (* load-balance claim *)
  let w = Lp_workloads.Suite.find_exn "tri" in
  let src = w.Lp_workloads.Workload.source in
  let t dist =
    let opts = { (Compile.full ~n_cores:4) with Compile.distribution = dist } in
    (snd (Compile.run ~opts ~machine:machine4 src)).Sim.duration_ns
  in
  if t T.Parallelize.Cyclic >= t T.Parallelize.Block *. 0.85 then
    fail "cyclic should clearly beat block on triangular work"

let test_minmax_reduction_parallel () =
  let w = Lp_workloads.Suite.find_exn "peakdetect" in
  let src = w.Lp_workloads.Workload.source in
  let (_, base) = Compile.run ~opts:Compile.baseline ~machine:machine4 src in
  let (c, par) = Compile.run ~opts:(Compile.full ~n_cores:4) ~machine:machine4 src in
  check Alcotest.bool "same peak" true (base.Sim.ret = par.Sim.ret);
  match c.Compile.par_info.T.Par_info.instances with
  | [ cg ] -> (
    match cg.T.Par_info.inst.Pattern.kind with
    | Pattern.Reduction Pattern.Rmax -> ()
    | k -> Alcotest.failf "expected max reduction, got %s" (Pattern.kind_name k))
  | _ -> fail "one instance expected"

let suite =
  suite
  @ [
      Alcotest.test_case "cyclic distribution" `Slow test_cyclic_distribution;
      Alcotest.test_case "max reduction parallel" `Quick
        test_minmax_reduction_parallel;
    ]

(* barrier-synced doall: same results, and Barrier instructions actually
   execute through the compiled program *)
let test_barrier_sync () =
  List.iter
    (fun name ->
      let w = Lp_workloads.Suite.find_exn name in
      let src = w.Lp_workloads.Workload.source in
      let (_, base) = Compile.run ~opts:Compile.baseline ~machine:machine4 src in
      let opts =
        { (Compile.full ~n_cores:4) with
          Compile.sync = T.Parallelize.Barrier_sync }
      in
      let (c, o) = Compile.run ~opts ~machine:machine4 src in
      if base.Sim.ret <> o.Sim.ret then
        Alcotest.failf "%s differs under barrier sync" name;
      check Alcotest.int (name ^ " wakeups") 0 o.Sim.implicit_wakeups;
      (* the layout must declare barriers and the program must use them *)
      match c.Compile.prog.Prog.layout with
      | Prog.Parallel { n_barriers; _ } ->
        if n_barriers = 0 then Alcotest.failf "%s: no barriers allocated" name
      | Prog.Sequential -> fail "not parallel")
    [ "fir"; "conv2d"; "tri" ]

let suite =
  suite @ [ Alcotest.test_case "barrier sync" `Slow test_barrier_sync ]
