(** Heterogeneous machine model: zoo registry and validation, per-class
    compiler decisions (DVFS on big vs LITTLE), heterogeneous simulation
    invariants, and byte-determinism of the design-space sweep. *)

module Machine = Lp_machine.Machine
module Power_model = Lp_power.Power_model
module Operating_point = Lp_power.Operating_point
module Component = Lp_power.Component
module Ledger = Lp_power.Energy_ledger
module Compile = Lowpower.Compile
module Sim = Lp_sim.Sim
module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Dvfs = Lp_transforms.Dvfs
module Sweep = Lp_experiments.Sweep

let check = Alcotest.check
let fail = Alcotest.fail

(* ---------------- registry ---------------- *)

let test_registry () =
  check Alcotest.int "zoo size" 5 (List.length Machine.registry);
  List.iter
    (fun name ->
      match Machine.of_name name with
      | Some m -> ignore (Machine.validate m)
      | None -> fail (Printf.sprintf "zoo member %s not resolvable" name))
    Machine.names;
  (* the alias and the unknown-name contract *)
  (match Machine.of_name "octa" with
  | Some m -> check Alcotest.string "octa alias" "octa-leaky-8c" m.Machine.name
  | None -> fail "octa alias not resolved");
  check Alcotest.bool "unknown is None" true
    (Machine.of_name "z80-cluster" = None);
  (* the cores hint scales only the generic machine *)
  (match Machine.of_name ~cores:8 "generic" with
  | Some m -> check Alcotest.int "generic scales" 8 (Machine.n_cores m)
  | None -> fail "generic not resolvable");
  match Machine.of_name ~cores:64 "pacduo" with
  | Some m -> check Alcotest.int "pacduo fixed" 2 (Machine.n_cores m)
  | None -> fail "pacduo not resolvable"

let test_clamp_cores () =
  let m = Machine.generic ~n_cores:4 () in
  check Alcotest.int "within" 3 (Machine.clamp_cores ~warn:false m 3);
  check Alcotest.int "exact" 4 (Machine.clamp_cores ~warn:false m 4);
  check Alcotest.int "clamped" 4 (Machine.clamp_cores ~warn:false m 9)

(* ---------------- validation ---------------- *)

let test_validate_rejections () =
  let base = Machine.generic ~n_cores:4 () in
  let some_class = base.Machine.classes.(0) in
  Alcotest.check_raises "empty class"
    (Invalid_argument "Machine: class void is empty") (fun () ->
      ignore
        (Machine.validate
           {
             base with
             classes =
               [| some_class;
                  { some_class with Machine.cc_name = "void"; cc_count = 0 } |];
           }));
  Alcotest.check_raises "no classes" (Invalid_argument "Machine: no core classes")
    (fun () -> ignore (Machine.validate { base with Machine.classes = [||] }));
  Alcotest.check_raises "no ALU" (Invalid_argument "Machine: cores must have an ALU")
    (fun () ->
      ignore
        (Machine.validate
           { base with Machine.components = [ Component.Multiplier ] }));
  (* duplicate ladder levels make a raw [dvfs l] ambiguous *)
  let pm = Power_model.default () in
  let dup =
    Power_model.with_points pm
      (let ps = Power_model.points pm in
       ps @ [ { (List.hd ps) with Operating_point.level = 0 } ])
  in
  Alcotest.check_raises "overlapping ladder"
    (Invalid_argument "Machine: class core ladder has overlapping level 0")
    (fun () ->
      ignore
        (Machine.validate
           {
             base with
             Machine.classes =
               [| { some_class with Machine.cc_power = dup } |];
           }));
  Alcotest.check_raises "bad perf scale"
    (Invalid_argument "Machine: class core has perf scale 0") (fun () ->
      ignore
        (Machine.validate
           {
             base with
             Machine.classes =
               [| { some_class with Machine.cc_perf_scale = 0.0 } |];
           }))

(* ---------------- per-class DVFS (the big.LITTLE golden) ---------------- *)

(* A memory-bound loop long enough to amortise the transition, with mu
   (~0.87) inside the window where the big 4-point ladder rejects its
   L1 (2x frequency ratio) but the little 3-point ladder accepts its L1
   (1.6x).  Both arrays are read AND written so their accesses stay in
   shared memory instead of being promoted to ROM by the estimator. *)
let membound_src =
  "int a[64];\nint b[64];\n\
   int main() {\n\
  \  for (int j = 0; j < 64; j = j + 1) {\n\
  \    int t = a[j] + b[j];\n\
  \    a[j] = t;\n\
  \    b[j] = t + 1;\n\
  \  }\n\
  \  return a[63] + b[63];\n\
   }"

(** Levels of every [dvfs] instruction the pass inserted into [main]
    when the function is attributed to core classes [classes]. *)
let dvfs_levels_for classes =
  let m = Machine.biglittle () in
  let (c, _) = Compile.run ~opts:Compile.baseline ~machine:m membound_src in
  let prog = c.Compile.prog in
  let comm = Dvfs.comm_closure prog in
  let f =
    match Prog.find_func prog "main" with
    | Some f -> f
    | None -> fail "no main"
  in
  let changes =
    Dvfs.run_func (Lp_analysis.Manager.create prog) ~classes m comm f
  in
  check Alcotest.bool "pass fired" true (changes > 0);
  Prog.fold_instrs f
    (fun acc _ i ->
      match i.Ir.idesc with Ir.Dvfs l -> acc @ [ l ] | _ -> acc)
    []

let test_biglittle_dvfs_differs () =
  let m = Machine.biglittle () in
  let big = Machine.power_of_core m 0 in
  let little = Machine.power_of_core m 4 in
  check Alcotest.bool "distinct ladders" false
    (Power_model.same_ladder big little);
  (* pinned unit choice at the golden mu: big scales to L2 of 4 points,
     little to L1 of 3 points *)
  let mu = 0.87 and max_slowdown = 0.10 in
  check Alcotest.(option int) "big level" (Some 2)
    (Dvfs.choose_level big ~mu ~max_slowdown);
  check Alcotest.(option int) "little level" (Some 1)
    (Dvfs.choose_level little ~mu ~max_slowdown);
  (* the pass end-to-end: same region, different class, different level.
     [2; 3] = scale to L2, restore nominal L3 on the exit landing;
     [1; 2] = the little equivalents. *)
  check Alcotest.(list int) "big insertion" [ 2; 3 ] (dvfs_levels_for [ 0 ]);
  check Alcotest.(list int) "little insertion" [ 1; 2 ] (dvfs_levels_for [ 1 ])

let test_incompatible_classes_skip () =
  (* a function reachable from both classes must not get a raw level *)
  let m = Machine.biglittle () in
  let (c, _) = Compile.run ~opts:Compile.baseline ~machine:m membound_src in
  let prog = c.Compile.prog in
  let comm = Dvfs.comm_closure prog in
  let f = Option.get (Prog.find_func prog "main") in
  let changes =
    Dvfs.run_func (Lp_analysis.Manager.create prog) ~classes:[ 0; 1 ] m comm f
  in
  check Alcotest.int "skipped" 0 changes

(* ---------------- heterogeneous simulation ---------------- *)

let par_src =
  "int data[256];\n\
   int main() {\n\
  \  int s = 0;\n\
  \  #pragma lp pattern(doall)\n\
  \  for (int i = 0; i < 256; i = i + 1) { data[i] = data[i] * 3; }\n\
  \  for (int i = 0; i < 256; i = i + 1) { s = s + data[i]; }\n\
  \  return s;\n\
   }"

let test_biglittle_sim_runs () =
  let m = Machine.biglittle () in
  let (_, seq) = Compile.run ~opts:Compile.baseline ~machine:m par_src in
  let (_, par) =
    Compile.run ~opts:(Compile.par_only ~n_cores:8) ~machine:m par_src
  in
  (match (seq.Sim.ret, par.Sim.ret) with
  | (Some a, Some b) when Lp_sim.Value.equal a b -> ()
  | _ -> fail "results differ on big.LITTLE");
  (* the per-class ledger breakdown covers both classes and sums to the
     whole-machine ledger *)
  let names = List.map fst par.Sim.class_energy in
  check Alcotest.(list string) "classes" [ "big"; "little" ] names;
  let by_class =
    List.fold_left
      (fun acc (_, l) -> acc +. Ledger.total l)
      0.0 par.Sim.class_energy
  in
  check (Alcotest.float 1e-6) "class split sums to total"
    (Ledger.total par.Sim.energy) by_class

let test_farmem_far_tier_charged () =
  (* only arrays of >= 1024 words spill to the far tier, so use a big one *)
  let src =
    "int data[1200];\n\
     int main() {\n\
    \  int s = 0;\n\
    \  for (int i = 0; i < 1200; i = i + 1) { s = s + data[i]; }\n\
    \  return s;\n\
     }"
  in
  let run m =
    let (_, o) = Compile.run ~opts:Compile.baseline ~machine:m src in
    o
  in
  let near = run (Machine.generic ~n_cores:4 ()) in
  let far = run (Machine.farmem ()) in
  (match (near.Sim.ret, far.Sim.ret) with
  | (Some a, Some b) when Lp_sim.Value.equal a b -> ()
  | _ -> fail "results differ across memory tiers");
  (* the far tier costs real time and real communication energy *)
  check Alcotest.bool "far is slower" true
    (far.Sim.duration_ns > near.Sim.duration_ns);
  check Alcotest.bool "far access energy charged" true
    (Ledger.of_category far.Sim.energy Ledger.Communication
    > Ledger.of_category near.Sim.energy Ledger.Communication)

(* ---------------- sweep determinism ---------------- *)

(* Byte-determinism of the sweep artifact across pool sizes: the matrix
   fans out differently under 1 and 4 domains, the rendered JSON must
   not.  The cache is cleared between runs so the second run really
   recomputes. *)
let prop_sweep_bytes_pool_independent =
  QCheck.Test.make ~count:3 ~name:"sweep JSON independent of --jobs"
    QCheck.(pair (int_range 0 4) (int_range 0 20))
    (fun (mi, wi) ->
      let machines =
        [ List.nth Sweep.default_machines mi; "generic" ]
        |> List.sort_uniq compare
      in
      let workloads =
        [ List.nth Lp_workloads.Suite.names wi; "fir" ]
        |> List.sort_uniq compare
      in
      let sweep_with jobs =
        Lp_experiments.Exp_common.clear_cache ();
        let pool = Lp_util.Domain_pool.create ~jobs () in
        Fun.protect
          ~finally:(fun () -> Lp_util.Domain_pool.shutdown pool)
          (fun () ->
            Sweep.to_json (Sweep.run ~pool ~machines ~workloads ()))
      in
      let a = sweep_with 1 in
      let b = sweep_with 4 in
      Lp_experiments.Exp_common.clear_cache ();
      String.equal a b)

let suite =
  [
    Alcotest.test_case "zoo registry and of_name" `Quick test_registry;
    Alcotest.test_case "clamp_cores" `Quick test_clamp_cores;
    Alcotest.test_case "validate rejections" `Quick test_validate_rejections;
    Alcotest.test_case "big.LITTLE dvfs levels differ" `Quick
      test_biglittle_dvfs_differs;
    Alcotest.test_case "incompatible classes skip dvfs" `Quick
      test_incompatible_classes_skip;
    Alcotest.test_case "big.LITTLE simulation + class ledger" `Quick
      test_biglittle_sim_runs;
    Alcotest.test_case "far tier charged on farmem" `Quick
      test_farmem_far_tier_charged;
    QCheck_alcotest.to_alcotest prop_sweep_bytes_pool_independent;
  ]
