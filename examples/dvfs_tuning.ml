(** Example: tuning the DVFS policy knobs.

    Sweeps the allowed slowdown bound of the compiler-directed DVFS pass
    on a memory-bound workload (histogram) and shows the energy/time
    trade-off curve, then contrasts machines with different numbers of
    operating points. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module T = Lp_transforms
module W = Lp_workloads.Workload

let source = (Lp_workloads.Suite.find_exn "histogram").W.source

let run_with_slowdown machine max_slowdown =
  let opts =
    { Compile.dvfs_only with
      Compile.power =
        { Compile.dvfs_only.Compile.power with
          Compile.dvfs_opts = { T.Dvfs.max_slowdown } } }
  in
  Compile.run ~opts ~machine source

let () =
  let machine = Machine.generic ~n_cores:1 () in
  let (_, base) = Compile.run ~opts:Compile.baseline ~machine source in
  let t0 = base.Sim.duration_ns and e0 = Ledger.total base.Sim.energy in
  print_endline "DVFS slowdown-bound sweep on the memory-bound histogram kernel";
  print_endline "(single core, so the effect is purely within-core):\n";
  Printf.printf "%-12s %-10s %-10s %-12s %s\n" "bound" "time" "energy"
    "transitions" "(relative to baseline)";
  List.iter
    (fun bound ->
      let (_, o) = run_with_slowdown machine bound in
      Printf.printf "%-12s %-10.3f %-10.3f %-12d\n"
        (Printf.sprintf "%.0f%%" (bound *. 100.0))
        (o.Sim.duration_ns /. t0)
        (Ledger.total o.Sim.energy /. e0)
        o.Sim.dvfs_transitions)
    [ 0.02; 0.05; 0.10; 0.20; 0.40 ];
  print_newline ();
  print_endline "More operating points let the compiler land closer to the bound:";
  Printf.printf "%-8s %-10s %-10s\n" "levels" "time" "energy";
  List.iter
    (fun n_levels ->
      let power = Lp_power.Power_model.default ~n_levels () in
      let machine = Machine.generic ~n_cores:1 ~power () in
      let (_, b) = Compile.run ~opts:Compile.baseline ~machine source in
      let (_, o) = run_with_slowdown machine 0.10 in
      Printf.printf "%-8d %-10.3f %-10.3f\n" n_levels
        (o.Sim.duration_ns /. b.Sim.duration_ns)
        (Ledger.total o.Sim.energy /. Ledger.total b.Sim.energy))
    [ 2; 3; 4; 6; 8 ];
  print_newline ();
  print_endline
    "Shape to expect: energy falls as the bound loosens until the lowest \
     operating point is reached; finer ladders approach the bound more \
     precisely."
