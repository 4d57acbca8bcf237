(** Simulator microbenchmark driver.

    Default mode times the closure-compiled stepper against the
    interpretive reference over the committed workload suite and writes
    [BENCH_sim.json] (schema [lowpower-bench-sim/1], see
    lib/experiments/simbench.mli) — the artifact CI uploads so the
    simulator's raw speed is tracked from PR to PR.

    [--metrics PATH] instead writes the {e deterministic} simulated
    metrics of every workload on every zoo machine (schema
    [lowpower-sim-metrics/2], no wall-clock anywhere) under the mode
    selected by [--no-sim-predecode] / [LP_NO_SIM_PREDECODE]; CI runs it
    once per mode and byte-diffs the two files, proving the modes agree
    on every cell.

    Usage ([--help] lists the flags; unknown flags exit 124):
      dune exec bench/sim_bench.exe                    # BENCH_sim.json
      dune exec bench/sim_bench.exe -- --json PATH     # custom output
      dune exec bench/sim_bench.exe -- --min-wall 0.5  # steadier timing
      dune exec bench/sim_bench.exe -- --metrics PATH [--no-sim-predecode] *)

module Simbench = Lp_experiments.Simbench
module Runtime_config = Lp_util.Runtime_config
module J = Lp_util.Json
open Cmdliner

let main json_path metrics_path min_wall no_sim_predecode =
  (* flag > environment > default, like every other entry point *)
  let config =
    Runtime_config.resolve ~no_sim_predecode (Runtime_config.from_env ())
  in
  match metrics_path with
  | Some path ->
    let predecode = not config.Runtime_config.no_sim_predecode in
    let j = Simbench.metrics ~predecode () in
    J.write_file ~path (J.to_string j ^ "\n");
    Printf.printf "wrote %s (predecode %s)\n%!" path
      (if predecode then "on" else "off")
  | None ->
    (* throughput mode times both simulator modes by construction, so
       the escape hatch does not apply here *)
    let t = Simbench.measure ?min_wall_s:min_wall () in
    Printf.printf "== sim microbenchmark (%s machine, %s config) ==\n"
      t.Simbench.sb_machine t.Simbench.sb_config;
    Printf.printf "%-16s %10s %14s %14s %8s\n" "workload" "instrs"
      "on [Minstr/s]" "off [Minstr/s]" "speedup";
    List.iter
      (fun (r : Simbench.row) ->
        Printf.printf "%-16s %10d %14.2f %14.2f %7.2fx\n" r.Simbench.sb_workload
          r.Simbench.sb_instrs
          (r.Simbench.sb_on.Simbench.instrs_per_sec /. 1e6)
          (r.Simbench.sb_off.Simbench.instrs_per_sec /. 1e6)
          r.Simbench.sb_speedup)
      t.Simbench.sb_rows;
    Printf.printf "suite: %.2f Minstr/s on vs %.2f Minstr/s off (%.2fx)\n"
      (t.Simbench.sb_total_on /. 1e6)
      (t.Simbench.sb_total_off /. 1e6)
      t.Simbench.sb_total_speedup;
    J.write_file ~path:json_path (J.to_string (Simbench.to_json t) ^ "\n");
    Printf.printf "wrote %s\n%!" json_path

let () =
  let json =
    Arg.(value & opt string "BENCH_sim.json"
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Write the $(b,lowpower-bench-sim/1) throughput table to \
                   $(docv).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Instead of timing, write the deterministic \
                   $(b,lowpower-sim-metrics/2) metrics of every workload on \
                   every zoo machine to $(docv), under the simulator mode \
                   $(b,--no-sim-predecode) selects.")
  in
  let min_wall =
    let positive =
      Arg.conv
        ( (fun s ->
            match float_of_string_opt s with
            | Some w when w > 0.0 -> Ok w
            | _ -> Error (`Msg (Printf.sprintf "expected seconds > 0, got %S" s))),
          Format.pp_print_float )
    in
    Arg.(value & opt (some positive) None
         & info [ "min-wall" ] ~docv:"SECONDS"
             ~doc:"Time each workload for at least $(docv) per mode \
                   (steadier numbers).")
  in
  let doc = "simulator throughput (predecode on/off) and mode-equivalence metrics" in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "sim_bench.exe" ~doc)
          Term.(const main $ json $ metrics $ min_wall
                $ Lp_cli.Cli.no_sim_predecode)))
