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

    Usage:
      dune exec bench/sim_bench.exe                    # BENCH_sim.json
      dune exec bench/sim_bench.exe -- --json PATH     # custom output
      dune exec bench/sim_bench.exe -- --min-wall 0.5  # steadier timing
      dune exec bench/sim_bench.exe -- --metrics PATH [--no-sim-predecode] *)

module Simbench = Lp_experiments.Simbench
module Runtime_config = Lp_util.Runtime_config
module J = Lp_util.Json

let usage () =
  prerr_endline
    "usage: sim_bench.exe [--json PATH] [--min-wall SECONDS] \
     [--metrics PATH] [--no-sim-predecode]";
  exit 2

(* same atomic-write discipline as BENCH_eval.json: temp file in the
   same directory, then rename *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      output_string oc contents;
      close_out oc;
      Sys.rename tmp path)

let () =
  let json_path = ref "BENCH_sim.json" in
  let metrics_path = ref None in
  let min_wall = ref None in
  let no_sim_predecode = ref false in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json_path := path;
      parse rest
    | [ "--json" ] -> usage ()
    | "--metrics" :: path :: rest ->
      metrics_path := Some path;
      parse rest
    | [ "--metrics" ] -> usage ()
    | "--min-wall" :: s :: rest -> (
      match float_of_string_opt s with
      | Some w when w > 0.0 ->
        min_wall := Some w;
        parse rest
      | _ -> usage ())
    | [ "--min-wall" ] -> usage ()
    | "--no-sim-predecode" :: rest ->
      no_sim_predecode := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* flag > environment > default, like every other entry point *)
  let config =
    Runtime_config.resolve ~no_sim_predecode:!no_sim_predecode
      (Runtime_config.from_env ())
  in
  match !metrics_path with
  | Some path ->
    let predecode = not config.Runtime_config.no_sim_predecode in
    let j = Simbench.metrics ~predecode () in
    write_file path (J.to_string j ^ "\n");
    Printf.printf "wrote %s (predecode %s)\n%!" path
      (if predecode then "on" else "off")
  | None ->
    (* throughput mode times both simulator modes by construction, so
       the escape hatch does not apply here *)
    let t = Simbench.measure ?min_wall_s:!min_wall () in
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
    write_file !json_path (J.to_string (Simbench.to_json t) ^ "\n");
    Printf.printf "wrote %s\n%!" !json_path
