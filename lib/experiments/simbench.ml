(** The simulator microbenchmark behind [bench/sim_bench.exe] and the
    committed [BENCH_sim.json] artifact.

    Two jobs live here so the executable stays a thin flag parser:

    - {!measure} times the two simulator modes (closure-compiled
      predecode vs the interpretive reference stepper) over the
      committed workload suite and returns the throughput table that
      [BENCH_sim.json] serialises;
    - {!metrics} produces the {e deterministic} simulated metrics of
      every workload on every zoo machine (cycles, duration, the full
      energy ledger, instructions — no wall-clock anywhere) that CI
      writes once per mode and diffs byte-for-byte, proving the two
      modes agree on every cell, not just the baseline ones.

    The JSON schema ([lowpower-bench-sim/1]) round-trips through
    {!to_json}/{!of_json}; a golden test locks that down so downstream
    tooling can rely on the field names. *)

module J = Lp_util.Json
module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module Workload = Lp_workloads.Workload
module Suite = Lp_workloads.Suite

type mode_stats = {
  runs : int;            (** simulation repetitions timed *)
  wall_s : float;        (** total wall-clock over those runs *)
  instrs_per_sec : float;
  cells_per_sec : float; (** whole-simulation runs per second *)
}

type row = {
  sb_workload : string;
  sb_instrs : int;  (** instructions simulated by one run (mode-invariant) *)
  sb_on : mode_stats;   (** predecode on: closure-compiled stepper *)
  sb_off : mode_stats;  (** predecode off: interpretive reference *)
  sb_speedup : float;   (** [sb_on.instrs_per_sec /. sb_off.instrs_per_sec] *)
}

type t = {
  sb_machine : string;
  sb_config : string;
  sb_rows : row list;
  sb_total_on : float;   (** suite instr/s, predecode on *)
  sb_total_off : float;  (** suite instr/s, predecode off *)
  sb_total_speedup : float;
}

(* The fixed bench environment: the evaluation's default machine and the
   full compiler configuration, so the simulated programs exercise
   parallel cores, gating and DVFS — the paths the matrix spends its
   time in. *)
let bench_cores = 4
let bench_machine () = Machine.generic ~n_cores:bench_cores ()
let bench_config_name = "full"
let bench_config () = Compile.full ~n_cores:bench_cores

let simulate compiled ~machine ~predecode =
  Sim.run
    ~opts:{ Sim.default_options with Sim.predecode }
    ~machine compiled.Compile.prog

(* ------------------------------------------------------------------ *)
(* Throughput measurement                                              *)
(* ------------------------------------------------------------------ *)

(* One warm-up run (pays predecode compilation and allocator warm-up),
   then repeat until both floors are met. *)
let time_mode ~min_wall_s ~min_runs run1 =
  ignore (run1 ());
  let t0 = Unix.gettimeofday () in
  let rec loop runs =
    ignore (run1 ());
    let runs = runs + 1 in
    let wall = Unix.gettimeofday () -. t0 in
    if wall < min_wall_s || runs < min_runs then loop runs else (runs, wall)
  in
  loop 0

(* A loaded host inflates wall time in spikes but never deflates it, so
   of several timings the {e fastest} is the closest estimate of the
   machine's true rate.  Trials interleave the two modes so slow drifts
   (thermal, noisy neighbours) cannot bias one mode's figure. *)
let trials = 3

let measure ?(min_wall_s = 0.2) ?(min_runs = 3) () : t =
  let machine = bench_machine () in
  let opts = bench_config () in
  let rows =
    List.filter_map
      (fun (w : Workload.t) ->
        match Compile.compile ~opts ~machine w.Workload.source with
        | exception _ -> None (* mode-independent: compilation never
                                 touches the simulator *)
        | compiled -> (
          match simulate compiled ~machine ~predecode:true with
          | exception _ -> None
          | o ->
            let instrs = o.Sim.instr_total in
            let stats predecode =
              let (runs, wall_s) =
                time_mode ~min_wall_s ~min_runs (fun () ->
                    simulate compiled ~machine ~predecode)
              in
              {
                runs;
                wall_s;
                instrs_per_sec = float_of_int (instrs * runs) /. wall_s;
                cells_per_sec = float_of_int runs /. wall_s;
              }
            in
            let best cur cand =
              match cur with
              | Some c when c.instrs_per_sec >= cand.instrs_per_sec -> cur
              | _ -> Some cand
            in
            let on_best = ref None and off_best = ref None in
            for _ = 1 to trials do
              on_best := best !on_best (stats true);
              off_best := best !off_best (stats false)
            done;
            let on = Option.get !on_best and off = Option.get !off_best in
            Some
              {
                sb_workload = w.Workload.name;
                sb_instrs = instrs;
                sb_on = on;
                sb_off = off;
                sb_speedup = on.instrs_per_sec /. off.instrs_per_sec;
              }))
      Suite.all
  in
  (* aggregate on a "simulate the whole suite once" basis: total
     instructions over the summed per-run time of each workload *)
  let per_run sel =
    List.fold_left
      (fun acc r ->
        let s = sel r in
        acc +. (s.wall_s /. float_of_int s.runs))
      0.0 rows
  in
  let total_instrs =
    float_of_int (List.fold_left (fun acc r -> acc + r.sb_instrs) 0 rows)
  in
  let wall_on = per_run (fun r -> r.sb_on) in
  let wall_off = per_run (fun r -> r.sb_off) in
  {
    sb_machine = machine.Machine.name;
    sb_config = bench_config_name;
    sb_rows = rows;
    sb_total_on = total_instrs /. wall_on;
    sb_total_off = total_instrs /. wall_off;
    sb_total_speedup = wall_off /. wall_on;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic metrics (the CI byte-diff)                            *)
(* ------------------------------------------------------------------ *)

let metrics ~predecode () : J.t =
  let cell (machine : Machine.t) (w : Workload.t) =
    let key =
      [ ("workload", J.Str w.Workload.name);
        ("machine", J.Str machine.Machine.name) ]
    in
    let opts = Compile.full ~n_cores:(Machine.n_cores machine) in
    match
      Result.bind (Compile.compile_result ~opts ~machine w.Workload.source)
        (fun compiled ->
          Sim.run_result
            ~opts:{ Sim.default_options with Sim.predecode }
            ~machine compiled.Compile.prog)
    with
    | Error d -> J.Obj (key @ [ ("status", J.Str d.Lp_util.Diag.code) ])
    | Ok o ->
      let cycles =
        Array.fold_left
          (fun acc c -> acc +. float_of_int c)
          0.0 o.Sim.cycles_per_core
      in
      J.Obj
        (key
        @ [
            ("cycles", J.Num cycles);
            ("duration_ns", J.Num o.Sim.duration_ns);
            ("instrs", J.Num (float_of_int o.Sim.instr_total));
            ("steps", J.Num (float_of_int o.Sim.steps));
            ("energy", Ledger.to_json o.Sim.energy);
          ])
  in
  let cells =
    List.concat_map
      (fun (_, _, (mk : ?cores:int -> unit -> Machine.t)) ->
        let machine = mk () in
        List.map (cell machine) Suite.all)
      Machine.registry
  in
  (* deliberately no mode marker: the two modes' files must be
     byte-identical, which is exactly what CI diffs *)
  J.Obj [ ("schema", J.Str "lowpower-sim-metrics/2"); ("cells", J.List cells) ]

(* ------------------------------------------------------------------ *)
(* BENCH_sim.json schema                                               *)
(* ------------------------------------------------------------------ *)

let schema = "lowpower-bench-sim/1"

let stats_to_json s =
  J.Obj
    [
      ("runs", J.Num (float_of_int s.runs));
      ("wall_s", J.Num s.wall_s);
      ("instrs_per_sec", J.Num s.instrs_per_sec);
      ("cells_per_sec", J.Num s.cells_per_sec);
    ]

let row_to_json r =
  J.Obj
    [
      ("workload", J.Str r.sb_workload);
      ("instrs", J.Num (float_of_int r.sb_instrs));
      ("predecode_on", stats_to_json r.sb_on);
      ("predecode_off", stats_to_json r.sb_off);
      ("speedup", J.Num r.sb_speedup);
    ]

let to_json t =
  J.Obj
    [
      ("schema", J.Str schema);
      ("machine", J.Str t.sb_machine);
      ("config", J.Str t.sb_config);
      ("workloads", J.List (List.map row_to_json t.sb_rows));
      ("total_instrs_per_sec_on", J.Num t.sb_total_on);
      ("total_instrs_per_sec_off", J.Num t.sb_total_off);
      ("speedup", J.Num t.sb_total_speedup);
    ]

exception Bad of string

let need_num key o =
  match J.member key o with
  | Some (J.Num x) -> x
  | _ -> raise (Bad (Printf.sprintf "missing number %S" key))

let need_str key o =
  match J.member key o with
  | Some (J.Str s) -> s
  | _ -> raise (Bad (Printf.sprintf "missing string %S" key))

let stats_of_json key o =
  match J.member key o with
  | Some (J.Obj _ as s) ->
    {
      runs = int_of_float (need_num "runs" s);
      wall_s = need_num "wall_s" s;
      instrs_per_sec = need_num "instrs_per_sec" s;
      cells_per_sec = need_num "cells_per_sec" s;
    }
  | _ -> raise (Bad (Printf.sprintf "missing object %S" key))

let row_of_json o =
  {
    sb_workload = need_str "workload" o;
    sb_instrs = int_of_float (need_num "instrs" o);
    sb_on = stats_of_json "predecode_on" o;
    sb_off = stats_of_json "predecode_off" o;
    sb_speedup = need_num "speedup" o;
  }

let of_json j : (t, string) result =
  match
    (match J.member "schema" j with
    | Some (J.Str s) when s = schema ->
      let rows =
        match J.member "workloads" j with
        | Some (J.List l) -> List.map row_of_json l
        | _ -> raise (Bad "missing list \"workloads\"")
      in
      {
        sb_machine = need_str "machine" j;
        sb_config = need_str "config" j;
        sb_rows = rows;
        sb_total_on = need_num "total_instrs_per_sec_on" j;
        sb_total_off = need_num "total_instrs_per_sec_off" j;
        sb_total_speedup = need_num "speedup" j;
      }
    | Some (J.Str s) -> raise (Bad ("unknown schema " ^ s))
    | _ -> raise (Bad "missing string \"schema\""))
  with
  | t -> Ok t
  | exception Bad msg -> Error msg
