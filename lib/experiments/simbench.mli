(** The simulator microbenchmark behind [bench/sim_bench.exe] and the
    committed [BENCH_sim.json] artifact: wall-clock throughput of the
    compiled stepper vs the interpretive reference over the
    workload suite, plus the deterministic per-workload metrics dump CI
    byte-diffs to prove the two modes agree (see docs/PERF.md). *)

type mode_stats = {
  runs : int;            (** simulation repetitions timed *)
  wall_s : float;        (** total wall-clock over those runs *)
  instrs_per_sec : float;
  cells_per_sec : float; (** whole-simulation runs per second *)
}

type row = {
  sb_workload : string;
  sb_instrs : int;  (** instructions simulated by one run (mode-invariant) *)
  sb_on : mode_stats;   (** predecode on: the compiled stepper *)
  sb_off : mode_stats;  (** predecode off: interpretive reference *)
  sb_speedup : float;   (** on vs off instruction throughput *)
}

type t = {
  sb_machine : string;
  sb_config : string;
  sb_rows : row list;
  sb_total_on : float;   (** suite instr/s, predecode on *)
  sb_total_off : float;  (** suite instr/s, predecode off *)
  sb_total_speedup : float;
}

(** Time both simulator modes over every workload of the committed
    suite ([Compile.full] on the 4-core generic machine, simulated
    through {!Lowpower.Compile.simulate_compiled}).  Each mode of
    each workload gets one warm-up run, then repeats until both floors
    are met ([min_wall_s] seconds of wall-clock, default 0.2, and
    [min_runs] repetitions, default 3).  A workload whose compile or
    first simulation returns a diagnostic is left out; a foreign
    exception propagates. *)
val measure : ?min_wall_s:float -> ?min_runs:int -> unit -> t

(** Deterministic simulated metrics of every workload on every zoo
    machine ([Compile.full] on all of the machine's cores): cycles,
    duration, instructions, steps and the full energy ledger, or the
    diagnostic code of a cell that fails (an FPU workload on a machine
    without one).  Each cell simulates through
    {!Lowpower.Compile.simulate_result}, the path every entry point
    takes, so it equals the sweep's [full] cell on that machine.  Schema
    [lowpower-sim-metrics/2].  No wall-clock, no
    mode marker: CI writes this once per simulator mode and diffs the
    two files byte-for-byte. *)
val metrics : predecode:bool -> unit -> Lp_util.Json.t

val schema : string

val to_json : t -> Lp_util.Json.t
