(** Shared plumbing for the evaluation experiments (tables T1-T5, figures
    F1-F6): the parallel evaluation matrix, its memo cache, graceful
    degradation of failed cells, and the cell-rendering helpers.

    The memo cache itself (hashtable, mutex, insert policy) is private to
    the implementation; callers interact with it only through
    {!run_matrix} / {!run_workload_cell} (fill), {!clear_cache} (drop) and
    the {!failed_cells} / {!cell_statuses} snapshots. *)

(** Aliases shared by every experiment module ([open Exp_common] brings
    them into scope). *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module Pattern = Lp_patterns.Pattern
module Workload = Lp_workloads.Workload
module Table = Lp_util.Table
module Domain_pool = Lp_util.Domain_pool
module Diag = Lp_util.Diag
module Fault = Lp_util.Fault
module Obs = Lp_obs.Obs

(** {2 Driver context}

    Experiment entry points are [unit -> Table.t], so the driver context
    (telemetry recorder + resolved runtime configuration) is installed
    once by the process entry point (bin/, bench/, a test) rather than
    threaded through every table function.  The default is
    {!Compile.default_ctx}: disabled recorder, default config. *)

val set_ctx : Compile.ctx -> unit
val current_ctx : unit -> Compile.ctx

(** {2 Machines} *)

(** The machine of the main evaluation. *)
val default_machine : unit -> Machine.t

(** Big machine for the core-count sweep. *)
val machine_with_cores : int -> Machine.t

(** {2 Cells} *)

type run_result = {
  workload : string;
  config : string;
  compiled : Compile.compiled;
  outcome : Sim.outcome;
}

(** One evaluated matrix cell: the run, or the structured diagnostic it
    degraded to, plus how many attempts it took (more than one when a
    transient fault was retried). *)
type cell = {
  attempts : int;
  result : (run_result, Diag.t) result;
}

(** Drop all memoised runs (the bench harness uses this to time a cold
    sequential reference pass against a cold parallel pass). *)
val clear_cache : unit -> unit

(** Retries after a transient failure, from the installed context's
    [Runtime_config.retries]. *)
val max_retries : unit -> int

(** Deterministic bounded exponential backoff used between transient-
    failure retries: delay in seconds before retry number [attempt]
    (1-based) — 4 ms, 8 ms, ... capped at 50 ms.  Pure; exposed so tests
    can pin the schedule (= {!Lp_util.Backoff.backoff_s}). *)
val backoff_s : int -> float

(** Evaluate (and memoise) one cell, retrying transient failures with
    deterministic bounded backoff.  A cache miss runs under a per-cell
    [matrix] span when the installed context's recorder is enabled. *)
val run_workload_cell :
  ?machine:Machine.t ->
  Workload.t ->
  config:string ->
  Compile.options ->
  cell

(** The cell's result alone (what the table renderers consume). *)
val run_workload_result :
  ?machine:Machine.t ->
  Workload.t ->
  config:string ->
  Compile.options ->
  (run_result, Diag.t) result

(** Every failed cell currently memoised, sorted for deterministic
    summaries: ((workload, config, machine), attempts, diagnostic). *)
val failed_cells : unit -> ((string * string * string) * int * Diag.t) list

(** Snapshot of every memoised cell's status, sorted:
    ((workload, config, machine), attempts, error code option). *)
val cell_statuses :
  unit -> ((string * string * string) * int * string option) list

(** Snapshot of every memoised cell that ran, with the two simulated
    metrics the regression baseline tracks, sorted:
    ((workload, config, machine), total compute cycles, energy in nJ).
    Simulation is deterministic, so these are exact across hosts and
    pool sizes. *)
val cell_metrics : unit -> ((string * string * string) * float * float) list

(** {2 Error-aware cell rendering} *)

(** How a failed cell renders in a table. *)
val err_str : Diag.t -> string

(** Format a cell: the metric when it ran, [ERR(<code>)] when it
    failed. *)
val scell : (run_result, Diag.t) result -> (run_result -> string) -> string

(** A cell pairing two runs (ratios, overheads): the failed side's code
    wins, preferring the non-base cell's. *)
val scell2 :
  (run_result, Diag.t) result ->
  (run_result, Diag.t) result ->
  (run_result -> run_result -> string) ->
  string

(** Metric of a pair of cells, for aggregate rows; [None] when either
    side failed. *)
val fopt2 :
  (run_result, Diag.t) result ->
  (run_result, Diag.t) result ->
  (run_result -> run_result -> float) ->
  float option

(** {2 The parallel evaluation matrix} *)

(** One cell of the evaluation matrix. *)
type job = {
  j_workload : Workload.t;
  j_config : string;
  j_opts : Compile.options;
  j_machine : Machine.t;
}

val job : ?machine:Machine.t -> Workload.t -> config:string -> Compile.options -> job

(** [cross ?machine ws configs] — every workload under every (name, opts)
    configuration, the common matrix shape. *)
val cross :
  ?machine:Machine.t ->
  Workload.t list ->
  (string * Compile.options) list ->
  job list

(** Compile+simulate every job over the domain pool, memoising the
    results; already-cached and duplicate triples are skipped.  After
    [run_matrix], [run_workload_cell] on any of the jobs is a cache hit.
    A failing cell never aborts the matrix: it is retried (bounded,
    deterministic backoff) when transient and otherwise memoised as a
    structured diagnostic for the renderers to show as [ERR(<code>)]. *)
val run_matrix : ?pool:Domain_pool.t -> job list -> unit

(** {2 Metrics and formatting} *)

val energy : run_result -> float
val time_ns : run_result -> float
val edp : run_result -> float

(** Energy of [config] normalised to the baseline run. *)
val normalised : base:run_result -> run_result -> float

val fmt_ratio : float -> string

(** Count non-empty source lines of a workload. *)
val source_loc : Workload.t -> int

val all_workloads : Workload.t list

val geomean_of : float list -> float

(** Geomean over aggregate values that survived their cells failing;
    ["-"] when every contributing cell failed. *)
val geomean_str : float option list -> string
