(** Shared plumbing for the evaluation experiments (tables T1-T5, figures
    F1-F6, A1-A3) and the machine-zoo sweep: the parallel evaluation
    matrix, its memo cache, graceful degradation of failed cells, the
    cell-rendering helpers and the row tables built on them.

    The memo cache itself (an {!Lp_util.Memo} that never evicts) is
    private to the implementation; callers interact with it only through
    {!run_matrix} / {!result_of} (fill), {!clear_cache} (drop) and
    the {!cells} / {!failed_cells} snapshots. *)

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
      (** its [shared_final] is empty: the memo does not keep the
          program's final shared memory *)
}

(** One evaluated matrix cell: the run, or the structured diagnostic it
    degraded to, plus how many attempts it took (more than one when a
    transient fault was retried). *)
type cell = {
  attempts : int;
  result : (run_result, Diag.t) result;
}

(** Drop all memoised runs. *)
val clear_cache : unit -> unit

(** Retries after a transient failure, from the installed context's
    [Runtime_config.retries]. *)
val max_retries : unit -> int

(** Deterministic bounded exponential backoff used between transient-
    failure retries: delay in seconds before retry number [attempt]
    (1-based) — 4 ms, 8 ms, ... capped at 50 ms.  Pure; exposed so tests
    can pin the schedule (= {!Lp_util.Backoff.backoff_s}). *)
val backoff_s : int -> float

(** One cell of the evaluation matrix.  Experiments build each job once,
    pass it to {!run_matrix} and read its cell back through it
    ({!result_of}); the memo key is the (workload, config, machine)
    names. *)
type job = {
  j_workload : Workload.t;
  j_config : string;
  j_opts : Compile.options;
  j_machine : Machine.t;
}

(** The machine defaults to {!default_machine}. *)
val job : ?machine:Machine.t -> Workload.t -> config:string -> Compile.options -> job

(** Evaluate (and memoise) the job's cell, retrying transient failures
    with deterministic bounded backoff.  A cache miss runs under a
    per-cell [matrix] span when the installed context's recorder is
    enabled, and records its audit-report events under the scope
    [workload/config@machine]. *)
val cell_of : job -> cell

(** The cell's result alone (what the table renderers consume). *)
val result_of : job -> (run_result, Diag.t) result

(** Snapshot of every memoised cell, sorted by (workload, config,
    machine).  Simulation is deterministic, so the cells' results are
    exact across hosts and pool sizes. *)
val cells : unit -> ((string * string * string) * cell) list

(** Every failed cell currently memoised, sorted for deterministic
    summaries: ((workload, config, machine), attempts, diagnostic). *)
val failed_cells : unit -> ((string * string * string) * int * Diag.t) list

(** {2 Error-aware cell rendering} *)

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

(** [cross ?machine ws configs] — every workload under every (name, opts)
    configuration, the common matrix shape. *)
val cross :
  ?machine:Machine.t ->
  Workload.t list ->
  (string * Compile.options) list ->
  job list

(** Compile+simulate every job over the domain pool, memoising the
    results; already-cached and duplicate triples are skipped.  After
    [run_matrix], {!result_of} on any of the jobs is a cache hit.
    A failing cell never aborts the matrix: it is retried (bounded,
    deterministic backoff) when transient and otherwise memoised as a
    structured diagnostic for the renderers to show as [ERR(<code>)]. *)
val run_matrix : ?pool:Domain_pool.t -> job list -> unit

(** {2 Tables of rows}

    Most tables compare two cells per line: a reference and the cell
    compared with it (a line that reads one cell names it as both). *)

(** A line's leading key cells and its two jobs. *)
type row = { keys : string list; reference : job; compared : job }

val row : string list -> reference:job -> job -> row

(** A row that reads one cell: [reference] and [compared] are [job]. *)
val single : string list -> job -> row

(** What a column renders from a row's cells.  A failed side renders as
    [ERR(<code>)], exactly as {!scell} (one side) and {!scell2} (the
    pair: the compared side's code wins). *)
type column =
  | Reference of (run_result -> string)
  | Compared of (run_result -> string)
  | Pair of (run_result -> run_result -> string)

(** Run every row's jobs on the matrix, then render one line per row:
    its keys followed by its columns.  [header] and [aligns] cover the
    key columns too. *)
val row_table :
  title:string ->
  header:string list ->
  aligns:Table.align list ->
  column list ->
  row list ->
  Table.t

(** {2 Metrics and formatting} *)

(** Total compute cycles over every core. *)
val cycles : run_result -> float

val energy : run_result -> float
val time_ns : run_result -> float
val edp : run_result -> float

(** Energy of [config] normalised to the baseline run. *)
val normalised : base:run_result -> run_result -> float

val fmt_ratio : float -> string

(** Percentage by which [after] is below [before], one decimal; ["0.0"]
    when [before] is 0. *)
val reduction_pct : before:int -> after:int -> string

(** Count non-empty source lines of a workload. *)
val source_loc : Workload.t -> int

val all_workloads : Workload.t list

(** Geomean over aggregate values that survived their cells failing;
    ["-"] when every contributing cell failed. *)
val geomean_str : float option list -> string
