(** Energy-aware phase-ordering autotuner over {!Lowpower.Pipeline.t}.

    PR 5 made the optimisation schedule a first-class data value; this
    module searches that space.  The search is seeded hill-climbing with
    random restarts: from the flattened default schedule it proposes a
    round of 8 mutated candidates (swap/move/drop/duplicate a step,
    split or merge a [fix(...)] group), evaluates each through the
    compiler and the simulator's energy ledger (objective: total energy
    in nJ, total compute cycles as tie-break), and moves to the best
    strict improvement.  After 4 stalled rounds it restarts from a
    seeded shuffle of the starting schedule.

    Determinism: all randomness comes from one {!Lp_util.Rng} seeded
    from [seed] and the workload name, candidates are generated
    sequentially and only their (deterministic) evaluations fan out over
    {!Lp_util.Domain_pool.parallel_map}, so the tuned schedule and every
    reported statistic are byte-identical whatever the pool size.
    Duplicate candidates are never recompiled: evaluations are memoised
    per spec string, exactly the cell discipline of [Exp_common].  Each
    search parses its workload once and compiles every candidate from
    that AST ({!Compile.compile_checked}); a program is simulated only
    if no earlier candidate of the same search compiled to the same
    {!Lp_ir.Prog.digest} (unless a fault spec is armed: then every
    candidate is simulated).  docs/TUNING.md has the details.

    Observability: runs add the [tune.candidates], [tune.cache_hits],
    [tune.simulations] and [tune.improved] counters to the context's
    recorder (docs/OBSERVABILITY.md). *)

module Compile = Lowpower.Compile
module Pipeline = Lowpower.Pipeline
module Machine = Lp_machine.Machine
module Workload = Lp_workloads.Workload

(** What the search minimises: ledger energy first, compute cycles as
    the tie-break. *)
type objective = { energy_nj : float; cycles : int }

(** [better a b] — is [a] strictly better than [b]? *)
val better : objective -> objective -> bool

type config = {
  budget : int;
      (** maximum number of unique schedule evaluations per workload
          (the baseline evaluation counts; cache hits do not) *)
  seed : int;
  config_name : string;  (** label for tables/JSON, e.g. ["baseline"] *)
  opts : Compile.options;
      (** compiler configuration the candidates run under; its
          [pipeline] (default schedule when [None]) is the starting
          point and the baseline *)
  machine : Machine.t;
}

(** Defaults: budget 100, seed 1, [Compile.baseline] on the generic
    4-core machine. *)
val default_config :
  ?budget:int ->
  ?seed:int ->
  ?config_name:string ->
  ?opts:Compile.options ->
  ?machine:Machine.t ->
  unit ->
  config

(** Workloads [lpcc tune] tunes when none are named: one the default
    schedule already saturates (fir — the tuner should report [=]) and
    three with nested loops or multi-phase structure where pass
    ordering is a real energy lever (conv2d, jpegblocks, fft). *)
val default_workloads : string list

(** One random mutation of a flat schedule: swap, move, drop or
    duplicate a step, split a [fix(...)] group, or merge two adjacent
    steps into one group.  Never returns an empty schedule; input must
    be flat ({!Pipeline.flatten}) and non-empty.  Exposed for the
    property tests. *)
val mutate : Lp_util.Rng.t -> Pipeline.t -> Pipeline.t

type workload_result = {
  tw_workload : string;
  tw_baseline : objective;  (** the default (starting) schedule *)
  tw_best : objective;
  tw_best_spec : string;  (** one-line spec of the best schedule *)
  tw_candidates : int;  (** mutation proposals generated *)
  tw_evaluated : int;
      (** unique schedules compiled, and simulated unless an earlier
          schedule of the same search compiled to the same program *)
  tw_cache_hits : int;  (** proposals answered from the memo cache *)
  tw_restarts : int;
}

(** Did the search find a schedule strictly better than the baseline? *)
val improved : workload_result -> bool

(** Energy saved relative to the baseline, in percent (>= 0). *)
val improvement_pct : workload_result -> float

type summary = {
  t_seed : int;
  t_budget : int;
  t_config : string;
  t_machine : string;
  t_workloads : workload_result list;
}

(** Tune one workload.  Evaluations fan out over [pool] (default: the
    shared default pool); a [jobs:1] pool runs them inline, which is
    what the compile server uses from inside its own worker.  [Error]
    only when the baseline itself fails to compile or the context
    deadline expires ([E_DEADLINE]); infeasible candidates just lose. *)
val tune_workload :
  ?ctx:Compile.ctx ->
  ?pool:Lp_util.Domain_pool.t ->
  config ->
  Workload.t ->
  (workload_result, Lp_util.Diag.t) result

(** {!tune_workload} over a list, first failure wins. *)
val run :
  ?ctx:Compile.ctx ->
  ?pool:Lp_util.Domain_pool.t ->
  config ->
  Workload.t list ->
  (summary, Lp_util.Diag.t) result

(** The per-workload best-schedule table. *)
val to_table : summary -> Lp_util.Table.t

(** Table plus one [workload: spec] line per workload. *)
val render : summary -> string

(** Schema identifier of {!json_of}: ["lowpower-bench-tune/1"]. *)
val schema : string

val json_of : summary -> Lp_util.Json.t

(** The workload with the largest relative improvement, if any workload
    improved at all (ties keep the earlier workload). *)
val best_improvement : summary -> workload_result option

(** Save the best-improvement schedule as a schedule file
    ({!Pipeline.save_file}) replayable with [lpcc run --passes @FILE];
    [Error] with an explanation when nothing improved. *)
val save_best : summary -> string -> (workload_result, string) result
