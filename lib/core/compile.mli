(** The compiler driver — the library's main public entry point.

    Pipeline: MiniC source → pattern detection (annotation verification +
    inference) → pattern-driven parallelisation → IR lowering → classic
    optimisation (constant promotion, folding, DCE, CFG simplification,
    MAC fusion, strength reduction, LICM) → pattern-aware power
    management (pipeline balancing, DVFS insertion, power gating with
    Sink-N-Hoist) → verified program, optionally simulated. *)

module Ast = Lp_lang.Ast
module Pattern = Lp_patterns.Pattern
module Prog = Lp_ir.Prog
module Machine = Lp_machine.Machine
module T = Lp_transforms

type power_options = {
  gating : bool;          (** component power gating *)
  sink_n_hoist : bool;    (** merge gating instructions *)
  dvfs : bool;            (** per-loop DVFS insertion *)
  balance : bool;         (** pipeline stage balancing *)
  gate_unused_cores : bool;  (** gate cores the program does not occupy *)
  gating_opts : T.Gating.options;
  dvfs_opts : T.Dvfs.options;
}

type options = {
  n_cores : int;       (** cores the compiler may occupy *)
  parallelize : bool;
  distribution : T.Parallelize.distribution;
      (** how doall/reduction iteration spaces split across cores *)
  sync : T.Parallelize.sync;
      (** non-reduction doall completion: per-worker acknowledge or barrier *)
  mac_fusion : bool;
  power : power_options;
  pipeline : Pipeline.t option;
      (** classic-optimisation schedule; [None] = {!Pipeline.default}
          (overridden by [lpcc run --passes]) *)
}

val no_power : power_options

(** Smart constructors over {!options}: build ([make]) or derive
    ([update]) a configuration by naming only the fields that differ,
    with the power flags flattened alongside the driver flags so callers
    never hand-roll nested [{ opts with power = { ... } }] updates.
    [make]'s defaults are exactly {!baseline}; [update] keeps the base's
    value for every omitted argument.  The presets below are defined
    through [make]. *)
module Options : sig
  val make :
    ?n_cores:int ->
    ?parallelize:bool ->
    ?distribution:T.Parallelize.distribution ->
    ?sync:T.Parallelize.sync ->
    ?mac_fusion:bool ->
    ?gating:bool ->
    ?sink_n_hoist:bool ->
    ?dvfs:bool ->
    ?balance:bool ->
    ?gate_unused_cores:bool ->
    ?gating_opts:T.Gating.options ->
    ?dvfs_opts:T.Dvfs.options ->
    ?pipeline:Pipeline.t ->
    unit ->
    options

  val update :
    ?n_cores:int ->
    ?parallelize:bool ->
    ?distribution:T.Parallelize.distribution ->
    ?sync:T.Parallelize.sync ->
    ?mac_fusion:bool ->
    ?gating:bool ->
    ?sink_n_hoist:bool ->
    ?dvfs:bool ->
    ?balance:bool ->
    ?gate_unused_cores:bool ->
    ?gating_opts:T.Gating.options ->
    ?dvfs_opts:T.Dvfs.options ->
    ?pipeline:Pipeline.t ->
    options ->
    options
end

(** The configurations compared by the evaluation. *)

(** Plain optimising compile, single core, no power management. *)
val baseline : options

(** Adds component power gating (with Sink-N-Hoist). *)
val pg_only : options

(** Adds compiler-directed DVFS. *)
val dvfs_only : options

(** Both power transformations, still sequential. *)
val pg_dvfs : options

(** The paper's proposal: pattern-driven multicore parallelisation plus
    all power transformations. *)
val full : n_cores:int -> options

(** Parallelisation without power management (isolates the two effects). *)
val par_only : n_cores:int -> options

(** The configuration table: every configuration above by its name
    ([baseline], [pg], [dvfs], [pg+dvfs], [par], [full]), in sweep
    order, with the parallel ones sized for [n_cores].  Every entry
    point (lpcc's [-k], lpccd's ["config"], the experiments and the
    sweep) resolves configuration names through this one list. *)
val configs : n_cores:int -> (string * options) list

(** The names of {!configs}, in the same order. *)
val config_names : string list

type compiled = {
  source_ast : Ast.program;          (** the original, type-checked AST *)
  prog : Prog.t;                     (** final verified IR *)
  par_info : T.Par_info.t;
  detection : Pattern.report;
  pass_stats : T.Pass.stats list;
  gating_before_merge : T.Gating.counts;
  gating_after_merge : T.Gating.counts;
  machine : Machine.t;
  options : options;
}

exception Compile_error of string

(** {2 The driver context}

    One explicit record carries everything the pipeline used to pick up
    ambiently: the telemetry recorder, the power-decision audit report,
    and the resolved runtime configuration.  Every entry point takes
    [?ctx]; omitting it gives the old behaviour exactly (disabled
    recorder, disabled report, default config), so existing callers
    compile and behave unchanged. *)

type ctx = {
  obs : Lp_obs.Obs.t;                 (** span/counter recorder *)
  report : Lp_obs.Report.t;
      (** power-decision audit report: pattern verdicts, gating and DVFS
          decisions, per-pass IR deltas, per-simulation energy ledgers
          (schema in docs/OBSERVABILITY.md) *)
  config : Lp_util.Runtime_config.t;  (** resolved jobs/retries/faults/trace *)
  deadline : Lp_util.Deadline.t;
      (** cooperative per-request deadline/cancellation token, checked at
          phase boundaries, before every per-function pass run, and once
          per simulator scheduling decision; expiry surfaces as the
          stable [E_DEADLINE] diagnostic.  {!Lp_util.Deadline.none}
          (the default) costs one pointer compare per check *)
}

(** Disabled recorder, disabled report, default configuration — zero
    overhead. *)
val default_ctx : ctx

val make_ctx :
  ?obs:Lp_obs.Obs.t ->
  ?report:Lp_obs.Report.t ->
  ?config:Lp_util.Runtime_config.t ->
  ?deadline:Lp_util.Deadline.t ->
  unit ->
  ctx

(** [with_session config f] runs one program invocation under its
    resolved runtime configuration: the one session every entry point
    (lpcc, lpccd, the bench drivers) opens.  It arms [config.faults],
    sizes the default domain pool from [config.jobs], and calls [f]
    with a ctx whose recorder and audit report are enabled when
    [config.trace] / [config.report] name a file, and whose deadline
    (from [config.deadline_ms]) starts now.  However [f] returns,
    normally or by an exception, the Chrome trace and the report are
    then written and announced on stderr, so a diagnosed run still
    leaves its profile and audit behind.  [Error] (["invalid fault
    spec: ..."]) when the fault spec does not parse; [f] does not run.
    [f] must return rather than call [exit], which would skip the
    writes. *)
val with_session :
  Lp_util.Runtime_config.t -> (ctx -> 'a) -> ('a, string) result

(** Append [outcome]'s energy-ledger breakdown and headline counters to
    the report under the current {!Lp_obs.Report.with_scope} scope, and
    record a warning when the simulator observed implicit wakeups.
    No-op on the disabled report.  [run]/[run_result] call this
    themselves; it is exposed for callers that drive
    {!Lp_sim.Sim.run} directly. *)
val record_outcome : Lp_obs.Report.t -> Lp_sim.Sim.outcome -> unit

(** Parse and type-check only; raises [Compile_error]. *)
val parse_and_check : string -> Ast.program

(** [parse_and_check] raising the raw front-end exceptions
    ([Lex_error], [Parse_error], [Type_error]) instead of wrapping them
    in [Compile_error]; {!diag_of_exn} maps these onto their specific
    diagnostic codes. *)
val parse_and_check_exn : string -> Ast.program

(** Pattern instances the machine can host. *)
val feasible_instances :
  n_cores:int -> Pattern.instance list -> Pattern.instance list

(** Compile [source] for [machine]; raises [Compile_error] (which also
    wraps internal self-check failures: generated code that fails to
    re-type-check or IR that fails verification).  When [ctx] carries an
    enabled recorder the whole pipeline runs inside a [compile] span
    with per-phase, per-fixpoint-round, per-pass and per-function child
    spans. *)
val compile :
  ?ctx:ctx -> ?opts:options -> machine:Machine.t -> string -> compiled

(** Compile and simulate.  The simulator is told to model compiler-gated
    unused cores when the options enable it, and inherits [ctx]'s
    recorder (per-core simulated-time spans, cycle and bus counters). *)
val run :
  ?ctx:ctx ->
  ?opts:options ->
  ?sim_opts:Lp_sim.Sim.options ->
  machine:Machine.t ->
  string ->
  compiled * Lp_sim.Sim.outcome

(** Simulate an already-[compile]d program exactly as {!run} would have
    (same unused-core gating, predecode and deadline resolution).  The
    compile server simulates warm-cache entries through this, which is
    what makes a cached reply byte-identical to a cold one.  Raises like
    [Lp_sim.Sim.run]; {!simulate_result} returns diagnostics instead. *)
val simulate_compiled :
  ?ctx:ctx ->
  ?sim_opts:Lp_sim.Sim.options ->
  compiled ->
  Lp_sim.Sim.outcome

(** {2 Structured diagnostics}

    The [*_result] entry points never raise for pipeline failures: every
    exception the pipeline owns (lex/parse/type errors, [Par_error],
    [Lower_error], [Verify.Invalid], [Compile_error],
    simulator deadlock/step-limit/runtime errors, injected faults) comes
    back as an [Error] carrying a {!Lp_util.Diag.t} with a stable code.
    A foreign exception still propagates — it is a bug, and the fuzzer
    treats it as a finding. *)

(** Map a pipeline exception onto its diagnostic; [None] for foreign
    exceptions.  Codes are listed in docs/ROBUSTNESS.md. *)
val diag_of_exn : exn -> Lp_util.Diag.t option

(** [compile] with diagnostics instead of exceptions.  [verify_each]
    additionally re-runs the IR verifier after every optimisation pass
    (used by the pipeline fuzzer). *)
val compile_result :
  ?ctx:ctx ->
  ?verify_each:bool ->
  ?opts:options ->
  machine:Machine.t ->
  string ->
  (compiled, Lp_util.Diag.t) result

(** [compile_result] from an already parsed program: every phase after
    the frontend, inside the same [compile] span, core-count check and
    deadline checks.  Precondition: [ast] came from
    {!parse_and_check_exn} (or {!parse_and_check}), so it has passed
    the type checker; an unchecked AST is not rejected and may fail in
    lowering or verification instead.  No phase mutates [ast], so one
    parse may feed many compiles, concurrently too: the autotuner parses
    its workload once per search and compiles every candidate schedule
    from the result.  [compile_result ~opts ~machine src] equals
    [compile_checked ~opts ~machine (parse_and_check_exn src)] whenever
    [src] type-checks. *)
val compile_checked :
  ?ctx:ctx ->
  ?opts:options ->
  machine:Machine.t ->
  Ast.program ->
  (compiled, Lp_util.Diag.t) result

(** {!simulate_compiled} with diagnostics instead of exceptions, mapped
    by {!diag_of_exn}. *)
val simulate_result :
  ?ctx:ctx ->
  ?sim_opts:Lp_sim.Sim.options ->
  compiled ->
  (Lp_sim.Sim.outcome, Lp_util.Diag.t) result

(** [run] with diagnostics instead of exceptions. *)
val run_result :
  ?ctx:ctx ->
  ?verify_each:bool ->
  ?opts:options ->
  ?sim_opts:Lp_sim.Sim.options ->
  machine:Machine.t ->
  string ->
  (compiled * Lp_sim.Sim.outcome, Lp_util.Diag.t) result
