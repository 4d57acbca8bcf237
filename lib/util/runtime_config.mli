(** The one runtime-configuration surface.

    Historically three scattered mechanisms configured the pipeline:
    environment variables read deep inside libraries ([LP_JOBS] in the
    domain pool, [LP_RETRIES] in the evaluation matrix, [LP_FAULTS] in
    fault injection), optional function arguments, and CLI flags.  This
    module consolidates them: a [t] is resolved {e once} at a program's
    entry point and handed to the libraries; no library module reads the
    environment directly.

    {2 Precedence}

    [flag > environment > default], applied field-wise:

    + {!default} supplies every fallback value;
    + {!from_env} overlays the [LP_*] environment variables
      ([LP_JOBS], [LP_RETRIES], [LP_FAULTS], [LP_TRACE], [LP_REPORT]) —
      malformed
      values are ignored, keeping the default;
    + {!resolve} overlays explicit CLI flags on top.

    So an entry point does
    [Runtime_config.(resolve ~jobs ... (from_env ()))] and passes the
    result down.  Only [bin/], [bench/] and this module may touch the
    environment (enforced by a grep in the test suite's conventions). *)

type t = {
  jobs : int option;
      (** worker domains for the evaluation matrix; [None] = the host's
          recommended domain count minus one ([LP_JOBS] / [--jobs]) *)
  retries : int;
      (** retries after a transient per-cell failure, >= 0
          ([LP_RETRIES], default 2) *)
  faults : string option;
      (** deterministic fault-injection spec, see docs/ROBUSTNESS.md
          ([LP_FAULTS] / [--faults]) *)
  trace : string option;
      (** Chrome trace-event JSON output path; [None] = telemetry off
          ([LP_TRACE] / [--trace]) *)
  report : string option;
      (** power-decision audit report JSON output path; [None] = report
          off ([LP_REPORT] / [--report]) *)
  no_analysis_cache : bool;
      (** escape hatch: make the analysis manager recompute every query
          instead of serving memoized results ([LP_NO_ANALYSIS_CACHE=1]
          / [--no-analysis-cache]).  Output must be byte-identical
          either way; this exists to prove it and to debug suspected
          stale-analysis miscompiles *)
  no_sim_predecode : bool;
      (** escape hatch: run the simulator's interpretive reference
          stepper instead of the closure-compiled one
          ([LP_NO_SIM_PREDECODE=1] / [--no-sim-predecode]).  Simulated
          cycles, energy and traces must be byte-identical either way;
          this exists to prove it and to bisect suspected
          predecode-compilation bugs *)
  deadline_ms : int option;
      (** cooperative wall-clock deadline for one compile+simulate
          request, in milliseconds; exceeding it surfaces as the stable
          [E_DEADLINE] diagnostic ([LP_DEADLINE_MS] / [--deadline-ms]).
          [None] = no deadline *)
  profile : bool;
      (** collect the source-level energy profile during simulation
          ([LP_PROFILE=1] / the [lpcc profile] command).  Attribution is
          a pure observer: cycles, energy ledgers and every gate that
          checks them are byte-identical with profiling on or off *)
}

(** All defaults: auto-sized pool, 2 retries, no faults, no trace, no
    report. *)
val default : t

(** {!default} overlaid with the [LP_*] environment variables
    (including [LP_REPORT]).  Only this function (and programs under
    [bin/]/[bench/]) reads the environment. *)
val from_env : unit -> t

(** [resolve ?jobs ?retries ?faults ?trace ?report ?no_analysis_cache
    base] overlays the given flags on [base]; omitted (or blank-string)
    flags keep [base]'s value.  [~no_analysis_cache:false] is treated as
    "flag absent" so the environment variable still wins. *)
val resolve :
  ?jobs:int ->
  ?retries:int ->
  ?faults:string ->
  ?trace:string ->
  ?report:string ->
  ?no_analysis_cache:bool ->
  ?no_sim_predecode:bool ->
  ?deadline_ms:int ->
  t ->
  t

(** One-line rendering for logs. *)
val to_string : t -> string
