open Cmdliner
module Runtime_config = Lp_util.Runtime_config

(* an int of at least [lo]: what the environment variables accept too *)
let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  Arg.(value & opt (some (int_from 1)) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains the evaluation matrix may fan out over (default: \
                 $(b,LP_JOBS) or the host's recommended domain count minus \
                 one; 1 runs sequentially).")

let retries =
  Arg.(value & opt (some (int_from 0)) None
       & info [ "retries" ] ~docv:"N"
           ~doc:"Retries after a transient failure of a matrix cell or a \
                 served request (default: $(b,LP_RETRIES) or 2).")

let faults =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Inject deterministic faults (see docs/ROBUSTNESS.md for \
                 the grammar, e.g. $(b,seed=7,post-pass@fir*1); servers \
                 also have the points $(b,serve-accept), $(b,serve-decode) \
                 and $(b,serve-dispatch)).  The $(b,LP_FAULTS) environment \
                 variable is the equivalent.")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON profile of this invocation \
                 to $(docv) (open in chrome://tracing or Perfetto) and print \
                 a span/counter summary to stderr.  The $(b,LP_TRACE) \
                 environment variable is the equivalent.")

let report =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the power-decision audit report (JSON, schema in \
                 docs/OBSERVABILITY.md) to $(docv): pattern verdicts, \
                 gating and DVFS decisions, Sink-N-Hoist merges, per-pass \
                 IR deltas, and the full per-core energy-ledger breakdown \
                 of every simulation.  The $(b,LP_REPORT) environment \
                 variable is the equivalent.")

let no_analysis_cache =
  Arg.(value & flag
       & info [ "no-analysis-cache" ]
           ~doc:"Make the analysis manager recompute every query instead of \
                 serving cached results.  Output must be byte-identical with \
                 and without this flag; it exists to prove that and to debug \
                 suspected stale-analysis miscompiles.  The \
                 $(b,LP_NO_ANALYSIS_CACHE) environment variable is the \
                 equivalent.")

let no_sim_predecode =
  Arg.(value & flag
       & info [ "no-sim-predecode" ]
           ~doc:"Run the simulator's interpretive reference stepper instead \
                 of the closure-compiled one.  Simulated cycles, energy and \
                 traces must be byte-identical with and without this flag; \
                 it exists to prove that and to bisect suspected predecode \
                 bugs.  The $(b,LP_NO_SIM_PREDECODE) environment variable \
                 is the equivalent.")

let deadline_ms =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ] ~docv:"N"
           ~doc:"Cooperative wall-clock deadline for this invocation in \
                 milliseconds.  The pipeline and simulator check it at \
                 phase, pass and scheduling boundaries; exceeding it \
                 reports the stable $(b,E_DEADLINE) diagnostic instead of \
                 running forever.  The $(b,LP_DEADLINE_MS) environment \
                 variable is the equivalent.")

let resolve ?jobs ?deadline_ms retries faults trace report no_analysis_cache
    no_sim_predecode =
  Runtime_config.resolve ?jobs ?retries ?faults ?trace ?report
    ~no_analysis_cache ~no_sim_predecode ?deadline_ms
    (Runtime_config.from_env ())

let server_runtime_t =
  Term.(const (resolve ?jobs:None ?deadline_ms:None) $ retries $ faults
        $ trace $ report $ no_analysis_cache $ no_sim_predecode)

let runtime_t =
  Term.(const (fun jobs deadline_ms -> resolve ?jobs ?deadline_ms) $ jobs
        $ deadline_ms $ retries $ faults $ trace $ report $ no_analysis_cache
        $ no_sim_predecode)
