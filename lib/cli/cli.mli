(** The command-line surface shared by every executable: lpcc's
    subcommands, lpccd and both bench drivers declare the runtime flags
    through these terms, so each flag has one spelling, one doc string
    and one resolution, {!Lp_util.Runtime_config.resolve} (flag >
    [LP_*] environment > default).  The resolved configuration is what
    {!Lowpower.Compile.with_session} takes. *)

open Cmdliner

(** [--no-sim-predecode], alone: the only runtime flag
    [bench/sim_bench.exe] takes. *)
val no_sim_predecode : bool Term.t

(** The eight runtime flags ([--jobs], [--retries], [--faults],
    [--trace], [--report], [--no-analysis-cache], [--no-sim-predecode],
    [--deadline-ms]), resolved over the environment. *)
val runtime_t : Lp_util.Runtime_config.t Term.t

(** {!runtime_t} without [--jobs] and [--deadline-ms], for servers,
    whose own [--jobs] counts workers and whose deadlines are per
    request. *)
val server_runtime_t : Lp_util.Runtime_config.t Term.t
