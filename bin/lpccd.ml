(** lpccd — the resilient compile server daemon.

    Serves [lpcc]'s compile/run/explain/pipeline operations — plus,
    under protocol version 2, a small-budget [tune] — over a
    Unix-domain socket (line-delimited JSON; version negotiation,
    protocol and failure taxonomy in docs/SERVING.md) with a warm
    compile cache shared across
    requests, bounded-queue backpressure, per-request deadlines with
    cooperative cancellation, a stuck-request watchdog, per-request
    crash isolation and a clean drain on SIGTERM/SIGINT.

    Exit is always 0 on a requested shutdown (signal or [shutdown] op):
    a drained daemon is a successful daemon. *)

module Server = Lp_serve.Server
module Compile = Lowpower.Compile
module Fault = Lp_util.Fault
module Runtime_config = Lp_util.Runtime_config
module Json = Lp_util.Json
module Obs = Lp_obs.Obs
module Report = Lp_obs.Report
open Cmdliner

let serve socket jobs queue_cap cache_cap default_deadline_ms stuck_ms
    drain_ms retries faults trace report no_analysis_cache no_sim_predecode =
  let config =
    Runtime_config.resolve ?retries ?faults ?trace ?report
      ~no_analysis_cache ~no_sim_predecode
      (Runtime_config.from_env ())
  in
  match
    match config.Runtime_config.faults with
    | None -> Ok ()
    | Some spec -> Fault.configure spec
  with
  | Error msg -> `Error (false, "invalid fault spec: " ^ msg)
  | Ok () -> (
    let obs =
      match config.Runtime_config.trace with
      | Some _ -> Obs.create ()
      | None -> Obs.disabled
    in
    let rep =
      match config.Runtime_config.report with
      | Some _ -> Report.create ()
      | None -> Report.disabled
    in
    let ctx = Compile.make_ctx ~obs ~report:rep ~config () in
    let opts =
      {
        (Server.default_opts ~socket_path:socket) with
        Server.jobs;
        queue_capacity = queue_cap;
        cache_capacity = cache_cap;
        default_deadline_ms;
        stuck_ms;
        drain_ms;
      }
    in
    match Server.start ~ctx opts with
    | exception Unix.Unix_error (e, _, arg) ->
      `Error
        ( false,
          Printf.sprintf "cannot listen on %s: %s %s" socket
            (Unix.error_message e) arg )
    | server ->
      let on_signal _ = Server.request_stop server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      (* a client that disappears mid-write must not kill the daemon *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Printf.printf "lpccd listening on %s (%d workers, queue %d)\n%!" socket
        jobs queue_cap;
      while not (Server.stopping server) do
        Unix.sleepf 0.1
      done;
      prerr_endline "lpccd: draining...";
      Server.stop server;
      prerr_endline ("lpccd: final stats: "
                     ^ Json.to_compact_string (Server.stats_json server));
      (match config.Runtime_config.trace with
      | Some path when Obs.enabled obs -> Obs.write_chrome obs ~path
      | _ -> ());
      (match config.Runtime_config.report with
      | Some path when Report.enabled rep -> Report.write rep ~path
      | _ -> ());
      `Ok ())

let () =
  let doc = "resilient compile server for lpcc (deadlines, backpressure, graceful degradation)" in
  let socket =
    Arg.(value & opt string "lpccd.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on (replaced if present).")
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Bounded request queue; beyond it requests are shed with \
                   the transient $(b,E_OVERLOAD) diagnostic.")
  in
  let cache_cap =
    Arg.(value & opt int 128
         & info [ "cache-cap" ] ~docv:"N"
             ~doc:"Warm cache entries shared across requests: compiled \
                   programs and their memoised $(b,run) replies, evicted \
                   least recently used first.")
  in
  let default_deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"N"
             ~doc:"Default per-request deadline applied when a request \
                   carries none; expiry reports $(b,E_DEADLINE).")
  in
  let stuck_ms =
    Arg.(value & opt int 30000
         & info [ "stuck-ms" ] ~docv:"N"
             ~doc:"Watchdog: cancel deadline-less requests still running \
                   after $(docv) milliseconds.")
  in
  let drain_ms =
    Arg.(value & opt int 10000
         & info [ "drain-ms" ] ~docv:"N"
             ~doc:"On shutdown, wait up to $(docv) milliseconds for \
                   in-flight requests before cancelling them.")
  in
  let retries =
    Arg.(value & opt (some int) None
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retries after a transient per-request failure (default: \
                   $(b,LP_RETRIES) or 2).")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Inject deterministic faults, including the serve-side \
                   points $(b,serve-accept), $(b,serve-decode) and \
                   $(b,serve-dispatch) (grammar in docs/ROBUSTNESS.md).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event profile on exit.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the power-decision audit report on exit.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-analysis-cache" ]
             ~doc:"Disable the analysis manager's memoisation.")
  in
  let no_predecode =
    Arg.(value & flag
         & info [ "no-sim-predecode" ]
             ~doc:"Use the simulator's interpretive reference stepper.")
  in
  let info = Cmd.info "lpccd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(ret (const serve $ socket $ jobs $ queue_cap $ cache_cap
                     $ default_deadline $ stuck_ms $ drain_ms $ retries
                     $ faults $ trace $ report $ no_cache $ no_predecode))))
