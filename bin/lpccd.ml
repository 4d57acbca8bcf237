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
module Json = Lp_util.Json
open Cmdliner

let serve socket jobs queue_cap cache_cap default_deadline_ms stuck_ms
    drain_ms config =
  match
    Compile.with_session config @@ fun ctx ->
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
      `Ok ()
  with
  | Ok r -> r
  | Error msg -> `Error (false, msg)

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
  let info = Cmd.info "lpccd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(ret (const serve $ socket $ jobs $ queue_cap $ cache_cap
                     $ default_deadline $ stuck_ms $ drain_ms
                     $ Lp_cli.Cli.server_runtime_t))))
