(** lpcc — the low-power pattern compiler driver.

    Subcommands:
    - [detect]    print the pattern detection report for a source file
    - [run]       compile and simulate under a chosen configuration
    - [explain]   print the power-decision audit of a compile+run
    - [dump]      print the compiled IR
    - [workloads] list the bundled benchmark programs
    - [machines]  list the machine zoo (classes, ladders, memory tiers)
    - [pipeline]  print the optimisation schedule as data
    - [sweep]     workload x config x machine-zoo design-space sweep (the
                  one writer of BENCH_sweep.json, with [--json])
    - [tune]      energy-aware pass-ordering search
    - [profile]   source-level energy profile (text, JSON, flamegraph, diff)
    - [serve-bench] replay a mixed request corpus against lpccd
    - [fuzz]      fuzz the pipeline with generated MiniC programs

    Sources are MiniC files; [--workload NAME] substitutes a bundled
    benchmark for a file.  The evaluation's tables and figures are
    regenerated by bench/main.exe, not by lpcc. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module Pattern = Lp_patterns.Pattern
module W = Lp_workloads.Workload
module Suite = Lp_workloads.Suite
module Diag = Lp_util.Diag
module Fault = Lp_util.Fault
module Json = Lp_util.Json
module Report = Lp_obs.Report
module Protocol = Lp_serve.Protocol
module Cli = Lp_cli.Cli
open Cmdliner

(* ---------------- shared arguments ---------------- *)

(** Route every failure through {!Compile.guard} and the structured
    diagnostic printer: no subcommand leaks a raw exception, and even a
    foreign exception exits cleanly as [E_INTERNAL]. *)
let with_diagnostics f =
  match Compile.guard (fun () -> Ok (f ())) with
  | Ok r -> r
  | Error d -> `Error (false, Diag.to_string d)

(** A pipeline result, its diagnostic raised for {!with_diagnostics}. *)
let get = function Ok r -> r | Error d -> raise (Diag.Error d)

(** Run the subcommand body in the runtime session ({!Compile.with_session})
    and hand its ctx to the experiments too. *)
let session config f =
  match
    Compile.with_session config (fun ctx ->
        Lp_experiments.Exp_common.set_ctx ctx;
        f ctx)
  with
  | Ok r -> r
  | Error msg -> `Error (false, msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the one check of a workload name, for every subcommand that takes one *)
let workload_conv =
  let parse name =
    match Suite.find name with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown workload %S (try: lpcc workloads)" name))
  in
  Arg.conv (parse, fun ppf (w : W.t) -> Format.pp_print_string ppf w.W.name)

let source_of ~file ~workload =
  match (file, workload) with
  | (Some f, None) -> Ok (read_file f, Filename.basename f)
  | (None, Some (w : W.t)) -> Ok (w.W.source, w.W.name)
  | (None, None) -> Error "give a source file or --workload NAME"
  | (Some _, Some _) -> Error "give either a file or --workload, not both"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let workload_arg =
  Arg.(value & opt (some workload_conv) None
       & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Use a bundled workload instead of a file.")

(* every zoo machine is a valid --machine value: the registry is the one
   source of truth shared with lpccd and the experiment matrix *)
let machine_arg =
  let parse s =
    if Option.is_some (Machine.of_name s) then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown machine %S (known: %s)" s
             (String.concat ", " Machine.names)))
  in
  let conv_machine = Arg.conv (parse, Format.pp_print_string) in
  Arg.(value & opt conv_machine "generic"
       & info [ "m"; "machine" ] ~docv:"MACHINE"
           ~doc:(Printf.sprintf
                   "Machine model: %s (see $(b,lpcc machines))."
                   (String.concat ", "
                      (List.map (Printf.sprintf "$(b,%s)") Machine.names))))

let cores_arg =
  Arg.(value & opt int 4
       & info [ "c"; "cores" ] ~docv:"N" ~doc:"Cores the compiler may use.")

let events_arg =
  Arg.(value & opt int 0
       & info [ "t"; "events" ] ~docv:"N"
           ~doc:"Print the first $(docv) power/communication events.")

let passes_arg =
  Arg.(value & opt (some string) None
       & info [ "passes" ] ~docv:"SPEC"
           ~doc:"Override the classic-optimisation schedule: comma-separated \
                 pass names, with $(b,fix(name,...)) running a group to \
                 fixpoint — e.g. \
                 $(b,--passes constprop,fix(simplify-cfg,dce),strength-reduce). \
                 $(b,lpcc pipeline) lists the vocabulary and the default \
                 schedule.")

(** The compile target, [-m -c -k] and (with [~passes:true]) [--passes],
    as the request lpccd would get: {!resolve_target} is lpccd's
    resolver. *)
let target_t ?(passes = false) ~config () =
  let config_arg =
    Arg.(value & opt (enum (List.map (fun n -> (n, n)) Compile.config_names))
           config
         & info [ "k"; "config" ] ~docv:"CONFIG"
             ~doc:("Compiler configuration: "
                   ^ String.concat ", "
                       (List.map (Printf.sprintf "$(b,%s)")
                          Compile.config_names)
                   ^ "."))
  in
  let request machine cores config passes =
    { Protocol.default_request with machine; cores; config; passes }
  in
  Term.(const request $ machine_arg $ cores_arg $ config_arg
        $ if passes then passes_arg else const None)

let resolve_target (req : Protocol.request) =
  match Protocol.resolve_target req with
  | Error d -> Error (Diag.to_string d)
  | Ok (machine, opts) ->
    (* unlike lpccd, whose replies name the machine used, lpcc says when
       it clamps the core count *)
    ignore (Machine.clamp_cores machine req.Protocol.cores);
    Ok (machine, opts)

(** One compile request from the command line: [f] runs in the session
    with the source and its resolved target, failures become
    diagnostics, and faults and audit events are scoped by the source's
    name. *)
let with_request ~file ~workload target config f =
  match source_of ~file ~workload with
  | Error e -> `Error (false, e)
  | Ok (src, name) -> (
    match resolve_target target with
    | Error e -> `Error (false, e)
    | Ok (machine, opts) ->
      session config @@ fun ctx ->
      with_diagnostics @@ fun () ->
      Fault.with_scope name @@ fun () ->
      Report.with_scope name @@ fun () -> f ctx ~src ~name ~machine ~opts)

(* ---------------- detect ---------------- *)

let detect_cmd_run file workload =
  match source_of ~file ~workload with
  | Error e -> `Error (false, e)
  | Ok (src, name) ->
    with_diagnostics @@ fun () ->
      let ast = Compile.parse_and_check src in
      let report = Lp_patterns.Detect.detect ast in
      Printf.printf "%s: %d candidate loops\n" name report.Pattern.candidate_loops;
      List.iter
        (fun (i : Pattern.instance) ->
          Printf.printf "  [%d] %s in %s (%s)%s\n" i.Pattern.id
            (Pattern.kind_name i.Pattern.kind)
            i.Pattern.in_func
            (match i.Pattern.origin with
            | Pattern.Annotated -> "annotated, verified"
            | Pattern.Inferred -> "inferred")
            (match i.Pattern.invariants with
            | [] -> ""
            | invs ->
              Printf.sprintf ", invariants: %s"
                (String.concat "," (List.map fst invs))))
        report.Pattern.instances;
      List.iter
        (fun (r : Pattern.rejection) ->
          Printf.printf "  rejected in %s%s: %s\n" r.Pattern.rej_func
            (match r.Pattern.rej_requested with
            | Some k -> Printf.sprintf " (requested %s)" k
            | None -> "")
            r.Pattern.rej_reason)
        report.Pattern.rejections;
      `Ok ()

let detect_cmd =
  let doc = "detect design patterns in a MiniC program" in
  Cmd.v (Cmd.info "detect" ~doc)
    Term.(ret (const detect_cmd_run $ file_arg $ workload_arg))

(* ---------------- run ---------------- *)

let run_cmd_run file workload target events config =
  with_request ~file ~workload target config
  @@ fun ctx ~src ~name ~machine ~opts ->
  let sim_opts = { Sim.default_options with Sim.trace_limit = max 0 events } in
  let (compiled, o) = get (Compile.run_result ~ctx ~opts ~sim_opts ~machine src) in
  Printf.printf "%s on %s\n" name machine.Machine.name;
  Printf.printf "  patterns: %s\n"
    (match compiled.Compile.detection.Pattern.instances with
    | [] -> "(none)"
    | l ->
      String.concat ", "
        (List.map (fun (i : Pattern.instance) ->
             Pattern.kind_name i.Pattern.kind) l));
  Printf.printf "  cores used: %d\n"
    (List.length (Lp_ir.Prog.entries compiled.Compile.prog));
  (match o.Sim.ret with
  | Some v -> Printf.printf "  result: %s\n" (Lp_sim.Value.to_string v)
  | None -> ());
  Printf.printf "  time:   %.1f us\n" (o.Sim.duration_ns /. 1e3);
  Printf.printf "  energy: %.1f uJ\n" (Ledger.total o.Sim.energy /. 1e3);
  List.iter
    (fun (cat, e) ->
      if e > 0.0 then
        Printf.printf "    %-12s %8.1f uJ\n"
          (Ledger.category_to_string cat)
          (e /. 1e3))
    (Ledger.breakdown o.Sim.energy);
  Printf.printf "  EDP: %.1f nJ*ms; %d instructions; %d msgs; %d gate transitions; %d dvfs switches\n"
    (Sim.edp o) o.Sim.instr_total o.Sim.channel_msgs o.Sim.gate_transitions
    o.Sim.dvfs_transitions;
  if o.Sim.implicit_wakeups > 0 then
    Printf.printf "  WARNING: %d implicit wakeups (compiler bug!)\n"
      o.Sim.implicit_wakeups;
  if events > 0 then begin
    Printf.printf "  first %d power/communication events:\n"
      (List.length o.Sim.events);
    List.iter
      (fun (e : Sim.event) ->
        Printf.printf "    %10.1fns core%d %s\n" e.Sim.ev_ns e.Sim.ev_core
          e.Sim.ev_what)
      o.Sim.events
  end;
  `Ok ()

let run_cmd =
  let doc = "compile and simulate a MiniC program" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run_cmd_run $ file_arg $ workload_arg
               $ target_t ~passes:true ~config:"full" () $ events_arg
               $ Cli.runtime_t))

(* ---------------- explain ---------------- *)

let explain_cmd_run file workload target config =
  with_request ~file ~workload target config
  @@ fun ctx ~src ~name:_ ~machine ~opts ->
  (* explain IS the report, printed human-readably: the session's when
     --report/LP_REPORT exports one too, a fresh always-on one otherwise *)
  let ctx =
    if Report.enabled ctx.Compile.report then ctx
    else { ctx with Compile.report = Report.create () }
  in
  ignore (get (Compile.run_result ~ctx ~opts ~machine src));
  print_string (Report.to_text ctx.Compile.report);
  `Ok ()

let explain_cmd =
  let doc =
    "compile and simulate, then print the power-decision audit: every \
     pattern verdict, gating insertion, Sink-N-Hoist merge, DVFS \
     operating-point choice and IR-changing pass, plus the energy \
     breakdown of the simulation"
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(ret (const explain_cmd_run $ file_arg $ workload_arg
               $ target_t ~config:"full" () $ Cli.runtime_t))

(* ---------------- dump ---------------- *)

let source_flag =
  Arg.(value & flag
       & info [ "s"; "source" ]
           ~doc:"Print the transformed MiniC source (after pattern-driven \
                 parallelisation) instead of the IR.")

let dump_cmd_run file workload target as_source config =
  with_request ~file ~workload target config
  @@ fun ctx ~src ~name:_ ~machine ~opts ->
  if as_source then begin
    (* parallelised for the requested (clamped) cores, whatever -k says *)
    let cores =
      Machine.clamp_cores ~warn:false machine target.Protocol.cores
    in
    let ast = Compile.parse_and_check src in
    let det = Lp_patterns.Detect.detect ast in
    let (gen, _) =
      Lp_transforms.Parallelize.run ~n_cores:cores ast
        (Compile.feasible_instances ~n_cores:cores
           det.Lp_patterns.Pattern.instances)
    in
    print_string (Lp_lang.Ast_printer.program_to_string gen)
  end
  else
    print_string
      (Lp_ir.Printer.prog_to_string
         (get (Compile.compile_result ~ctx ~opts ~machine src)).Compile.prog);
  `Ok ()

let dump_cmd =
  let doc = "print the compiled IR (or, with --source, the parallelised MiniC)" in
  Cmd.v (Cmd.info "dump" ~doc)
    Term.(ret (const dump_cmd_run $ file_arg $ workload_arg
               $ target_t ~config:"full" () $ source_flag $ Cli.runtime_t))

(* ---------------- workloads ---------------- *)

let workloads_cmd_run () =
  List.iter
    (fun (w : W.t) ->
      Printf.printf "%-14s %-14s %s\n" w.W.name w.W.expected_pattern
        w.W.description)
    Lp_workloads.Suite.all;
  `Ok ()

let workloads_cmd =
  let doc = "list the bundled benchmark workloads" in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(ret (const workloads_cmd_run $ const ()))

(* ---------------- machines ---------------- *)

let machines_cmd_run () =
  List.iteri
    (fun i (name, desc, mk) ->
      if i > 0 then print_newline ();
      Printf.printf "%s — %s\n" name desc;
      Format.printf "%a@." Machine.pp (mk ?cores:None ()))
    Machine.registry;
  `Ok ()

let machines_cmd =
  let doc =
    "list the machine zoo: core classes, DVFS ladders, memory tiers and \
     bus of every valid $(b,--machine) value"
  in
  Cmd.v (Cmd.info "machines" ~doc)
    Term.(ret (const machines_cmd_run $ const ()))

(* ---------------- sweep ---------------- *)

let sweep_cmd_run machines workloads json config =
  let module Sweep = Lp_experiments.Sweep in
  let machines = if machines = [] then Sweep.default_machines else machines in
  let workloads =
    if workloads = [] then Suite.names
    else List.map (fun (w : W.t) -> w.W.name) workloads
  in
  match List.find_opt (fun m -> Machine.of_name m = None) machines with
  | Some bad ->
    `Error
      ( false,
        Printf.sprintf "unknown machine %S (known: %s)" bad
          (String.concat ", " Machine.names) )
  | None ->
    session config @@ fun _ctx ->
    with_diagnostics @@ fun () ->
    let t = Sweep.run ~machines ~workloads () in
    Lp_util.Table.print (Sweep.crossover_table t);
    (match Sweep.crossovers t with
    | [] -> print_endline "no crossovers: one config wins everywhere"
    | xs ->
      Printf.printf "%d workload(s) with machine-dependent winners:\n"
        (List.length xs);
      List.iter
        (fun (w, wins) ->
          Printf.printf "  %-12s %s\n" w
            (String.concat ", "
               (List.map (fun (m, c) -> Printf.sprintf "%s:%s" m c) wins)))
        xs);
    Option.iter
      (fun path ->
        Json.write_file ~path (Sweep.to_json t);
        Printf.printf "sweep json written to %s\n" path)
      json;
    (* a machine that cannot run a workload (e.g. pacduo has no FPU) is
       a sweep datum, not a failure: those E_COMPILE cells carry their
       code in the JSON and render as ERR above.  Any other failed cell
       (an injected fault, an expired deadline, a crash) fails the run. *)
    let (data, failed) =
      List.partition
        (fun (_, _, d) -> d.Diag.code = "E_COMPILE")
        (Lp_experiments.Exp_common.failed_cells ())
    in
    let print_cells heading cells =
      if cells <> [] then begin
        Printf.printf "%d cell(s) %s:\n" (List.length cells) heading;
        List.iter
          (fun ((w, c, m), _, d) ->
            Printf.printf "  %s/%s@%s: %s\n" w c m (Diag.to_string d))
          cells
      end
    in
    print_cells "not runnable on their machine" data;
    print_cells "failed" failed;
    if failed = [] then `Ok ()
    else
      `Error
        (false, Printf.sprintf "%d sweep cell(s) failed" (List.length failed))

let sweep_cmd =
  let doc =
    "fan the workload × config matrix across the machine zoo and print \
     the crossover table (winning configuration per workload and \
     machine); deterministic and byte-identical whatever $(b,--jobs) is"
  in
  let machines_arg =
    Arg.(value & opt_all string []
         & info [ "m"; "machine" ] ~docv:"MACHINE"
             ~doc:"Machine to sweep (repeatable; default: the whole zoo, \
                   see $(b,lpcc machines)).")
  in
  let workloads_arg =
    Arg.(value & opt_all workload_conv []
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload to sweep (repeatable; default: every bundled \
                   workload).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the $(b,lowpower-bench-sweep/1) artifact to \
                   $(docv).")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(ret (const sweep_cmd_run $ machines_arg $ workloads_arg $ json_arg
               $ Cli.runtime_t))

(* ---------------- pipeline ---------------- *)

let pipeline_cmd_run passes =
  let module P = Lowpower.Pipeline in
  match passes with
  | None ->
    print_string (P.to_string P.default);
    Printf.printf "\navailable passes: %s\n"
      (String.concat " " (P.pass_names ()));
    `Ok ()
  | Some spec -> (
    match P.resolve_spec spec with
    | Ok t -> print_string (P.to_string t); `Ok ()
    | Error d -> `Error (false, Lp_util.Diag.to_string d))

let pipeline_cmd =
  let doc =
    "print the optimisation schedule as data: the driver's default (one \
     step per line), or the schedule a $(b,--passes) spec would run"
  in
  Cmd.v (Cmd.info "pipeline" ~doc)
    Term.(ret (const pipeline_cmd_run $ passes_arg))

(* ---------------- serve-bench ---------------- *)

let serve_bench_cmd_run socket requests clients window seed verify json_path
    self_serve config =
  let module SB = Lp_serve.Serve_bench in
  let module Srv = Lp_serve.Server in
  let run_bench () =
    let cfg =
      {
        (SB.default_config ~socket_path:socket) with
        SB.requests;
        clients;
        window;
        seed;
        verify;
      }
    in
    match SB.run cfg with
    | Error e -> `Error (false, "serve-bench: " ^ e)
    | Ok s -> (
      print_string (SB.to_text s);
      (match json_path with
      | Some path ->
        Json.write_file ~path (Json.to_string (SB.summary_json s));
        Printf.printf "wrote %s\n" path
      | None -> ());
      match SB.acceptance s with
      | Ok () -> `Ok ()
      | Error violations ->
        `Error
          ( false,
            "serve-bench acceptance failed:\n  "
            ^ String.concat "\n  " violations ))
  in
  if not self_serve then run_bench ()
  else
    session config @@ fun ctx ->
    let server = Srv.start ~ctx (Srv.default_opts ~socket_path:socket) in
    Fun.protect ~finally:(fun () -> Srv.stop server) run_bench

let serve_bench_cmd =
  let doc =
    "replay a seeded corpus of mixed valid/malformed/deadline requests \
     against an $(b,lpccd) compile server and report throughput, latency \
     percentiles and the failure taxonomy ($(b,BENCH_serve.json)); exits \
     non-zero unless every request was answered, no connection died, and \
     no reply carried $(b,E_INTERNAL)"
  in
  let socket =
    Arg.(value & opt string "lpccd.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the server.")
  in
  let requests =
    Arg.(value & opt int 5000
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Corpus size.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let window =
    Arg.(value & opt int 8
         & info [ "window" ] ~docv:"N"
             ~doc:"In-flight requests per connection (pipelining depth).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"Corpus generator seed.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Recompute every valid compile/run reply locally through \
                   the one-shot entry points and require byte-identical \
                   payloads.  Only meaningful against a server running \
                   without injected faults.")
  in
  let json_path =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the summary (schema $(b,lowpower-bench-serve/1)) \
                   to $(docv).")
  in
  let self_serve =
    Arg.(value & flag
         & info [ "self-serve" ]
             ~doc:"Start an in-process server with $(b,lpccd)'s defaults \
                   on $(b,--socket) for the duration of the run (for local \
                   acceptance runs without a separate $(b,lpccd); to tune \
                   the server, run $(b,lpccd)).")
  in
  Cmd.v (Cmd.info "serve-bench" ~doc)
    Term.(ret (const serve_bench_cmd_run $ socket $ requests $ clients
               $ window $ seed $ verify $ json_path $ self_serve
               $ Cli.server_runtime_t))

(* ---------------- fuzz ---------------- *)

let fuzz_cmd_run seeds seed_start corpus cores config =
  if seeds < 1 then `Error (false, "--seeds must be at least 1")
  else if cores < 1 then `Error (false, "--cores must be at least 1")
  else
    session config @@ fun ctx ->
    let machine = Machine.generic ~n_cores:cores () in
    let summary =
      Lp_robust.Fuzz.run_range ~ctx ~machine ~log:print_endline
        ~corpus_dir:corpus ~seed_start ~seeds ()
    in
    match summary.Lp_robust.Fuzz.findings with
    | [] -> `Ok ()
    | findings ->
      `Error
        ( false,
          Printf.sprintf "%d finding(s); crash corpus written to %s/"
            (List.length findings) corpus )

(* ---------------- profile ---------------- *)

let profile_cmd_run file file_b workload target diff_mode json_out flame_out
    config =
  let module PR = Lowpower.Profile_report in
  if diff_mode then
    match (file, file_b) with
    | (Some a, Some b) ->
      with_diagnostics @@ fun () ->
        let parse path =
          match Json.of_string_opt (read_file path) with
          | Some j -> j
          | None -> failwith (path ^ ": not valid JSON")
        in
        (match
           PR.diff ~label_a:(Filename.basename a)
             ~label_b:(Filename.basename b) (parse a) (parse b)
         with
        | Ok text -> print_string text; `Ok ()
        | Error e -> `Error (false, e))
    | _ -> `Error (false, "--diff needs two profile JSON files: lpcc profile --diff A.json B.json")
  else if file_b <> None then
    `Error (false, "a second file only makes sense with --diff")
  else
    with_request ~file ~workload target config
    @@ fun ctx ~src ~name ~machine ~opts ->
    let sim_opts = { Sim.default_options with Sim.profile = true } in
    let (compiled, o) =
      get (Compile.run_result ~ctx ~opts ~sim_opts ~machine src)
    in
    print_string (PR.to_text ~prog:compiled.Compile.prog o);
    Option.iter
      (fun path ->
        Json.write_file ~path
          (Json.to_string
             (PR.to_json ~source:name ~machine:machine.Machine.name o));
        Printf.printf "profile json written to %s\n" path)
      json_out;
    Option.iter
      (fun path ->
        Json.write_file ~path (PR.to_flamegraph o);
        Printf.printf "flamegraph stacks written to %s\n" path)
      flame_out;
    `Ok ()

let profile_cmd =
  let doc =
    "compile and simulate with the source-level energy profiler on, then \
     print the function/loop/line energy hierarchy; optionally export the \
     $(b,lowpower-profile/1) JSON artifact and collapsed flamegraph \
     stacks, or diff two saved artifacts"
  in
  let file_b_arg =
    Arg.(value & pos 1 (some file) None
         & info [] ~docv:"FILE_B"
             ~doc:"Second profile JSON (with $(b,--diff)).")
  in
  let diff_arg =
    Arg.(value & flag
         & info [ "diff" ]
             ~doc:"Treat the two positional files as saved \
                   $(b,lowpower-profile/1) artifacts and print the \
                   per-line energy delta (B minus A) instead of running \
                   anything.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the $(b,lowpower-profile/1) JSON artifact to \
                   $(docv) (stable, deterministic: usable as \
                   profile-guided-optimisation input and for \
                   $(b,--diff)).")
  in
  let flame_arg =
    Arg.(value & opt (some string) None
         & info [ "flame" ] ~docv:"FILE"
             ~doc:"Write collapsed flamegraph stacks \
                   ($(b,func;line value-in-pJ)) to $(docv); render with \
                   $(b,flamegraph.pl) or speedscope.")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(ret (const profile_cmd_run $ file_arg $ file_b_arg $ workload_arg
               $ target_t ~passes:true ~config:"full" () $ diff_arg
               $ json_arg $ flame_arg $ Cli.runtime_t))

(* ---------------- tune ---------------- *)

let tune_cmd_run workloads all budget seed target out json config =
  let module Tune = Lp_tune.Tune in
  match resolve_target target with
  | Error e -> `Error (false, e)
  | Ok (machine, opts) ->
    session config @@ fun ctx ->
    with_diagnostics @@ fun () ->
    let ws =
      if all then Suite.all
      else if workloads <> [] then workloads
      else List.map Suite.find_exn Tune.default_workloads
    in
    let cfg =
      Tune.default_config ~budget ~seed ~config_name:target.Protocol.config
        ~opts ~machine ()
    in
    (match Tune.run ~ctx cfg ws with
    | Error d -> `Error (false, Diag.to_string d)
    | Ok summary ->
      print_string (Tune.render summary);
      Option.iter
        (fun path ->
          Json.write_file ~path (Json.to_string (Tune.json_of summary));
          Printf.printf "bench json written to %s\n" path)
        json;
      (match out with
      | None -> `Ok ()
      | Some path -> (
        match Tune.save_best summary path with
        | Ok tw ->
          Printf.printf "schedule written to %s (workload %s, -%.2f%%)\n"
            path tw.Tune.tw_workload
            (Tune.improvement_pct tw);
          `Ok ()
        | Error msg -> `Error (false, msg))))

let tune_cmd =
  let doc =
    "search pass orderings and fixpoint groupings for lower simulated \
     energy (seeded hill-climbing with random restarts; deterministic \
     whatever $(b,--jobs) is).  The candidates run under $(b,--config), \
     by default $(b,baseline): the schedule is a classic-optimisation \
     lever, so tune it where nothing else moves"
  in
  let workloads_arg =
    Arg.(value & opt_all workload_conv []
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload to tune (repeatable; default: the \
                   representative set).")
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Tune every bundled workload.")
  in
  let budget_arg =
    Arg.(value & opt int 100
         & info [ "budget" ] ~docv:"N"
             ~doc:"Unique schedule evaluations per workload (the default \
                   schedule's evaluation counts; memo-cache hits do not).")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S" ~doc:"Search RNG seed.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the best-improvement schedule as a schedule file \
                   replayable with $(b,lpcc run --passes @FILE).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the per-workload results as \
                   $(b,lowpower-bench-tune/1) JSON.")
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(ret (const tune_cmd_run $ workloads_arg $ all_arg $ budget_arg
               $ seed_arg $ target_t ~config:"baseline" () $ out_arg
               $ json_arg $ Cli.runtime_t))

let fuzz_cmd =
  let doc =
    "fuzz the pipeline with generated MiniC programs (no raw exceptions, \
     verified IR after every pass, baseline and full configurations agree)"
  in
  let seeds_arg =
    Arg.(value & opt int 200
         & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of seeds to fuzz.")
  in
  let seed_start_arg =
    Arg.(value & opt int 0
         & info [ "seed-start" ] ~docv:"K"
             ~doc:"First seed (replay a corpus file with its recorded seed \
                   and $(b,--seeds 1)).")
  in
  let corpus_arg =
    Arg.(value & opt string "fuzz-corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory for failing-seed MiniC files (created on \
                   demand).")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(ret (const fuzz_cmd_run $ seeds_arg $ seed_start_arg $ corpus_arg
               $ cores_arg $ Cli.runtime_t))

let () =
  let doc = "compiler for low power with design patterns on embedded multicore" in
  let info = Cmd.info "lpcc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ detect_cmd; run_cmd; explain_cmd; dump_cmd; workloads_cmd;
            machines_cmd; pipeline_cmd; sweep_cmd; tune_cmd;
            profile_cmd; serve_bench_cmd; fuzz_cmd ]))
