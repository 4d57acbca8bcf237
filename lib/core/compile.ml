(** The compiler driver: MiniC source → pattern detection → pattern-driven
    parallelisation → IR lowering → classic optimisation → pattern-aware
    power management → verified program (+ optional simulation).

    This module is the library's main public entry point.  The [options]
    record captures the configurations the evaluation compares:

    - [baseline]: plain optimising compile, single core, no power
      management;
    - [pg_only]: adds component power gating (with Sink-N-Hoist);
    - [dvfs_only]: adds compiler-directed DVFS;
    - [pg_dvfs]: both, still sequential;
    - [full]: pattern-driven multicore parallelisation plus both power
      transformations and pipeline balancing — the paper's proposal. *)

module Ast = Lp_lang.Ast
module Parser = Lp_lang.Parser
module Typecheck = Lp_lang.Typecheck
module Pattern = Lp_patterns.Pattern
module Detect = Lp_patterns.Detect
module Prog = Lp_ir.Prog
module Lower = Lp_ir.Lower
module Verify = Lp_ir.Verify
module Machine = Lp_machine.Machine
module T = Lp_transforms

type power_options = {
  gating : bool;
  sink_n_hoist : bool;
  dvfs : bool;
  balance : bool;
  gate_unused_cores : bool;
  gating_opts : T.Gating.options;
  dvfs_opts : T.Dvfs.options;
}

type options = {
  n_cores : int;          (** cores the compiler may occupy *)
  parallelize : bool;
  distribution : T.Parallelize.distribution;  (** doall/reduction split *)
  sync : T.Parallelize.sync;  (** non-reduction doall completion mechanism *)
  mac_fusion : bool;
  power : power_options;
  pipeline : Pipeline.t option;
      (** classic-optimisation schedule; [None] = {!Pipeline.default} *)
}

let no_power =
  {
    gating = false;
    sink_n_hoist = false;
    dvfs = false;
    balance = false;
    gate_unused_cores = false;
    gating_opts = T.Gating.default_options;
    dvfs_opts = T.Dvfs.default_options;
  }

(** Non-power-aware sequential compile (the paper's baseline). *)
let baseline =
  { n_cores = 1; parallelize = false; distribution = T.Parallelize.Block;
    sync = T.Parallelize.Done_channel; mac_fusion = true; power = no_power;
    pipeline = None }

(** Smart constructors over {!options}; see the interface. *)
module Options = struct
  let update ?n_cores ?parallelize ?distribution ?sync ?mac_fusion ?gating
      ?sink_n_hoist ?dvfs ?balance ?gate_unused_cores ?gating_opts ?dvfs_opts
      ?pipeline (base : options) : options =
    let keep v o = Option.value o ~default:v in
    let p = base.power in
    {
      n_cores = keep base.n_cores n_cores;
      parallelize = keep base.parallelize parallelize;
      distribution = keep base.distribution distribution;
      sync = keep base.sync sync;
      mac_fusion = keep base.mac_fusion mac_fusion;
      power =
        {
          gating = keep p.gating gating;
          sink_n_hoist = keep p.sink_n_hoist sink_n_hoist;
          dvfs = keep p.dvfs dvfs;
          balance = keep p.balance balance;
          gate_unused_cores = keep p.gate_unused_cores gate_unused_cores;
          gating_opts = keep p.gating_opts gating_opts;
          dvfs_opts = keep p.dvfs_opts dvfs_opts;
        };
      pipeline =
        (match pipeline with Some _ as pl -> pl | None -> base.pipeline);
    }

  let make ?n_cores ?parallelize ?distribution ?sync ?mac_fusion ?gating
      ?sink_n_hoist ?dvfs ?balance ?gate_unused_cores ?gating_opts ?dvfs_opts
      ?pipeline () : options =
    update ?n_cores ?parallelize ?distribution ?sync ?mac_fusion ?gating
      ?sink_n_hoist ?dvfs ?balance ?gate_unused_cores ?gating_opts ?dvfs_opts
      ?pipeline baseline
end

let pg_only =
  Options.make ~gating:true ~sink_n_hoist:true ~gate_unused_cores:true ()

let dvfs_only = Options.make ~dvfs:true ()

let pg_dvfs =
  Options.make ~gating:true ~sink_n_hoist:true ~dvfs:true
    ~gate_unused_cores:true ()

(** The full pattern-aware low-power compile. *)
let full ~n_cores =
  Options.make ~n_cores ~parallelize:true ~gating:true ~sink_n_hoist:true
    ~dvfs:true ~balance:true ~gate_unused_cores:true ()

(** Parallelisation without power management (to separate the two
    effects in the evaluation). *)
let par_only ~n_cores = Options.make ~n_cores ~parallelize:true ()

let configs ~n_cores =
  [ ("baseline", baseline); ("pg", pg_only); ("dvfs", dvfs_only);
    ("pg+dvfs", pg_dvfs); ("par", par_only ~n_cores); ("full", full ~n_cores) ]

let config_names = List.map fst (configs ~n_cores:1)

type compiled = {
  source_ast : Ast.program;
  prog : Prog.t;
  par_info : T.Par_info.t;
  detection : Pattern.report;
  pass_stats : T.Pass.stats list;
  gating_before_merge : T.Gating.counts;
  gating_after_merge : T.Gating.counts;
  machine : Machine.t;
  options : options;
}

exception Compile_error of string

(* ------------------------------------------------------------------ *)
(* The driver context                                                  *)
(* ------------------------------------------------------------------ *)

module Obs = Lp_obs.Obs
module Report = Lp_obs.Report
module Runtime_config = Lp_util.Runtime_config

type ctx = {
  obs : Obs.t;
  report : Report.t;
  config : Runtime_config.t;
  deadline : Lp_util.Deadline.t;
}

let default_ctx =
  { obs = Obs.disabled; report = Report.disabled;
    config = Runtime_config.default; deadline = Lp_util.Deadline.none }

let make_ctx ?(obs = Obs.disabled) ?(report = Report.disabled)
    ?(config = Runtime_config.default)
    ?(deadline = Lp_util.Deadline.none) () =
  { obs; report; config; deadline }

let with_session (config : Runtime_config.t) f =
  match
    Option.fold ~none:(Ok ()) ~some:Lp_util.Fault.configure
      config.Runtime_config.faults
  with
  | Error msg -> Error ("invalid fault spec: " ^ msg)
  | Ok () ->
    Option.iter Lp_util.Domain_pool.set_default_jobs config.Runtime_config.jobs;
    let obs =
      if config.Runtime_config.trace = None then Obs.disabled else Obs.create ()
    in
    let report =
      if config.Runtime_config.report = None then Report.disabled
      else Report.create ()
    in
    (* the deadline clock starts here: one session is one request *)
    let deadline =
      Option.fold ~none:Lp_util.Deadline.none ~some:Lp_util.Deadline.after_ms
        config.Runtime_config.deadline_ms
    in
    let finish () =
      Option.iter
        (fun path ->
          Obs.write_chrome obs ~path;
          Printf.eprintf "%s\ntrace written to %s\n%!" (Obs.summary obs) path)
        config.Runtime_config.trace;
      Option.iter
        (fun path ->
          Report.write report ~path;
          Printf.eprintf "power report written to %s\n%!" path)
        config.Runtime_config.report
    in
    Ok
      (Fun.protect ~finally:finish (fun () ->
           f { obs; report; config; deadline }))

(** Append a simulation's energy/counter record to the audit report
    (shared by [run], [run_result] and the CLI; no-op when the report is
    disabled).  A nonzero implicit-wakeup count also lands in the
    report's warnings: the simulator had to silently re-enable a gated
    component, which means the compiler gated a component the program
    still uses. *)
let record_outcome report (outcome : Lp_sim.Sim.outcome) =
  if Report.enabled report then begin
    let module J = Lp_util.Json in
    let module Ledger = Lp_power.Energy_ledger in
    let cores =
      Array.to_list
        (Array.mapi
           (fun i l ->
             J.Obj
               [ ("core", J.Num (float_of_int i));
                 ("energy", Ledger.to_json l) ])
           outcome.Lp_sim.Sim.core_ledgers)
    in
    Report.add_sim report
      {
        Report.sr_duration_ns = outcome.Lp_sim.Sim.duration_ns;
        sr_instrs = outcome.Lp_sim.Sim.instr_total;
        sr_implicit_wakeups = outcome.Lp_sim.Sim.implicit_wakeups;
        sr_gate_transitions = outcome.Lp_sim.Sim.gate_transitions;
        sr_dvfs_transitions = outcome.Lp_sim.Sim.dvfs_transitions;
        sr_energy = Ledger.to_json outcome.Lp_sim.Sim.energy;
        sr_core_energy = cores;
        sr_predecode = outcome.Lp_sim.Sim.predecode;
      };
    if outcome.Lp_sim.Sim.implicit_wakeups > 0 then
      Report.warn report
        (Printf.sprintf
           "%s: %d implicit wakeup(s): an instruction executed on a gated \
            component (compiler bug)"
           (let s = Report.current_scope () in
            if s = "" then "(no scope)" else s)
           outcome.Lp_sim.Sim.implicit_wakeups)
  end

(** Instances the machine can actually host (a pipeline with more stages
    than available workers is skipped, falling back to sequential code
    for that loop). *)
let feasible_instances ~n_cores (instances : Pattern.instance list) =
  let workers = n_cores - 1 in
  List.filter
    (fun (inst : Pattern.instance) ->
      match inst.Pattern.kind with
      (* deep pipelines are stage-fused down to the available cores *)
      | Pattern.Pipeline _ | Pattern.Prodcons -> workers >= 1
      | Pattern.Doall | Pattern.Reduction _ | Pattern.Farm -> workers >= 1)
    instances

(** Run [f], converting the front-end and self-check exceptions it may
    raise into the legacy [Compile_error] (message format unchanged from
    when the driver caught them inline). *)
let wrap_legacy f =
  try f () with
  | Lp_lang.Lexer.Lex_error (msg, line) ->
    raise (Compile_error (Printf.sprintf "lex error line %d: %s" line msg))
  | Parser.Parse_error (msg, line) ->
    raise (Compile_error (Printf.sprintf "parse error line %d: %s" line msg))
  | Typecheck.Type_error (msg, pos) ->
    raise
      (Compile_error (Printf.sprintf "type error line %d: %s" pos.Ast.line msg))
  | Lower.Lower_error msg -> raise (Compile_error ("lowering: " ^ msg))
  | Verify.Invalid msg -> raise (Compile_error ("verify: " ^ msg))

(** Parse and type-check, letting [Lex_error]/[Parse_error]/[Type_error]
    propagate (the structured entry points map them to diagnostics). *)
let parse_and_check_exn source =
  let ast = Parser.parse_program source in
  Typecheck.check_program ast;
  ast

let parse_and_check source = wrap_legacy (fun () -> parse_and_check_exn source)

(** One compile phase, inside its span.  The cooperative deadline is
    checked at every phase boundary; the pass fixpoint and the simulator
    check at finer grain themselves. *)
let phase ctx name f =
  Lp_util.Deadline.check ctx.deadline;
  Obs.span ctx.obs ~cat:"phase" name f

(** Run [f] inside the [compile] span, after rejecting options that ask
    for more cores than [machine] has. *)
let in_compile_span ~ctx ~opts ~(machine : Machine.t) f =
  Obs.span ctx.obs ~cat:"compile"
    ~args:[ ("machine", Obs.Str machine.Machine.name);
            ("cores", Obs.Int opts.n_cores) ]
    "compile"
  @@ fun () ->
  if opts.n_cores > Machine.n_cores machine then
    raise
      (Compile_error
         (Printf.sprintf "options ask for %d cores, machine has %d"
            opts.n_cores (Machine.n_cores machine)));
  f ()

(** Every phase after the frontend, on a type-checked [ast] (which no
    phase mutates).  Raises the raw per-stage exceptions; [compile]
    wraps them for the legacy API and [compile_result] maps them to
    diagnostics.  [verify_each] re-runs the IR verifier after every
    optimisation pass (the fuzzer's oracle).  [ctx] supplies the
    telemetry recorder: every phase below runs inside a span (the
    [compile → fixpoint round → pass → function] hierarchy of
    docs/OBSERVABILITY.md), all free when the recorder is off. *)
let compile_checked_exn ~ctx ~verify_each ~opts ~(machine : Machine.t)
    (ast : Ast.program) : compiled =
  let obs = ctx.obs in
  let phase name f = phase ctx name f in
  let detection = phase "detect" (fun () -> Detect.detect ast) in
  Obs.add obs "compile.patterns_detected"
    (List.length detection.Pattern.instances);
  if Report.enabled ctx.report then begin
    List.iter
      (fun (inst : Pattern.instance) ->
        Report.add ctx.report
          (Report.Pattern_verdict
             {
               pv_func = inst.Pattern.in_func;
               pv_verdict = "accepted";
               pv_kind = Some (Pattern.kind_name inst.Pattern.kind);
               pv_origin =
                 Some
                   (match inst.Pattern.origin with
                   | Pattern.Annotated -> "annotated"
                   | Pattern.Inferred -> "inferred");
               pv_reason = None;
             }))
      detection.Pattern.instances;
    List.iter
      (fun (r : Pattern.rejection) ->
        Report.add ctx.report
          (Report.Pattern_verdict
             {
               pv_func = r.Pattern.rej_func;
               pv_verdict = "rejected";
               pv_kind = r.Pattern.rej_requested;
               pv_origin = None;
               pv_reason = Some r.Pattern.rej_reason;
             }))
      detection.Pattern.rejections
  end;
  let (ast_par, par_info) =
    if opts.parallelize && opts.n_cores > 1 then
      phase "parallelize" (fun () ->
          T.Parallelize.run ~distribution:opts.distribution ~sync:opts.sync
            ~n_cores:opts.n_cores ast
            (feasible_instances ~n_cores:opts.n_cores
               detection.Pattern.instances))
    else (ast, T.Par_info.sequential)
  in
  (* self-check: generated source must still type-check *)
  (try phase "recheck" (fun () -> Typecheck.check_program ast_par) with
  | Typecheck.Type_error (msg, pos) ->
    raise
      (Compile_error
         (Printf.sprintf "internal: generated code ill-typed (line %d): %s"
            pos.Ast.line msg)));
  let prog = phase "lower" (fun () -> Lower.lower_program ast_par) in
  if par_info.T.Par_info.n_workers > 0 then
    prog.Prog.layout <-
      Prog.Parallel
        {
          entries = par_info.T.Par_info.entries;
          n_channels = par_info.T.Par_info.n_channels;
          n_barriers = par_info.T.Par_info.n_barriers;
          chan_capacity = par_info.T.Par_info.chan_capacity;
        };
  (* classic optimisation *)
  let on_pass =
    if verify_each then
      Some
        (fun name prog ->
          try Verify.verify_prog prog with
          | Verify.Invalid msg ->
            raise (Verify.Invalid (Printf.sprintf "after pass %s: %s" name msg)))
    else None
  in
  let pm =
    T.Pass.create_manager ~obs ~report:ctx.report
      ~caching:(not ctx.config.Runtime_config.no_analysis_cache)
      ~deadline:ctx.deadline ?on_pass ()
  in
  let am = T.Pass.analysis_manager pm prog in
  phase "optimize" (fun () ->
      Pipeline.execute pm ~mac_fusion:opts.mac_fusion
        (Option.value ~default:Pipeline.default opts.pipeline)
        prog);
  (* pattern-aware power management *)
  let (gating_before_merge, gating_after_merge) =
    phase "power" (fun () ->
        if opts.power.balance && par_info.T.Par_info.n_workers > 0 then
          ignore (T.Balance.run ~am machine prog par_info);
        if opts.power.dvfs then
          ignore
            (T.Dvfs.insert ~opts:opts.power.dvfs_opts ~report:ctx.report ~am
               machine prog);
        let gating_before_merge =
          if opts.power.gating then begin
            ignore
              (T.Gating.insert ~opts:opts.power.gating_opts ~report:ctx.report
                 ~am machine prog);
            ignore (T.Pass.run_pass pm T.Simplify_cfg.pass prog);
            T.Gating.count_gating prog
          end
          else T.Gating.count_gating prog
        in
        let gating_after_merge =
          if opts.power.gating && opts.power.sink_n_hoist then begin
            ignore (T.Gating.merge ~report:ctx.report machine prog);
            ignore (T.Pass.run_pass pm T.Simplify_cfg.pass prog);
            T.Gating.count_gating prog
          end
          else gating_before_merge
        in
        (gating_before_merge, gating_after_merge))
  in
  phase "verify" (fun () -> Verify.verify_prog prog);
  (* the target must have every component the program executes on *)
  phase "compat" (fun () ->
      let cu = Lp_analysis.Manager.compuse am in
      List.iter
        (fun entry ->
          let used = Lp_analysis.Compuse.func_use cu entry in
          Lp_power.Component.Set.iter
            (fun comp ->
              if not (Machine.has_component machine comp) then
                raise
                  (Compile_error
                     (Printf.sprintf
                        "program uses the %s unit but machine %s has none"
                        (Lp_power.Component.to_string comp)
                        machine.Machine.name)))
            used)
        (Prog.entries prog));
  let pass_stats = T.Pass.stats pm in
  Obs.add obs "compile.runs" 1;
  Obs.add obs "compile.ir_instrs" (Prog.total_instrs prog);
  List.iter
    (fun (s : T.Pass.stats) ->
      Obs.add obs ("pass." ^ s.T.Pass.pass_name ^ ".runs") s.T.Pass.runs;
      Obs.add obs ("pass." ^ s.T.Pass.pass_name ^ ".changes") s.T.Pass.changes)
    pass_stats;
  {
    source_ast = ast;
    prog;
    par_info;
    detection;
    pass_stats;
    gating_before_merge;
    gating_after_merge;
    machine;
    options = opts;
  }

(** Compile [source] for [machine] under [opts]: the frontend phase, then
    {!compile_checked_exn}. *)
let compile_exn ?(ctx = default_ctx) ?(verify_each = false) ?(opts = baseline)
    ~(machine : Machine.t) (source : string) : compiled =
  in_compile_span ~ctx ~opts ~machine @@ fun () ->
  let ast = phase ctx "frontend" (fun () -> parse_and_check_exn source) in
  compile_checked_exn ~ctx ~verify_each ~opts ~machine ast

(** Compile [source] for [machine]; the raising entry point
    ([Compile_error] covers front-end, lowering, verification and driver
    failures, exactly as before diagnostics existed). *)
let compile ?(ctx = default_ctx) ?opts ~(machine : Machine.t) (source : string)
    : compiled =
  wrap_legacy (fun () -> compile_exn ~ctx ?opts ~machine source)

(** Resolve the effective simulator options for an already-compiled
    program: the compile options decide unused-core gating, the runtime
    config can force the interpretive stepper, and the context's
    deadline token (when live) overrides the simulator's own. *)
let effective_sim_opts ~(ctx : ctx) ~(opts : options)
    (sim_opts : Lp_sim.Sim.options) : Lp_sim.Sim.options =
  { sim_opts with
    Lp_sim.Sim.gate_unused_cores = opts.power.gate_unused_cores;
    predecode =
      sim_opts.Lp_sim.Sim.predecode
      && not ctx.config.Runtime_config.no_sim_predecode;
    profile =
      sim_opts.Lp_sim.Sim.profile || ctx.config.Runtime_config.profile;
    deadline =
      (if ctx.deadline != Lp_util.Deadline.none then ctx.deadline
       else sim_opts.Lp_sim.Sim.deadline) }

(** Simulate an already-compiled program exactly as [run] would have:
    the compile server uses this to simulate warm-cache entries and get
    byte-identical outcomes. *)
let simulate_compiled ?(ctx = default_ctx)
    ?(sim_opts = Lp_sim.Sim.default_options) (compiled : compiled) :
    Lp_sim.Sim.outcome =
  let sim_opts = effective_sim_opts ~ctx ~opts:compiled.options sim_opts in
  let outcome =
    Lp_sim.Sim.run ~opts:sim_opts ~obs:ctx.obs ~machine:compiled.machine
      compiled.prog
  in
  record_outcome ctx.report outcome;
  outcome

let run ?(ctx = default_ctx) ?(opts = baseline)
    ?(sim_opts = Lp_sim.Sim.default_options) ~(machine : Machine.t)
    (source : string) : compiled * Lp_sim.Sim.outcome =
  let compiled = compile ~ctx ~opts ~machine source in
  (compiled, simulate_compiled ~ctx ~sim_opts compiled)

(* ------------------------------------------------------------------ *)
(* Structured diagnostics                                               *)
(* ------------------------------------------------------------------ *)

module Diag = Lp_util.Diag

(** Map every exception the pipeline can legitimately raise onto a
    structured diagnostic with a stable code; [None] for foreign
    exceptions (genuine crashes, which the fuzzer hunts for). *)
let diag_of_exn : exn -> Diag.t option = function
  | Diag.Error d -> Some d
  | Lp_lang.Lexer.Lex_error (msg, line) ->
    Some (Diag.make ~line Diag.Lex ~code:"E_LEX" msg)
  | Parser.Parse_error (msg, line) ->
    Some (Diag.make ~line Diag.Parse ~code:"E_PARSE" msg)
  | Typecheck.Type_error (msg, pos) ->
    Some (Diag.make ~line:pos.Ast.line Diag.Typecheck ~code:"E_TYPE" msg)
  | T.Parallelize.Par_error msg ->
    Some (Diag.make Diag.Parallelize ~code:"E_PAR" msg)
  | Lower.Lower_error msg -> Some (Diag.make Diag.Lower ~code:"E_LOWER" msg)
  | Verify.Invalid msg -> Some (Diag.make Diag.Verify ~code:"E_VERIFY" msg)
  | Compile_error msg -> Some (Diag.make Diag.Driver ~code:"E_COMPILE" msg)
  | e -> Lp_sim.Sim.diag_of_exn e

(** [f ()], with pipeline failures as diagnostics.  Foreign exceptions
    still propagate: they are bugs, not diagnostics. *)
let as_result f =
  match f () with
  | v -> Ok v
  | exception e -> (
    match diag_of_exn e with Some d -> Error d | None -> raise e)

(** [compile], but failures come back as diagnostics. *)
let compile_result ?(ctx = default_ctx) ?verify_each ?opts
    ~(machine : Machine.t) (source : string) : (compiled, Diag.t) result =
  as_result (fun () -> compile_exn ~ctx ?verify_each ?opts ~machine source)

let compile_checked ?(ctx = default_ctx) ?(opts = baseline)
    ~(machine : Machine.t) (ast : Ast.program) : (compiled, Diag.t) result =
  as_result (fun () ->
      in_compile_span ~ctx ~opts ~machine (fun () ->
          compile_checked_exn ~ctx ~verify_each:false ~opts ~machine ast))

(** [simulate_compiled], but failures come back as diagnostics. *)
let simulate_result ?(ctx = default_ctx) ?sim_opts (compiled : compiled) :
    (Lp_sim.Sim.outcome, Diag.t) result =
  as_result (fun () -> simulate_compiled ~ctx ?sim_opts compiled)

(** [run], but failures come back as diagnostics. *)
let run_result ?(ctx = default_ctx) ?verify_each ?opts ?sim_opts
    ~(machine : Machine.t) (source : string) :
    (compiled * Lp_sim.Sim.outcome, Diag.t) result =
  Result.bind (compile_result ~ctx ?verify_each ?opts ~machine source)
    (fun compiled ->
      Result.map
        (fun outcome -> (compiled, outcome))
        (simulate_result ~ctx ?sim_opts compiled))
