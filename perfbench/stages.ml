(** The traced op: [Compile.compile_exn]'s stage order replayed from the
    benchmark, one span per layer, with the counters each layer exposes.

    Layers (span names): [lang] (parse + type-check), [patterns]
    (detection), [parallelize] (rewrite + the re-type-check self-check),
    [lower], [optimize] (the pass pipeline), [power] (balance, DVFS,
    gating, Sink-N-Hoist), [verify] (IR verifier + machine compatibility),
    [sim.decode] ([Sim.create]: predecode, memory image, closure
    compilation) and [sim.step] ([Sim.run]).  Every traced op is
    re-run through [Compile.compile] afterwards and must agree with it
    byte for byte ({!agrees}). *)

open Common
module Ast = Lp_lang.Ast
module Parser = Lp_lang.Parser
module Typecheck = Lp_lang.Typecheck
module Pattern = Lp_patterns.Pattern
module Detect = Lp_patterns.Detect
module Prog = Lp_ir.Prog
module Lower = Lp_ir.Lower
module Verify = Lp_ir.Verify
module T = Lp_transforms
module Pipeline = Lowpower.Pipeline
module Am = Lp_analysis.Manager

(** Per-layer work counters, summed over the traced ops. *)
type counts = {
  mutable src_bytes : int;
  mutable instances : int;
  mutable rejections : int;
  mutable workers : int;
  mutable lower_ir : int;
  mutable pass_runs : int;
  mutable pass_changes : int;
  mutable opt_ir : int;
  mutable an_hits : int;
  mutable an_misses : int;
  mutable dvfs_regions : int;
  mutable gates_inserted : int;
  mutable gates_after_merge : int;
  mutable decoded_blocks : int;
  mutable steps : int;
  mutable leak_recomputes : int;
  mutable sim_instrs : int;
  mutable bus_wait_ns : float;
  mutable core_ns : float;  (** simulated duration x cores used *)
  mutable gate_transitions : int;
  mutable dvfs_transitions : int;
  mutable channel_msgs : int;
  energy : float array;     (** by ledger category *)
  mutable ops : int;
  mutable mismatches : string list;
}

let create_counts () =
  {
    src_bytes = 0; instances = 0; rejections = 0; workers = 0;
    lower_ir = 0; pass_runs = 0; pass_changes = 0; opt_ir = 0;
    an_hits = 0; an_misses = 0; dvfs_regions = 0; gates_inserted = 0;
    gates_after_merge = 0; decoded_blocks = 0; steps = 0;
    leak_recomputes = 0; sim_instrs = 0; bus_wait_ns = 0.0; core_ns = 0.0;
    gate_transitions = 0; dvfs_transitions = 0; channel_msgs = 0;
    energy = Array.make (List.length Ledger.all_categories) 0.0;
    ops = 0; mismatches = [];
  }

let gates (c : T.Gating.counts) = c.T.Gating.off_instrs + c.T.Gating.on_instrs

(** [Compile.compile_exn], stage by stage.  Raises what it raises. *)
let compile tr (k : counts) ~(opts : Compile.options) ~(machine : Machine.t)
    source : Compile.compiled =
  let span name f = Trace.span tr name f in
  if opts.Compile.n_cores > Machine.n_cores machine then
    raise
      (Compile.Compile_error
         (Printf.sprintf "options ask for %d cores, machine has %d"
            opts.Compile.n_cores (Machine.n_cores machine)));
  let ast =
    span "lang" (fun () ->
        let ast = Parser.parse_program source in
        Typecheck.check_program ast;
        ast)
  in
  k.src_bytes <- k.src_bytes + String.length source;
  let detection = span "patterns" (fun () -> Detect.detect ast) in
  k.instances <- k.instances + List.length detection.Pattern.instances;
  k.rejections <- k.rejections + List.length detection.Pattern.rejections;
  let (ast_par, par_info) =
    span "parallelize" (fun () ->
        let (ast_par, par_info) =
          if opts.Compile.parallelize && opts.Compile.n_cores > 1 then
            T.Parallelize.run ~distribution:opts.Compile.distribution
              ~sync:opts.Compile.sync ~n_cores:opts.Compile.n_cores ast
              (Compile.feasible_instances ~n_cores:opts.Compile.n_cores
                 detection.Pattern.instances)
          else (ast, T.Par_info.sequential)
        in
        (try Typecheck.check_program ast_par with
        | Typecheck.Type_error (msg, pos) ->
          raise
            (Compile.Compile_error
               (Printf.sprintf
                  "internal: generated code ill-typed (line %d): %s"
                  pos.Ast.line msg)));
        (ast_par, par_info))
  in
  k.workers <- k.workers + par_info.T.Par_info.n_workers;
  let prog =
    span "lower" (fun () ->
        let prog = Lower.lower_program ast_par in
        if par_info.T.Par_info.n_workers > 0 then
          prog.Prog.layout <-
            Prog.Parallel
              {
                entries = par_info.T.Par_info.entries;
                n_channels = par_info.T.Par_info.n_channels;
                n_barriers = par_info.T.Par_info.n_barriers;
                chan_capacity = par_info.T.Par_info.chan_capacity;
              };
        prog)
  in
  k.lower_ir <- k.lower_ir + Prog.total_instrs prog;
  let pm = T.Pass.create_manager () in
  let am = T.Pass.analysis_manager pm prog in
  span "optimize" (fun () ->
      Pipeline.execute pm ~mac_fusion:opts.Compile.mac_fusion
        (Option.value ~default:Pipeline.default opts.Compile.pipeline)
        prog);
  k.opt_ir <- k.opt_ir + Prog.total_instrs prog;
  let power = opts.Compile.power in
  let (before_merge, after_merge) =
    span "power" (fun () ->
        if power.Compile.balance && par_info.T.Par_info.n_workers > 0 then
          ignore (T.Balance.run ~am machine prog par_info);
        if power.Compile.dvfs then
          k.dvfs_regions <-
            k.dvfs_regions
            + T.Dvfs.insert ~opts:power.Compile.dvfs_opts ~am machine prog;
        let before =
          if power.Compile.gating then begin
            k.gates_inserted <-
              k.gates_inserted
              + T.Gating.insert ~opts:power.Compile.gating_opts ~am machine
                  prog;
            ignore (T.Pass.run_pass pm T.Simplify_cfg.pass prog)
          end;
          T.Gating.count_gating prog
        in
        let after =
          if power.Compile.gating && power.Compile.sink_n_hoist then begin
            ignore (T.Gating.merge machine prog);
            ignore (T.Pass.run_pass pm T.Simplify_cfg.pass prog);
            T.Gating.count_gating prog
          end
          else before
        in
        (before, after))
  in
  k.gates_after_merge <- k.gates_after_merge + gates after_merge;
  span "verify" (fun () ->
      Verify.verify_prog prog;
      let cu = Am.compuse am in
      List.iter
        (fun entry ->
          Lp_power.Component.Set.iter
            (fun comp ->
              if not (Machine.has_component machine comp) then
                raise
                  (Compile.Compile_error
                     (Printf.sprintf
                        "program uses the %s unit but machine %s has none"
                        (Lp_power.Component.to_string comp)
                        machine.Machine.name)))
            (Lp_analysis.Compuse.func_use cu entry))
        (Prog.entries prog));
  let pass_stats = T.Pass.stats pm in
  List.iter
    (fun (s : T.Pass.stats) ->
      k.pass_runs <- k.pass_runs + s.T.Pass.runs;
      k.pass_changes <- k.pass_changes + s.T.Pass.changes)
    pass_stats;
  let st = Am.stats am in
  k.an_hits <- k.an_hits + st.Am.hits;
  k.an_misses <- k.an_misses + st.Am.misses;
  {
    Compile.source_ast = ast;
    prog;
    par_info;
    detection;
    pass_stats;
    gating_before_merge = before_merge;
    gating_after_merge = after_merge;
    machine;
    options = opts;
  }

(** [Compile.simulate_compiled], split into construction and stepping. *)
let simulate tr (k : counts) (c : Compile.compiled) : Sim.outcome =
  let opts =
    { Sim.default_options with
      Sim.gate_unused_cores =
        c.Compile.options.Compile.power.Compile.gate_unused_cores }
  in
  let machine = c.Compile.machine and prog = c.Compile.prog in
  Trace.span tr "sim.decode" (fun () -> ignore (Sim.create ~opts ~machine prog));
  let o = Trace.span tr "sim.step" (fun () -> Sim.run ~opts ~machine prog) in
  k.decoded_blocks <- k.decoded_blocks + o.Sim.decoded_blocks;
  k.steps <- k.steps + o.Sim.steps;
  k.leak_recomputes <- k.leak_recomputes + o.Sim.leak_recomputes;
  k.sim_instrs <- k.sim_instrs + o.Sim.instr_total;
  k.bus_wait_ns <-
    k.bus_wait_ns +. Array.fold_left ( +. ) 0.0 o.Sim.bus_wait_ns_per_core;
  k.core_ns <-
    k.core_ns
    +. (o.Sim.duration_ns *. float_of_int (Array.length o.Sim.busy_ns));
  k.gate_transitions <- k.gate_transitions + o.Sim.gate_transitions;
  k.dvfs_transitions <- k.dvfs_transitions + o.Sim.dvfs_transitions;
  k.channel_msgs <- k.channel_msgs + o.Sim.channel_msgs;
  List.iteri
    (fun i cat -> k.energy.(i) <- k.energy.(i) +. Ledger.of_category o.Sim.energy cat)
    Ledger.all_categories;
  o

(** Do the staged result and [Compile.compile]'s agree?  Compares the
    printed IR and every simulated quantity the benchmark reports. *)
let agrees (op : op) (c : Compile.compiled) (o : Sim.outcome) =
  match Compile.compile ~opts:op.opts ~machine:op.machine op.source with
  | exception _ -> false
  | c' ->
    let o' = Compile.simulate_compiled c' in
    Lp_ir.Printer.prog_to_string c.Compile.prog
    = Lp_ir.Printer.prog_to_string c'.Compile.prog
    && observable ~globals:op.globals o = observable ~globals:op.globals o'
    && Ledger.total o.Sim.energy = Ledger.total o'.Sim.energy
    && o.Sim.duration_ns = o'.Sim.duration_ns
    && o.Sim.instr_total = o'.Sim.instr_total
    && o.Sim.steps = o'.Sim.steps
    && o.Sim.gate_transitions = o'.Sim.gate_transitions
    && o.Sim.dvfs_transitions = o'.Sim.dvfs_transitions

(** One traced op: the staged pipeline inside an ["op"] span.  Failures
    come back as diagnostics exactly as {!Common.run_op} reports them;
    successful ops are checked against [Compile] (the check is outside
    every span and every timing). *)
let run_op tr (k : counts) (op : op) : summary =
  k.ops <- k.ops + 1;
  let t0 = now () in
  let staged =
    match
      Trace.span tr "op" (fun () ->
          let c = compile tr k ~opts:op.opts ~machine:op.machine op.source in
          let t1 = now () in
          let o = simulate tr k c in
          (c, o, t1))
    with
    | r -> Ok r
    | exception e -> Error e
  in
  let t2 = now () in
  Trace.end_op tr ~seconds:(t2 -. t0);
  match staged with
  | Error e -> failed_summary ~compile_s:(t2 -. t0) (diag_code e)
  | Ok (c, o, t1) ->
    if not (agrees op c o) then k.mismatches <- op.label :: k.mismatches;
    summarize ~globals:op.globals ~compile_s:(t1 -. t0) ~sim_s:(t2 -. t1) c o

(** The per-layer metrics of the compile and simulator layers.  Counters
    and allocation come from the first [k.ops] traced ops (one pass, so
    they repeat exactly); times are per op over all [timed_ops] traced
    ops. *)
let layer_metrics ~timed_ops tr (k : counts) : metric list =
  let fi = float_of_int in
  let per_op x = ratio x (fi timed_ops) in
  let self_s name = per_op (fst (Trace.self tr name)) in
  let self_ms name = ms (self_s name) in
  let mwords name = snd (Trace.self ~first:k.ops tr name) /. 1e6 in
  (* a per-op count over per-op seconds *)
  let rate count name = ratio (ratio count (fi k.ops)) (self_s name) in
  let total_energy = Array.fold_left ( +. ) 0.0 k.energy in
  List.map (fun l -> m (l ^ ".self_ms") "ms" (self_ms l))
    [ "lang"; "patterns"; "parallelize"; "lower"; "optimize"; "power";
      "verify" ]
  @ [
      m "other.self_ms" "ms" (self_ms "op");
      m "lang.src_kb_per_s" "KB/s" (rate (fi k.src_bytes /. 1024.0) "lang");
      m "lang.alloc_mwords" "Mwords" (mwords "lang");
      m "patterns.instances" "count" (fi k.instances);
      m "patterns.rejections" "count" (fi k.rejections);
      m "parallelize.workers" "count" (fi k.workers);
      m "lower.ir_instrs" "count" (fi k.lower_ir);
      m "optimize.alloc_mwords" "Mwords" (mwords "optimize");
      m "optimize.pass_runs" "count" (fi k.pass_runs);
      m "optimize.pass_changes" "count" (fi k.pass_changes);
      m "optimize.ir_instrs" "count" (fi k.opt_ir);
      m "analysis.hits" "count" (fi k.an_hits);
      m "analysis.misses" "count" (fi k.an_misses);
      m "analysis.hit_ratio" "ratio"
        (ratio (fi k.an_hits) (fi (k.an_hits + k.an_misses)));
      m "power.dvfs_regions" "count" (fi k.dvfs_regions);
      m "power.gates_inserted" "count" (fi k.gates_inserted);
      m "power.gates_after_merge" "count" (fi k.gates_after_merge);
      m "sim.decode_ms" "ms" (self_ms "sim.decode");
      m "sim.decoded_blocks" "count" (fi k.decoded_blocks);
      m "sim.step_ms" "ms" (self_ms "sim.step");
      m "sim.minstr_per_s" "Minstr/s" (rate (fi k.sim_instrs /. 1e6) "sim.step");
      m "sim.steps" "count" (fi k.steps);
      m "sim.leak_recomputes" "count" (fi k.leak_recomputes);
      m "sim.alloc_mwords" "Mwords" (mwords "sim.step");
      m "hw.bus_wait_share" "ratio" (ratio k.bus_wait_ns k.core_ns);
      m "hw.gate_transitions" "count" (fi k.gate_transitions);
      m "hw.dvfs_transitions" "count" (fi k.dvfs_transitions);
      m "hw.channel_msgs" "count" (fi k.channel_msgs);
    ]
  @ List.mapi
      (fun i cat ->
        let name =
          String.map
            (fun ch -> if ch = '-' then '_' else ch)
            (Ledger.category_to_string cat)
        in
        m ("energy." ^ name ^ "_share") "ratio" (ratio k.energy.(i) total_energy))
      Ledger.all_categories

(** Metrics of [layer_metrics] whose values repeat exactly for a seed:
    every count, ratio of counts and allocation. *)
let deterministic_layer_metrics (ms_ : metric list) =
  List.filter (fun x -> List.mem x.unit_ [ "count"; "ratio"; "Mwords" ]) ms_
