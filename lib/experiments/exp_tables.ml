(** Tables T1-T5 of the evaluation. *)

open Exp_common
module Ast = Lp_lang.Ast
module Prog = Lp_ir.Prog
module T = Lp_transforms

(* ------------------------------------------------------------------ *)
(* T1: workload characteristics                                        *)
(* ------------------------------------------------------------------ *)

let t1 () : Table.t =
  run_matrix (cross all_workloads [ ("baseline", Compile.baseline) ]);
  let tbl =
    Table.create ~title:"T1: Benchmark characteristics"
      ~header:
        [ "workload"; "LoC"; "funcs"; "loops"; "IR instrs"; "expected";
          "detected" ]
      ~aligns:
        Table.[ Left; Right; Right; Right; Right; Left; Left ]
      ()
  in
  List.iter
    (fun (w : Workload.t) ->
      let c = run_workload_result w ~config:"baseline" Compile.baseline in
      let from_run f = scell c f in
      Table.add_row tbl
        [
          w.Workload.name;
          string_of_int (source_loc w);
          from_run (fun r ->
              string_of_int
                (List.length r.compiled.Compile.source_ast.Ast.funcs));
          from_run (fun r ->
              string_of_int
                (List.fold_left
                   (fun acc (f : Ast.func) -> acc + Ast.count_loops f.Ast.fbody)
                   0 r.compiled.Compile.source_ast.Ast.funcs));
          from_run (fun r ->
              string_of_int (Prog.total_instrs r.compiled.Compile.prog));
          w.Workload.expected_pattern;
          from_run (fun r ->
              match r.compiled.Compile.detection.Pattern.instances with
              | [] -> "-"
              | insts ->
                String.concat "+"
                  (List.map
                     (fun (i : Pattern.instance) ->
                       Pattern.kind_name i.Pattern.kind)
                     insts));
        ])
    all_workloads;
  tbl

(* ------------------------------------------------------------------ *)
(* T2: pattern detection                                               *)
(* ------------------------------------------------------------------ *)

let t2 () : Table.t =
  run_matrix (cross all_workloads [ ("baseline", Compile.baseline) ]);
  let tbl =
    Table.create ~title:"T2: Pattern detection (verified annotations + inference)"
      ~header:
        [ "workload"; "candidate loops"; "instances"; "origin"; "rejections";
          "first rejection reason" ]
      ~aligns:Table.[ Left; Right; Left; Left; Right; Left ]
      ()
  in
  List.iter
    (fun (w : Workload.t) ->
      let c = run_workload_result w ~config:"baseline" Compile.baseline in
      let from_det f = scell c (fun r -> f r.compiled.Compile.detection) in
      Table.add_row tbl
        [
          w.Workload.name;
          from_det (fun d -> string_of_int d.Pattern.candidate_loops);
          from_det (fun d ->
              match d.Pattern.instances with
              | [] -> "-"
              | l ->
                String.concat "+"
                  (List.map
                     (fun (i : Pattern.instance) ->
                       Pattern.kind_name i.Pattern.kind)
                     l));
          from_det (fun d ->
              match d.Pattern.instances with
              | [] -> "-"
              | l ->
                String.concat "+"
                  (List.map
                     (fun (i : Pattern.instance) ->
                       match i.Pattern.origin with
                       | Pattern.Annotated -> "annot"
                       | Pattern.Inferred -> "infer")
                     l));
          from_det (fun d -> string_of_int (List.length d.Pattern.rejections));
          from_det (fun d ->
              match d.Pattern.rejections with
              | [] -> "-"
              | rej :: _ -> rej.Pattern.rej_reason);
        ])
    all_workloads;
  tbl

(* ------------------------------------------------------------------ *)
(* T3: normalised energy across configurations                         *)
(* ------------------------------------------------------------------ *)

let t3 () : Table.t =
  let configs = Compile.configs ~n_cores:4 in
  run_matrix (cross all_workloads configs);
  let tbl =
    Table.create
      ~title:
        "T3: Energy normalised to baseline (4-core machine; lower is better)"
      ~header:("workload" :: List.map fst configs)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) configs)
      ()
  in
  let per_config_ratios = Hashtbl.create 8 in
  List.iter
    (fun (w : Workload.t) ->
      let base = run_workload_result w ~config:"baseline" Compile.baseline in
      let cells =
        List.map
          (fun (name, opts) ->
            let c = run_workload_result w ~config:name opts in
            let ratio = fopt2 base c (fun b r -> normalised ~base:b r) in
            let cur =
              Option.value ~default:[]
                (Hashtbl.find_opt per_config_ratios name)
            in
            Hashtbl.replace per_config_ratios name (ratio :: cur);
            scell2 base c (fun b r -> fmt_ratio (normalised ~base:b r)))
          configs
      in
      Table.add_row tbl (w.Workload.name :: cells))
    all_workloads;
  Table.add_row tbl
    ("geomean"
    :: List.map
         (fun (name, _) -> geomean_str (Hashtbl.find per_config_ratios name))
         configs);
  tbl

(* ------------------------------------------------------------------ *)
(* T3b: single-core machine — component-level power management only    *)
(* ------------------------------------------------------------------ *)

(** On the 4-core machine (T3), gating the three unused cores dominates
    the sequential configurations.  This companion table isolates the
    within-core effects by running the sequential configurations on a
    single-core machine. *)
let t3b () : Table.t =
  let machine = machine_with_cores 1 in
  let configs =
    [ ("baseline", Compile.baseline); ("pg", Compile.pg_only);
      ("dvfs", Compile.dvfs_only); ("pg+dvfs", Compile.pg_dvfs) ]
  in
  run_matrix
    (cross ~machine all_workloads
       (List.map (fun (n, o) -> (n ^ "-1c", o)) configs));
  let tbl =
    Table.create
      ~title:
        "T3b: Energy normalised to baseline on a SINGLE-core machine          (component gating and DVFS effects within one core)"
      ~header:("workload" :: List.map fst configs)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) configs)
      ()
  in
  let per_config = Hashtbl.create 8 in
  List.iter
    (fun (w : Workload.t) ->
      let base =
        run_workload_result ~machine w ~config:"baseline-1c" Compile.baseline
      in
      let cells =
        List.map
          (fun (name, opts) ->
            let c = run_workload_result ~machine w ~config:(name ^ "-1c") opts in
            let ratio = fopt2 base c (fun b r -> normalised ~base:b r) in
            let cur = Option.value ~default:[] (Hashtbl.find_opt per_config name) in
            Hashtbl.replace per_config name (ratio :: cur);
            scell2 base c (fun b r -> fmt_ratio (normalised ~base:b r)))
          configs
      in
      Table.add_row tbl (w.Workload.name :: cells))
    all_workloads;
  Table.add_row tbl
    ("geomean"
    :: List.map
         (fun (name, _) -> geomean_str (Hashtbl.find per_config name))
         configs);
  tbl

(* ------------------------------------------------------------------ *)
(* T4: performance impact                                              *)
(* ------------------------------------------------------------------ *)

let t4 () : Table.t =
  run_matrix (cross all_workloads (Compile.configs ~n_cores:4));
  let tbl =
    Table.create
      ~title:
        "T4: Performance impact vs baseline (overhead of power management; \
         speedup of pattern parallelisation)"
      ~header:
        [ "workload"; "pg ovh%"; "dvfs ovh%"; "pg+dvfs ovh%"; "par speedup";
          "full speedup" ]
      ~aligns:Table.[ Left; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun (w : Workload.t) ->
      let base = run_workload_result w ~config:"baseline" Compile.baseline in
      let ovh name opts =
        scell2 base
          (run_workload_result w ~config:name opts)
          (fun b r ->
            Table.fmt_float ~digits:2
              (Lp_util.Stats.percent_change ~before:(time_ns b)
                 ~after:(time_ns r)))
      in
      let speedup name opts =
        scell2 base
          (run_workload_result w ~config:name opts)
          (fun b r -> Table.fmt_float ~digits:2 (time_ns b /. time_ns r))
      in
      Table.add_row tbl
        [
          w.Workload.name;
          ovh "pg" Compile.pg_only;
          ovh "dvfs" Compile.dvfs_only;
          ovh "pg+dvfs" Compile.pg_dvfs;
          speedup "par" (Compile.par_only ~n_cores:4);
          speedup "full" (Compile.full ~n_cores:4);
        ])
    all_workloads;
  tbl

(* ------------------------------------------------------------------ *)
(* T5: compile statistics                                              *)
(* ------------------------------------------------------------------ *)

let t5 () : Table.t =
  run_matrix (cross all_workloads [ ("pg", Compile.pg_only) ]);
  let tbl =
    Table.create
      ~title:
        "T5: Compile statistics (pg-only config): pass time, gating \
         component-toggles before/after Sink-N-Hoist"
      ~header:
        [ "workload"; "compile ms"; "IR instrs"; "gate-toggles pre";
          "gate-toggles post"; "merge red%" ]
      ~aligns:Table.[ Left; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun (w : Workload.t) ->
      let cell = run_workload_result w ~config:"pg" Compile.pg_only in
      let from_c f = scell cell (fun r -> f r.compiled) in
      Table.add_row tbl
        [
          w.Workload.name;
          from_c (fun c ->
              Table.fmt_float ~digits:2
                (1000.0
                *. List.fold_left
                     (fun acc (s : T.Pass.stats) -> acc +. s.T.Pass.seconds)
                     0.0 c.Compile.pass_stats));
          from_c (fun c -> string_of_int (Prog.total_instrs c.Compile.prog));
          from_c (fun c ->
              string_of_int
                c.Compile.gating_before_merge.T.Gating.components_toggled);
          from_c (fun c ->
              string_of_int
                c.Compile.gating_after_merge.T.Gating.components_toggled);
          from_c (fun c ->
              let pre =
                c.Compile.gating_before_merge.T.Gating.components_toggled
              in
              let post =
                c.Compile.gating_after_merge.T.Gating.components_toggled
              in
              Table.fmt_float ~digits:1
                (if pre = 0 then 0.0
                 else 100.0 *. float_of_int (pre - post) /. float_of_int pre));
        ])
    all_workloads;
  tbl
