(** Tables T1-T5 of the evaluation. *)

open Exp_common
module Ast = Lp_lang.Ast
module Prog = Lp_ir.Prog
module T = Lp_transforms

(* one field of each detected instance, "+"-joined; "-" for none *)
let instances f (insts : Pattern.instance list) =
  if insts = [] then "-" else String.concat "+" (List.map f insts)

let kind (i : Pattern.instance) = Pattern.kind_name i.Pattern.kind

(* ------------------------------------------------------------------ *)
(* T1: workload characteristics                                        *)
(* ------------------------------------------------------------------ *)

let t1 () : Table.t =
  let jobs = cross all_workloads [ ("baseline", Compile.baseline) ] in
  run_matrix jobs;
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
    (fun j ->
      let w = j.j_workload in
      let from_run f = scell (result_of j) f in
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
              instances kind r.compiled.Compile.detection.Pattern.instances);
        ])
    jobs;
  tbl

(* ------------------------------------------------------------------ *)
(* T2: pattern detection                                               *)
(* ------------------------------------------------------------------ *)

let t2 () : Table.t =
  let det f = Compared (fun r -> f r.compiled.Compile.detection) in
  row_table ~title:"T2: Pattern detection (verified annotations + inference)"
    ~header:
      [ "workload"; "candidate loops"; "instances"; "origin"; "rejections";
        "first rejection reason" ]
    ~aligns:Table.[ Left; Right; Left; Left; Right; Left ]
    [
      det (fun d -> string_of_int d.Pattern.candidate_loops);
      det (fun d -> instances kind d.Pattern.instances);
      det (fun d ->
          instances
            (fun i ->
              match i.Pattern.origin with
              | Pattern.Annotated -> "annot"
              | Pattern.Inferred -> "infer")
            d.Pattern.instances);
      det (fun d -> string_of_int (List.length d.Pattern.rejections));
      det (fun d ->
          match d.Pattern.rejections with
          | [] -> "-"
          | rej :: _ -> rej.Pattern.rej_reason);
    ]
    (List.map
       (fun (w : Workload.t) ->
         single [ w.Workload.name ] (job w ~config:"baseline" Compile.baseline))
       all_workloads)

(* ------------------------------------------------------------------ *)
(* T3 / T3b / T4: every workload under every configuration            *)
(* ------------------------------------------------------------------ *)

(** Every workload with one job per config, named [config ^ suffix] on
    [machine], after running them all on the matrix. *)
let config_rows ?machine ?(suffix = "") configs =
  let rows =
    List.map
      (fun (w : Workload.t) ->
        ( w,
          List.map
            (fun (name, opts) -> job ?machine w ~config:(name ^ suffix) opts)
            configs ))
      all_workloads
  in
  run_matrix (List.concat_map snd rows);
  rows

(** Every workload's energy under each config, normalised to the first
    (the baseline), with a geomean row. *)
let normalised_energy ~title ?machine ?suffix configs : Table.t =
  let rows = config_rows ?machine ?suffix configs in
  let tbl =
    Table.create ~title
      ~header:("workload" :: List.map fst configs)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) configs)
      ()
  in
  (* per config, its ratios in reverse workload order *)
  let ratios =
    List.fold_left
      (fun acc ((w : Workload.t), jobs) ->
        let cells = List.map result_of jobs in
        let base = List.hd cells in
        Table.add_row tbl
          (w.Workload.name
          :: List.map
               (fun c ->
                 scell2 base c (fun b r -> fmt_ratio (normalised ~base:b r)))
               cells);
        List.map2
          (fun c prev -> fopt2 base c (fun b r -> normalised ~base:b r) :: prev)
          cells acc)
      (List.map (fun _ -> []) configs)
      rows
  in
  Table.add_row tbl ("geomean" :: List.map geomean_str ratios);
  tbl

let t3 () : Table.t =
  normalised_energy
    ~title:"T3: Energy normalised to baseline (4-core machine; lower is better)"
    (Compile.configs ~n_cores:4)

(** On the 4-core machine (T3), gating the three unused cores dominates
    the sequential configurations.  This companion table isolates the
    within-core effects by running the sequential configurations on a
    single-core machine. *)
let t3b () : Table.t =
  normalised_energy
    ~title:
      "T3b: Energy normalised to baseline on a SINGLE-core machine          (component gating and DVFS effects within one core)"
    ~machine:(machine_with_cores 1) ~suffix:"-1c"
    [ ("baseline", Compile.baseline); ("pg", Compile.pg_only);
      ("dvfs", Compile.dvfs_only); ("pg+dvfs", Compile.pg_dvfs) ]

(* ------------------------------------------------------------------ *)
(* T4: performance impact                                              *)
(* ------------------------------------------------------------------ *)

let t4 () : Table.t =
  let configs = Compile.configs ~n_cores:4 in
  let rows = config_rows configs in
  let tbl =
    Table.create
      ~title:
        "T4: Performance impact vs baseline (overhead of power management; \
         speedup of pattern parallelisation)"
      ~header:
        ("workload"
        :: List.map
             (fun (name, (o : Compile.options)) ->
               name ^ if o.Compile.parallelize then " speedup" else " ovh%")
             (List.tl configs))
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (List.tl configs))
      ()
  in
  let ovh b r =
    Table.fmt_float ~digits:2
      (Lp_util.Stats.percent_change ~before:(time_ns b) ~after:(time_ns r))
  in
  let speedup b r = Table.fmt_float ~digits:2 (time_ns b /. time_ns r) in
  List.iter
    (fun ((w : Workload.t), jobs) ->
      let base = result_of (List.hd jobs) in
      Table.add_row tbl
        (w.Workload.name
        :: List.map
             (fun j ->
               let metric =
                 if j.j_opts.Compile.parallelize then speedup else ovh
               in
               scell2 base (result_of j) metric)
             (List.tl jobs)))
    rows;
  tbl

(* ------------------------------------------------------------------ *)
(* T5: compile statistics                                              *)
(* ------------------------------------------------------------------ *)

let t5 () : Table.t =
  let from_c f = Compared (fun r -> f r.compiled) in
  let before c = c.Compile.gating_before_merge.T.Gating.components_toggled
  and after c = c.Compile.gating_after_merge.T.Gating.components_toggled in
  row_table
    ~title:
      "T5: Compile statistics (pg-only config): pass time, gating \
       component-toggles before/after Sink-N-Hoist"
    ~header:
      [ "workload"; "compile ms"; "IR instrs"; "gate-toggles pre";
        "gate-toggles post"; "merge red%" ]
    ~aligns:Table.[ Left; Right; Right; Right; Right; Right ]
    [
      from_c (fun c ->
          Table.fmt_float ~digits:2
            (1000.0
            *. List.fold_left
                 (fun acc (s : T.Pass.stats) -> acc +. s.T.Pass.seconds)
                 0.0 c.Compile.pass_stats));
      from_c (fun c -> string_of_int (Prog.total_instrs c.Compile.prog));
      from_c (fun c -> string_of_int (before c));
      from_c (fun c -> string_of_int (after c));
      from_c (fun c -> reduction_pct ~before:(before c) ~after:(after c));
    ]
    (List.map
       (fun (w : Workload.t) ->
         single [ w.Workload.name ] (job w ~config:"pg" Compile.pg_only))
       all_workloads)
