(** Benchmark harness: regenerates every table (T1-T5) and figure series
    (F1-F6, A1-A3) of the reproduced evaluation.

    The evaluation matrix fans out over [Lp_util.Domain_pool]; every run
    appends a machine-readable [BENCH_eval.json] snapshot (wall-clock per
    experiment, pool size, and — when a sequential reference pass ran —
    the speedup) so the repo accumulates a perf trajectory.

    Usage ([--help] lists every flag; an unknown flag or id exits 124):
      dune exec bench/main.exe                 # everything, default pool
      dune exec bench/main.exe -- t3 f1        # selected experiments
      dune exec bench/main.exe -- t1 --jobs 4  # 4-domain pool, plus a
                                               # sequential reference pass
      dune exec bench/main.exe -- t1 --jobs 4 --no-compare   # skip the ref
      dune exec bench/main.exe -- --jobs 1     # sequential *)

module E = Lp_experiments.Experiments
module Baseline = Lp_experiments.Baseline
module Exp_common = Lp_experiments.Exp_common
module DP = Lp_util.Domain_pool
open Cmdliner

(* ------------------------------------------------------------------ *)
(* BENCH_eval.json                                                      *)
(* ------------------------------------------------------------------ *)

(** Schema (see docs/PERF.md): one JSON object per invocation.
    [seq_wall_s]/[speedup] fields are null unless a sequential reference
    pass ran in the same invocation.  Each experiment entry also carries
    the simulated metrics of the cells it evaluated first ([cycles],
    [energy_nj], [cells_evaluated]) — the numbers the regression
    baseline tracks.  [cells] carries the per-cell status of the
    evaluation matrix: which (workload, config, machine) triples
    degraded to a diagnostic, and how many attempts each took.  The
    file is written atomically ({!Lp_util.Json.write_file}). *)
let write_bench_json ~path ~jobs ~(par : (string * float) list)
    ~(seq : (string * float) list option)
    ~(exp_metrics : (string * (float * float * int)) list) =
  let b = Buffer.create 4096 in
  let fnum x = Printf.sprintf "%.6f" x in
  let total xs = List.fold_left (fun a (_, s) -> a +. s) 0.0 xs in
  let seq_of id = Option.bind seq (fun s -> List.assoc_opt id s) in
  let opt_num = function Some x -> fnum x | None -> "null" in
  Printf.bprintf b
    "{\n  \"schema\": \"lowpower-bench-eval/1\",\n  \"pool_jobs\": %d,\n  \
     \"recommended_domains\": %d,\n  \"experiments\": [\n"
    jobs
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i (id, s) ->
      let speedup = Option.map (fun sq -> sq /. s) (seq_of id) in
      let (cycles, energy, n_cells) =
        Option.value ~default:(0.0, 0.0, 0) (List.assoc_opt id exp_metrics)
      in
      Printf.bprintf b
        "    {\"id\": %S, \"wall_s\": %s, \"seq_wall_s\": %s, \
         \"speedup\": %s, \"cycles\": %s, \"energy_nj\": %s, \
         \"cells_evaluated\": %d}%s\n"
        id (fnum s)
        (opt_num (seq_of id))
        (opt_num speedup)
        (Lp_util.Json.num_to_string cycles)
        (Lp_util.Json.num_to_string energy)
        n_cells
        (if i = List.length par - 1 then "" else ","))
    par;
  let tp = total par in
  let ts = Option.map total seq in
  let cells = Exp_common.cell_statuses () in
  let n_failed =
    List.length (List.filter (fun (_, _, code) -> code <> None) cells)
  in
  Printf.bprintf b
    "  ],\n  \"total_wall_s\": %s,\n  \"seq_total_wall_s\": %s,\n  \
     \"speedup\": %s,\n  \"cells_total\": %d,\n  \"cells_failed\": %d,\n  \
     \"cells\": [\n"
    (fnum tp) (opt_num ts)
    (opt_num (Option.map (fun t -> t /. tp) ts))
    (List.length cells) n_failed;
  List.iteri
    (fun i ((w, c, m), attempts, code) ->
      Printf.bprintf b
        "    {\"workload\": %S, \"config\": %S, \"machine\": %S, \
         \"attempts\": %d, \"status\": %s}%s\n"
        w c m attempts
        (match code with
        | None -> "\"ok\""
        | Some code -> Printf.sprintf "%S" code)
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Buffer.add_string b "  ]\n}\n";
  Lp_util.Json.write_file ~path (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(** The whole run, inside the session: returns the exit code (1 on a
    degraded cell or a failed baseline gate, 2 on an unreadable
    baseline) so the session still writes the trace and the report. *)
let run ids compare json_path check_baseline write_baseline =
  let jobs = DP.default_jobs () in
  let want id = ids = [] || List.mem id ids in
  let entries = List.filter (fun (e : E.entry) -> want e.E.id) E.all in
  (* cold sequential reference pass, for the speedup column *)
  let seq_timings =
    if entries <> [] && jobs > 1 && compare then begin
      Printf.printf
        "== sequential reference pass (%d experiments, jobs=1) ==\n%!"
        (List.length entries);
      DP.set_default_jobs 1;
      Lp_experiments.Exp_common.clear_cache ();
      let r =
        List.map
          (fun (e : E.entry) ->
            let (_table, s) = E.run_timed e in
            Printf.printf "  %-4s %.2fs\n%!" e.E.id s;
            (e.E.id, s))
          entries
      in
      DP.set_default_jobs jobs;
      Lp_experiments.Exp_common.clear_cache ();
      Some r
    end
    else None
  in
  if entries <> [] then
    Printf.printf "== evaluation sweep (jobs=%d) ==\n%!" jobs;
  (* simulated metrics attributed to the experiment that first evaluated
     each cell: the memo cache only grows, so the cells added while an
     experiment ran are exactly its fresh evaluations *)
  let exp_metric_rows = ref [] in
  let par_timings =
    List.map
      (fun (e : E.entry) ->
        let before = Exp_common.cell_metrics () in
        let (table, s) = E.run_timed e in
        let fresh =
          List.filter
            (fun (k, _, _) ->
              not (List.exists (fun (k', _, _) -> k' = k) before))
            (Exp_common.cell_metrics ())
        in
        exp_metric_rows := !exp_metric_rows @ [ (e.E.id, fresh) ];
        Lp_util.Table.print table;
        Printf.printf "(%s finished in %.1fs, jobs=%d)\n\n%!" e.E.id s jobs;
        (e.E.id, s))
      entries
  in
  let exp_metrics =
    List.map
      (fun (id, rows) ->
        let cycles = List.fold_left (fun a (_, c, _) -> a +. c) 0.0 rows in
        let energy = List.fold_left (fun a (_, _, e) -> a +. e) 0.0 rows in
        (id, (cycles, energy, List.length rows)))
      !exp_metric_rows
  in
  if entries <> [] then begin
    write_bench_json ~path:json_path ~jobs ~par:par_timings ~seq:seq_timings
      ~exp_metrics;
    let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 par_timings in
    (match seq_timings with
    | Some seq ->
      let ts = List.fold_left (fun a (_, s) -> a +. s) 0.0 seq in
      Printf.printf
        "sweep total: %.2fs with jobs=%d vs %.2fs sequential (speedup %.2fx)\n"
        total jobs ts (ts /. total)
    | None -> Printf.printf "sweep total: %.2fs with jobs=%d\n" total jobs);
    Printf.printf "wrote %s\n%!" json_path
  end;
  (* the regression gate: simulated cycles/energy against the committed
     snapshot (bench/baselines/eval.json in CI) *)
  let baseline_rows () =
    let exps =
      List.map
        (fun (id, (cycles, energy, n)) ->
          { Baseline.e_id = id; e_cycles = cycles; e_energy_nj = energy;
            e_cells = n })
        exp_metrics
    in
    let cells = Baseline.cell_rows_of_metrics (Exp_common.cell_metrics ()) in
    (exps, cells)
  in
  (match write_baseline with
  | None -> ()
  | Some path ->
    let (exps, cells) = baseline_rows () in
    Baseline.write (Baseline.make ~exps ~cells ()) ~path;
    Printf.printf "wrote baseline %s (%d cells, %d experiments)\n%!" path
      (List.length cells) (List.length exps));
  let gate =
    match check_baseline with
    | None -> Ok true
    | Some path -> (
      match Baseline.load ~path with
      | Error msg -> Error msg
      | Ok base ->
        let (exps, cells) = baseline_rows () in
        let verdict = Baseline.check base ~exps ~cells in
        print_string (Baseline.verdict_to_string verdict);
        Ok (Baseline.passed verdict))
  in
  (* failure summary: degraded cells render as ERR(<code>) in the tables
     above; recap them here and make the exit code reflect them *)
  match gate with
  | Error msg ->
    Printf.eprintf "baseline: %s\n" msg;
    2
  | Ok gate_passed ->
    let failed = Exp_common.failed_cells () in
    if failed <> [] then begin
      Printf.eprintf "\n== %d cell(s) degraded to a diagnostic ==\n"
        (List.length failed);
      List.iter
        (fun ((w, c, m), attempts, d) ->
          Printf.eprintf "  %s/%s@%s (attempt %d): %s\n" w c m attempts
            (Lp_util.Diag.to_string d))
        failed
    end;
    if failed <> [] || not gate_passed then 1 else 0

let () =
  let ids =
    let ids = List.map (fun (e : E.entry) -> e.E.id) E.all in
    Arg.(value & pos_all (enum (List.map (fun id -> (id, id)) ids)) []
         & info [] ~docv:"ID"
             ~doc:"Experiments to run: $(b,t1)..$(b,t5), $(b,t3b), \
                   $(b,f1)..$(b,f6) and $(b,a1)..$(b,a3); every experiment \
                   when omitted.  The machine-zoo sweep is $(b,lpcc sweep).")
  in
  let no_compare =
    Arg.(value & flag
         & info [ "no-compare" ]
             ~doc:"Skip the cold sequential reference pass that a pool of \
                   more than one domain otherwise times first for the \
                   speedup column.")
  in
  let json =
    Arg.(value & opt string "BENCH_eval.json"
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Write the $(b,lowpower-bench-eval/1) record to $(docv).")
  in
  let check_baseline =
    Arg.(value & opt (some string) None
         & info [ "check-baseline" ] ~docv:"FILE"
             ~doc:"Compare every simulated cell and experiment total with \
                   the committed baseline $(docv); exit 1 on a regression.")
  in
  let write_baseline =
    Arg.(value & opt (some string) None
         & info [ "write-baseline" ] ~docv:"FILE"
             ~doc:"Write the simulated metrics of this run as a baseline \
                   to $(docv).")
  in
  let main ids no_compare json check_baseline write_baseline config =
    match
      Lowpower.Compile.with_session config (fun ctx ->
          Exp_common.set_ctx ctx;
          run ids (not no_compare) json check_baseline write_baseline)
    with
    | Ok code -> code
    | Error msg ->
      prerr_endline msg;
      2
  in
  let doc =
    "regenerate the evaluation's tables and figures, time them, and gate \
     their simulated metrics against a baseline"
  in
  exit
    (Cmd.eval'
       (Cmd.v (Cmd.info "main.exe" ~doc)
          Term.(const main $ ids $ no_compare $ json $ check_baseline
                $ write_baseline $ Lp_cli.Cli.runtime_t)))
