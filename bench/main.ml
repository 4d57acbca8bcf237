(** Benchmark harness: regenerates every table (T1-T5) and figure series
    (F1-F6, A1-A3) of the reproduced evaluation, and records every cell
    it evaluated in [BENCH_eval.json].

    The evaluation matrix fans out over [Lp_util.Domain_pool].  The
    record holds simulated results only, so it is byte-identical
    whatever the pool size, simulator mode or profiler setting; CI diffs
    a full run's record against the committed [bench/baselines/eval.json].

    Usage ([--help] lists every flag; an unknown flag or id exits 124):
      dune exec bench/main.exe                 # everything, default pool
      dune exec bench/main.exe -- t3 f1        # selected experiments
      dune exec bench/main.exe -- --jobs 1     # sequential *)

module E = Lp_experiments.Experiments
module Exp_common = Lp_experiments.Exp_common
module J = Lp_util.Json
open Cmdliner

(** The [lowpower-bench-eval/2] record (see docs/PERF.md): one line per
    memoised cell, sorted by (workload, config, machine), each a compact
    JSON object with the cell's status (["ok"] or its diagnostic code),
    its attempts and, for a cell that ran, its total compute cycles,
    energy in nJ and simulated duration in ns.  One line per cell makes
    a moved cell a one-line diff. *)
let eval_record () =
  let line ((w, c, m), (cell : Exp_common.cell)) =
    let (status, metrics) =
      match cell.Exp_common.result with
      | Error d -> (d.Lp_util.Diag.code, [])
      | Ok r ->
        ( "ok",
          [ ("cycles", J.Num (Exp_common.cycles r));
            ("energy_nj", J.Num (Exp_common.energy r));
            ("duration_ns", J.Num (Exp_common.time_ns r)) ] )
    in
    J.to_compact_string
      (J.Obj
         ([ ("workload", J.Str w);
            ("config", J.Str c);
            ("machine", J.Str m);
            ("status", J.Str status);
            ("attempts", J.Num (float_of_int cell.Exp_common.attempts)) ]
         @ metrics))
  in
  Printf.sprintf "{\"schema\":\"lowpower-bench-eval/2\",\"cells\":[\n%s\n]}\n"
    (String.concat ",\n" (List.map line (Exp_common.cells ())))

(** The whole run, inside the session: returns the exit code (1 when a
    cell degraded to a diagnostic) so the session still writes the
    trace and the report. *)
let run ids json_path =
  let jobs = Lp_util.Domain_pool.default_jobs () in
  Printf.printf "== evaluation sweep (jobs=%d) ==\n%!" jobs;
  List.iter
    (fun (e : E.entry) ->
      if ids = [] || List.mem e.E.id ids then begin
        let (table, s) = E.run_timed e in
        Lp_util.Table.print table;
        Printf.printf "(%s finished in %.1fs, jobs=%d)\n\n%!" e.E.id s jobs
      end)
    E.all;
  J.write_file ~path:json_path (eval_record ());
  Printf.printf "wrote %s\n%!" json_path;
  (* failure summary: degraded cells render as ERR(<code>) in the tables
     above; recap them here and make the exit code reflect them *)
  match Exp_common.failed_cells () with
  | [] -> 0
  | failed ->
    Printf.eprintf "\n== %d cell(s) degraded to a diagnostic ==\n"
      (List.length failed);
    List.iter
      (fun ((w, c, m), attempts, d) ->
        Printf.eprintf "  %s/%s@%s (attempt %d): %s\n" w c m attempts
          (Lp_util.Diag.to_string d))
      failed;
    1

let () =
  let ids =
    let ids = List.map (fun (e : E.entry) -> e.E.id) E.all in
    Arg.(value & pos_all (enum (List.map (fun id -> (id, id)) ids)) []
         & info [] ~docv:"ID"
             ~doc:"Experiments to run: $(b,t1)..$(b,t5), $(b,t3b), \
                   $(b,f1)..$(b,f6) and $(b,a1)..$(b,a3); every experiment \
                   when omitted.  The machine-zoo sweep is $(b,lpcc sweep).")
  in
  let json =
    Arg.(value & opt string "BENCH_eval.json"
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Write the $(b,lowpower-bench-eval/2) record of every \
                   evaluated cell to $(docv).")
  in
  let main ids json config =
    match
      Lowpower.Compile.with_session config (fun ctx ->
          Exp_common.set_ctx ctx;
          run ids json)
    with
    | Ok code -> code
    | Error msg ->
      prerr_endline msg;
      2
  in
  let doc =
    "regenerate the evaluation's tables and figures and record the \
     simulated result of every cell they evaluated"
  in
  exit
    (Cmd.eval'
       (Cmd.v (Cmd.info "main.exe" ~doc)
          Term.(const main $ ids $ json $ Lp_cli.Cli.runtime_t)))
