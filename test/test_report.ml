(** Power-decision audit report tests: the disabled report is inert, the
    JSON export is byte-stable against a committed golden (events carry
    no timestamps, so a fixed (source, machine, options) triple always
    renders identically), every gating event corresponds to power-gating
    instructions in the emitted IR, the report collected over the
    evaluation matrix is independent of the pool size, the benchmark
    baseline gate flags exactly the beyond-tolerance increases, and the
    minimal JSON codec round-trips.

    Regenerate the golden after a deliberate pipeline change with:
    [LP_UPDATE_GOLDEN=$PWD/test/golden_report.json dune test] (fails
    once while rewriting the file, green on the rerun). *)

module Report = Lp_obs.Report
module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Component = Lp_power.Component
module CS = Component.Set
module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Exp = Lp_experiments.Exp_common
module Baseline = Lp_experiments.Baseline
module DP = Lp_util.Domain_pool
module Json = Lp_util.Json
module Gen = Lp_robust.Gen

let check = Alcotest.check

(* ---------------- disabled report ---------------- *)

let test_disabled () =
  let r = Report.disabled in
  Report.add r
    (Report.Pattern_verdict
       { pv_func = "main"; pv_verdict = "accepted"; pv_kind = Some "doall";
         pv_origin = Some "annotated"; pv_reason = None });
  Report.warn r "ignored";
  check Alcotest.bool "not enabled" false (Report.enabled r);
  check Alcotest.int "no decisions" 0 (List.length (Report.decisions r));
  check Alcotest.int "no warnings" 0 (List.length (Report.warnings r));
  check Alcotest.int "no wakeups" 0 (Report.implicit_wakeups r)

(* ---------------- golden JSON export ---------------- *)

(** Small but decision-rich: a multiplier loop (gating + break-even), a
    memory-bound loop (DVFS) and enough straight-line code for the
    classic passes to move. *)
let golden_src =
  "int a[32];\nint b[32];\n\
   int main() {\n\
  \  for (int i = 0; i < 32; i = i + 1) { a[i] = a[i] * 3; }\n\
  \  for (int j = 0; j < 32; j = j + 1) { b[j] = a[j] + b[j]; }\n\
  \  return a[31] + b[31];\n\
   }"

let golden_report () =
  let rep = Report.create () in
  let ctx = Compile.make_ctx ~report:rep () in
  let machine = Machine.generic ~n_cores:2 () in
  Report.with_scope "golden" (fun () ->
      ignore (Compile.run ~ctx ~opts:Compile.pg_dvfs ~machine golden_src));
  Report.to_string rep

let test_golden () =
  let got = golden_report () in
  match Sys.getenv_opt "LP_UPDATE_GOLDEN" with
  | Some path when path <> "" ->
    let oc = open_out path in
    output_string oc got;
    close_out oc;
    Alcotest.failf "golden rewritten to %s — rerun the test" path
  | _ ->
    (* cwd is _build/default/test under [dune runtest], the repo root
       under a bare [dune exec]. *)
    let file =
      if Sys.file_exists "golden_report.json" then "golden_report.json"
      else "test/golden_report.json"
    in
    let ic = open_in_bin file in
    let want = really_input_string ic (in_channel_length ic) in
    close_in ic;
    check Alcotest.string "report JSON byte-identical to golden" want got

(** The golden is also a valid document of the advertised schema with
    the acceptance-level content: at least one gating event, at least
    one DVFS decision and a full energy breakdown. *)
let test_golden_schema () =
  let j = Json.of_string (golden_report ()) in
  check Alcotest.(option string) "schema tag"
    (Some "lowpower-power-report/1")
    (Option.bind (Json.member "schema" j) Json.to_string_opt);
  let summary = Option.get (Json.member "summary" j) in
  let count k =
    match Option.bind (Json.member k summary) Json.to_float_opt with
    | Some f -> int_of_float f
    | None -> Alcotest.failf "summary.%s missing" k
  in
  check Alcotest.bool "at least one gating insert" true (count "gating_inserts" >= 1);
  check Alcotest.bool "at least one dvfs decision" true (count "dvfs_decisions" >= 1);
  check Alcotest.bool "at least one pass delta" true (count "pass_deltas" >= 1);
  check Alcotest.int "one simulation" 1 (count "simulations");
  let sim = List.hd (Json.to_list (Option.get (Json.member "simulations" j))) in
  let energy = Option.get (Json.member "energy" sim) in
  check Alcotest.bool "energy total present" true
    (Json.member "total_nj" energy <> None);
  check Alcotest.bool "per-category breakdown" true
    (Json.member "by_category" energy <> None);
  check Alcotest.bool "per-component breakdown" true
    (Json.member "by_component" energy <> None);
  check Alcotest.bool "per-core ledgers" true
    (Json.to_list (Option.get (Json.member "per_core_energy" sim)) <> [])

(* ---------------- gating events vs emitted IR ---------------- *)

(** Sink-N-Hoist off so each insertion event maps onto unmoved [pg_off]/
    [pg_on] instructions. *)
let pg_unmerged =
  { Compile.pg_only with
    Compile.power =
      { Compile.pg_only.Compile.power with Compile.sink_n_hoist = false } }

(** Union of the gated / woken component names in a function. *)
let gate_sets (f : Prog.func) =
  Prog.fold_instrs f
    (fun (off, on) _ i ->
      match i.Ir.idesc with
      | Ir.Pg_off s -> (CS.union off s, on)
      | Ir.Pg_on s -> (off, CS.union on s)
      | _ -> (off, on))
    (CS.empty, CS.empty)

(** Every [Gating_insert] event with a nonempty component list must be
    backed by matching instructions in the function it names. *)
let events_match_ir (prog : Prog.t) (rep : Report.t) : string option =
  List.find_map
    (fun (_scope, d) ->
      match d with
      | Report.Gating_insert
          { gi_func; gi_components; gi_kind; gi_landings; _ }
        when gi_components <> [] -> (
        match Prog.find_func prog gi_func with
        | None -> Some (Printf.sprintf "event names unknown func %s" gi_func)
        | Some f ->
          let (off, on) = gate_sets f in
          let missing set tag =
            List.find_map
              (fun name ->
                if List.exists
                     (fun c -> Component.to_string c = name)
                     (CS.elements set)
                then None
                else Some (Printf.sprintf "%s: %s not in any %s" gi_func name tag))
              gi_components
          in
          (match missing off "pg_off" with
          | Some _ as e -> e
          | None ->
            if gi_kind = Report.Loop_gate && gi_landings > 0 then
              missing on "pg_on"
            else None))
      | _ -> None)
    (Report.decisions rep)

let prop_gating_events_sound =
  QCheck.Test.make ~count:25 ~name:"gating events correspond to pg_off/pg_on"
    QCheck.(int_bound 500)
    (fun seed ->
      let g = Gen.generate ~seed in
      let rep = Report.create () in
      let ctx = Compile.make_ctx ~report:rep () in
      let machine = Machine.generic ~n_cores:4 () in
      match
        Compile.compile_result ~ctx ~opts:pg_unmerged ~machine g.Gen.source
      with
      | Error _ -> true (* degraded gracefully; nothing to audit *)
      | Ok c -> (
        match events_match_ir c.Compile.prog rep with
        | None -> true
        | Some why -> QCheck.Test.fail_reportf "seed %d: %s" seed why))

(** The property must not hold vacuously: a known-gateable program emits
    at least one event with components, and it checks out. *)
let test_gating_events_nonvacuous () =
  let rep = Report.create () in
  let ctx = Compile.make_ctx ~report:rep () in
  let machine = Machine.generic ~n_cores:2 () in
  let c = Compile.compile ~ctx ~opts:pg_unmerged ~machine golden_src in
  let with_comps =
    List.filter
      (fun (_, d) ->
        match d with
        | Report.Gating_insert { gi_components = _ :: _; _ } -> true
        | _ -> false)
      (Report.decisions rep)
  in
  check Alcotest.bool "at least one gating event with components" true
    (with_comps <> []);
  check Alcotest.(option string) "events backed by IR" None
    (events_match_ir c.Compile.prog rep)

(* ---------------- pool-size determinism ---------------- *)

(* two workloads under two configs on two machines: the report and
   the scope of every simulation record, which names its cell *)
let matrix_report jobs =
  Exp.clear_cache ();
  let rep = Report.create () in
  Exp.set_ctx (Compile.make_ctx ~report:rep ());
  Fun.protect
    ~finally:(fun () ->
      Exp.set_ctx Compile.default_ctx;
      Exp.clear_cache ())
    (fun () ->
      let workloads =
        List.filteri (fun i _ -> i < 2) Lp_workloads.Suite.all
      in
      let jobs_on machine =
        Exp.cross ~machine workloads
          [ ("baseline", Compile.baseline);
            ("full", Compile.full ~n_cores:(Machine.n_cores machine)) ]
      in
      let pool = DP.create ~jobs () in
      Fun.protect
        ~finally:(fun () -> DP.shutdown pool)
        (fun () ->
          Exp.run_matrix ~pool
            (jobs_on (Machine.generic ~n_cores:4 ())
            @ jobs_on (Machine.pac_duo_like ())));
      (Report.to_string rep, List.map fst (Report.sims rep)))

let test_report_deterministic () =
  let (seq, seq_scopes) = matrix_report 1 in
  let (par, par_scopes) = matrix_report 4 in
  check Alcotest.bool "report is nonempty" true (String.length seq > 2);
  check Alcotest.string "report identical for jobs=1 and jobs=4" seq par;
  List.iter
    (fun scopes ->
      check Alcotest.int "8 simulations" 8 (List.length scopes);
      check Alcotest.int "every simulation has its own scope" 8
        (List.length (List.sort_uniq compare scopes)))
    [ seq_scopes; par_scopes ]

(* ---------------- the baseline gate ---------------- *)

let cells () =
  [
    { Baseline.c_workload = "fir"; c_config = "full"; c_machine = "generic4";
      c_cycles = 1000.0; c_energy_nj = 50.0 };
    { Baseline.c_workload = "fir"; c_config = "baseline";
      c_machine = "generic4"; c_cycles = 4000.0; c_energy_nj = 90.0 };
  ]

let exps () =
  [ { Baseline.e_id = "t1"; e_cycles = 5000.0; e_energy_nj = 140.0;
      e_cells = 2 } ]

let base () = Baseline.make ~exps:(exps ()) ~cells:(cells ())

let test_baseline_identical_passes () =
  let v = Baseline.check (base ()) ~exps:(exps ()) ~cells:(cells ()) in
  check Alcotest.bool "passed" true (Baseline.passed v);
  check Alcotest.int "no regressions" 0 (List.length v.Baseline.regressions);
  check Alcotest.int "no improvements" 0 (List.length v.Baseline.improvements);
  check Alcotest.int "no notes" 0 (List.length v.Baseline.notes)

let bump_energy f = function
  | ({ Baseline.c_workload = "fir"; c_config = "full"; _ } as c) ->
    { c with Baseline.c_energy_nj = c.Baseline.c_energy_nj *. f }
  | c -> c

let test_baseline_regression_fails () =
  let cur = List.map (bump_energy 1.10) (cells ()) in
  let v = Baseline.check (base ()) ~exps:(exps ()) ~cells:cur in
  check Alcotest.bool "failed" false (Baseline.passed v);
  (match v.Baseline.regressions with
  | [ d ] ->
    check Alcotest.string "metric" "energy_nj" d.Baseline.d_metric;
    check Alcotest.bool "relative increase ~10%" true
      (abs_float (d.Baseline.d_rel -. 0.10) < 1e-9)
  | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "table names the gate" true
    (contains (Baseline.verdict_to_string v) "FAILED")

let test_baseline_improvement_passes () =
  let cur = List.map (bump_energy 0.90) (cells ()) in
  let v = Baseline.check (base ()) ~exps:(exps ()) ~cells:cur in
  check Alcotest.bool "passed" true (Baseline.passed v);
  check Alcotest.int "one improvement" 1 (List.length v.Baseline.improvements)

let test_baseline_coverage_notes () =
  (* One cell missing and the experiment set different: both are notes,
     not regressions, and experiment totals are not compared. *)
  let v =
    Baseline.check (base ())
      ~exps:[ { Baseline.e_id = "t2"; e_cycles = 1.0; e_energy_nj = 1.0;
                e_cells = 1 } ]
      ~cells:[ List.hd (cells ()) ]
  in
  check Alcotest.bool "passed" true (Baseline.passed v);
  check Alcotest.bool "notes mention coverage" true
    (List.length v.Baseline.notes >= 2)

let test_baseline_round_trip () =
  let b = base () in
  let path = Filename.temp_file "lp_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Baseline.write b ~path;
      match Baseline.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok b' ->
        check Alcotest.string "baseline JSON round-trips"
          (Json.to_string (Baseline.to_json b))
          (Json.to_string (Baseline.to_json b')));
  check Alcotest.bool "malformed file is an Error" true
    (match Baseline.load ~path:"/nonexistent/baseline.json" with
    | Error _ -> true
    | Ok _ -> false)

(* A failed artifact write raises and leaves no temp file behind: the
   target path here is an existing directory, so the final rename fails. *)
let test_failed_write_leaves_no_tmp () =
  let dir = Filename.temp_file "lp_artifact" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (dir ^ ".tmp") with Sys_error _ -> ());
      Sys.rmdir dir)
    (fun () ->
      let raises write =
        match write () with () -> false | exception Sys_error _ -> true
      in
      let rep = Report.create () in
      check Alcotest.bool "report write raises" true
        (raises (fun () -> Report.write rep ~path:dir));
      check Alcotest.bool "report leaves no .tmp" false
        (Sys.file_exists (dir ^ ".tmp"));
      check Alcotest.bool "baseline write raises" true
        (raises (fun () -> Baseline.write (base ()) ~path:dir));
      check Alcotest.bool "baseline leaves no .tmp" false
        (Sys.file_exists (dir ^ ".tmp")))

(* ---------------- the JSON codec ---------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("nums",
         Json.List
           [ Json.Num 0.0; Json.Num 3.0; Json.Num (-17.0); Json.Num 0.1;
             Json.Num 1e-9; Json.Num 123456.789 ]);
        ("text", Json.Str "quotes \" backslash \\ newline \n tab \t");
        ("nested", Json.Obj [ ("k", Json.Num 1.0) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  check Alcotest.bool "parse (print v) = v" true
    (Json.of_string (Json.to_string v) = v);
  check Alcotest.bool "garbage is None" true
    (Json.of_string_opt "{\"a\": }" = None);
  check Alcotest.bool "trailing junk is None" true
    (Json.of_string_opt "true false" = None);
  check Alcotest.(option string) "member lookup" (Some "x")
    (Option.bind
       (Json.member "k" (Json.of_string "{\"k\": \"x\"}"))
       Json.to_string_opt)

let suite =
  [
    Alcotest.test_case "disabled report is inert" `Quick test_disabled;
    Alcotest.test_case "golden report JSON" `Quick test_golden;
    Alcotest.test_case "golden report schema content" `Quick test_golden_schema;
    QCheck_alcotest.to_alcotest prop_gating_events_sound;
    Alcotest.test_case "gating property is not vacuous" `Quick
      test_gating_events_nonvacuous;
    Alcotest.test_case "report independent of pool size" `Quick
      test_report_deterministic;
    Alcotest.test_case "baseline: identical run passes" `Quick
      test_baseline_identical_passes;
    Alcotest.test_case "baseline: regression fails the gate" `Quick
      test_baseline_regression_fails;
    Alcotest.test_case "baseline: improvement passes" `Quick
      test_baseline_improvement_passes;
    Alcotest.test_case "baseline: coverage drift is a note" `Quick
      test_baseline_coverage_notes;
    Alcotest.test_case "baseline: write/load round-trip" `Quick
      test_baseline_round_trip;
    Alcotest.test_case "failed artifact write leaves no .tmp" `Quick
      test_failed_write_leaves_no_tmp;
    Alcotest.test_case "json codec round-trip" `Quick test_json_round_trip;
  ]
