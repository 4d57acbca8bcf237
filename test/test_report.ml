(** Power-decision audit report tests: the disabled report is inert, the
    committed golden (test/golden_report.json, which test/dune diffs
    against a fresh rendering) is a document of the advertised schema,
    every gating event corresponds to power-gating instructions in the
    emitted IR, the report collected over the evaluation matrix is
    independent of the pool size, a failed artifact write leaves no temp
    file, and the minimal JSON codec round-trips. *)

module Report = Lp_obs.Report
module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Component = Lp_power.Component
module CS = Component.Set
module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Exp = Lp_experiments.Exp_common
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

(* ---------------- the committed golden ---------------- *)

(** The golden is a valid document of the advertised schema with the
    acceptance-level content: at least one gating event, at least one
    DVFS decision and a full energy breakdown.  Dune runs the suite in
    _build/default/test, beside its copy of the golden. *)
let test_golden_schema () =
  let j =
    Json.of_string
      (In_channel.with_open_bin "golden_report.json" In_channel.input_all)
  in
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
  let c = Compile.compile ~ctx ~opts:pg_unmerged ~machine Golden.source in
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
      check Alcotest.bool "report write raises" true
        (match Report.write (Report.create ()) ~path:dir with
        | () -> false
        | exception Sys_error _ -> true);
      check Alcotest.bool "report leaves no .tmp" false
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
    Alcotest.test_case "golden report schema content" `Quick test_golden_schema;
    QCheck_alcotest.to_alcotest prop_gating_events_sound;
    Alcotest.test_case "gating property is not vacuous" `Quick
      test_gating_events_nonvacuous;
    Alcotest.test_case "report independent of pool size" `Quick
      test_report_deterministic;
    Alcotest.test_case "failed artifact write leaves no .tmp" `Quick
      test_failed_write_leaves_no_tmp;
    Alcotest.test_case "json codec round-trip" `Quick test_json_round_trip;
  ]
