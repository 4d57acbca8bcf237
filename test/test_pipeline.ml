(** The declarative pass pipeline and the analysis-cache escape hatch.

    Checks that the schedule-as-data layer is faithful: the default
    value prints stably ([lpcc pipeline]'s golden output), [parse] is
    the inverse of [to_string] on flat specs, running the explicit
    default schedule equals the driver's implicit one, and — the
    invariant everything rests on — compiling with the analysis cache
    disabled produces byte-identical IR while a cached compile actually
    hits the cache. *)

module Compile = Lowpower.Compile
module Pipeline = Lowpower.Pipeline
module Machine = Lp_machine.Machine
module Runtime_config = Lp_util.Runtime_config
module Obs = Lp_obs.Obs
module W = Lp_workloads.Workload

let check = Alcotest.check
let fail = Alcotest.fail

let machine = Machine.generic ~n_cores:4 ()

let workload name =
  match Lp_workloads.Suite.find name with
  | Some w -> w.W.source
  | None -> Alcotest.failf "bundled workload %s missing" name

(* ---------------- rendering and parsing ---------------- *)

let default_rendering =
  "run const-promote\n\
   fixpoint simplify-cfg constfold constprop dce\n\
   run unroll\n\
   fixpoint simplify-cfg constfold constprop dce\n\
   if mac-fusion {\n\
  \  run mac-fusion\n\
  \  fixpoint constfold dce\n\
   }\n\
   run strength-reduce\n\
   fixpoint licm constfold dce simplify-cfg\n"

let test_default_prints_stably () =
  check Alcotest.string "lpcc pipeline golden" default_rendering
    (Pipeline.to_string Pipeline.default)

let test_parse_round_trip () =
  match Pipeline.parse "constprop,fix(simplify-cfg,dce),strength-reduce" with
  | Error e -> fail (Lp_util.Diag.to_string e)
  | Ok t ->
    check Alcotest.string "round trip"
      "run constprop\nfixpoint simplify-cfg dce\nrun strength-reduce\n"
      (Pipeline.to_string t)

let test_parse_rejects_garbage () =
  List.iter
    (fun spec ->
      match Pipeline.parse spec with
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec
      | Error _ -> ())
    [ "no-such-pass"; "fix()"; "dce,fix(dce"; ""; "fix(no-such-pass)" ]

let test_parse_diagnostics () =
  (* every rejection is the stable E_PIPELINE_SPEC with the character
     position where the scan stopped and the expected token *)
  let expect spec ~pos ~expected =
    match Pipeline.parse spec with
    | Ok _ -> Alcotest.failf "spec %S must be rejected" spec
    | Error d ->
      check Alcotest.string (spec ^ ": code") Pipeline.code_spec
        d.Lp_util.Diag.code;
      let msg = d.Lp_util.Diag.message in
      let has needle =
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        go 0
      in
      if not (has (Printf.sprintf "at character %d" pos)) then
        Alcotest.failf "%S: message %S lacks position %d" spec msg pos;
      if not (has (Printf.sprintf "expected %s" expected)) then
        Alcotest.failf "%S: message %S lacks expected token %S" spec msg
          expected
  in
  expect "" ~pos:0 ~expected:"a pass name or 'fix(...)'";
  expect "dce,," ~pos:4 ~expected:"a pass name";
  expect "fix(" ~pos:4 ~expected:"a pass name";
  expect "fix()" ~pos:4 ~expected:"a pass name";
  expect "dce,fix(dce" ~pos:11 ~expected:"',' or ')'";
  expect "dce)" ~pos:3 ~expected:"',' or end of spec"

(* ---------------- schedule files ---------------- *)

let test_schedule_file_round_trip () =
  let path = Filename.temp_file "lp-pipeline-test" ".sched" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let spec = "constprop,fix(simplify-cfg,dce),strength-reduce" in
      let t =
        match Pipeline.parse spec with
        | Ok t -> t
        | Error e -> fail (Lp_util.Diag.to_string e)
      in
      Pipeline.save_file ~name:"trip" ~comment:"round trip" path t;
      (match Pipeline.load_file path with
      | Ok t' -> check Alcotest.string "load inverts save" spec (Pipeline.to_spec t')
      | Error d -> fail (Lp_util.Diag.to_string d));
      (* resolve_spec dispatches @FILE to load_file, else parses inline *)
      (match Pipeline.resolve_spec ("@" ^ path) with
      | Ok t' -> check Alcotest.string "@FILE resolves" spec (Pipeline.to_spec t')
      | Error d -> fail (Lp_util.Diag.to_string d));
      match Pipeline.resolve_spec spec with
      | Ok t' -> check Alcotest.string "inline resolves" spec (Pipeline.to_spec t')
      | Error d -> fail (Lp_util.Diag.to_string d))

let test_schedule_file_errors () =
  let expect_spec_error label r =
    match r with
    | Ok _ -> Alcotest.failf "%s: must fail" label
    | Error d ->
      check Alcotest.string (label ^ ": code") Pipeline.code_spec
        d.Lp_util.Diag.code
  in
  expect_spec_error "missing file"
    (Pipeline.load_file "/nonexistent/lp-schedule.sched");
  let path = Filename.temp_file "lp-pipeline-test" ".sched" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write "# only a comment\n";
      expect_spec_error "no spec line" (Pipeline.load_file path);
      write "dce\nconstfold\n";
      expect_spec_error "two spec lines" (Pipeline.load_file path);
      write "# header\nno-such-pass\n";
      expect_spec_error "bad spec in file" (Pipeline.load_file path))

let test_flatten_resolves_conditionals () =
  let flat = Pipeline.flatten ~mac_fusion:true Pipeline.default in
  check Alcotest.string "flattened default spec"
    "const-promote,fix(simplify-cfg,constfold,constprop,dce),unroll,fix(simplify-cfg,constfold,constprop,dce),mac-fusion,fix(constfold,dce),strength-reduce,fix(licm,constfold,dce,simplify-cfg)"
    (Pipeline.to_spec flat);
  let without = Pipeline.flatten ~mac_fusion:false Pipeline.default in
  check Alcotest.string "mac-fusion arm dropped"
    "const-promote,fix(simplify-cfg,constfold,constprop,dce),unroll,fix(simplify-cfg,constfold,constprop,dce),strength-reduce,fix(licm,constfold,dce,simplify-cfg)"
    (Pipeline.to_spec without)

let test_registry_covers_default () =
  (* every pass the default schedule runs is spellable in a --passes spec *)
  let rec names acc = function
    | [] -> acc
    | Pipeline.Run p :: rest -> names (p.Lp_transforms.Pass.name :: acc) rest
    | Pipeline.Fixpoint ps :: rest ->
      names (List.map (fun p -> p.Lp_transforms.Pass.name) ps @ acc) rest
    | Pipeline.If (_, sub) :: rest -> names (names acc sub) rest
  in
  List.iter
    (fun n ->
      if Pipeline.find_pass n = None then
        Alcotest.failf "default schedule uses unregistered pass %s" n)
    (names [] Pipeline.default)

(* ---------------- schedule and cache equivalences ---------------- *)

let ir_of ?ctx opts src =
  let compiled =
    match Compile.compile_result ?ctx ~opts ~machine src with
    | Ok c -> c
    | Error d -> Alcotest.failf "compile failed: %s" (Lp_util.Diag.to_string d)
  in
  Lp_ir.Printer.prog_to_string compiled.Compile.prog

let test_explicit_default_is_default () =
  let opts = Compile.full ~n_cores:4 in
  let src = workload "fir" in
  check Alcotest.string "explicit default == implicit"
    (ir_of opts src)
    (ir_of { opts with Compile.pipeline = Some Pipeline.default } src)

(** The printed IR and the audit report of one [full] compile for
    [machine], or its diagnostic.  The report records the estimate
    behind every gating and DVFS decision. *)
let compiled_text ~no_analysis_cache ~machine src =
  let report = Lp_obs.Report.create () in
  let ctx =
    Compile.make_ctx ~report
      ~config:{ Runtime_config.default with Runtime_config.no_analysis_cache }
      ()
  in
  let opts = Compile.full ~n_cores:(Machine.n_cores machine) in
  let ir =
    match Compile.compile_result ~ctx ~opts ~machine src with
    | Ok c -> Lp_ir.Printer.prog_to_string c.Compile.prog
    | Error d -> Lp_util.Diag.to_string d
  in
  ir ^ Lp_obs.Report.to_string report

(* the uncached manager is the reference every cached analysis of the
   passes and power transforms is checked against, on every machine *)
let test_cache_off_is_byte_identical () =
  List.iter
    (fun (mname, _, make) ->
      let machine = make ?cores:None () in
      List.iter
        (fun (w : W.t) ->
          check Alcotest.string
            (Printf.sprintf "%s on %s: cache on == off" w.W.name mname)
            (compiled_text ~no_analysis_cache:false ~machine w.W.source)
            (compiled_text ~no_analysis_cache:true ~machine w.W.source))
        Lp_workloads.Suite.all)
    Machine.registry

let test_cache_hits_observed () =
  let obs = Obs.create () in
  let ctx = Compile.make_ctx ~obs () in
  ignore (ir_of ~ctx (Compile.full ~n_cores:4) (workload "fir"));
  let counter n = Option.value ~default:0 (List.assoc_opt n (Obs.counters obs)) in
  if counter "analysis.cache_hits" = 0 then fail "no analysis cache hits";
  if counter "analysis.cache_misses" = 0 then fail "no analysis cache misses";
  if counter "analysis.invalidations" = 0 then fail "no invalidations recorded"

let test_no_cache_ctx_never_hits () =
  let obs = Obs.create () in
  let ctx =
    Compile.make_ctx ~obs
      ~config:{ Runtime_config.default with Runtime_config.no_analysis_cache = true }
      ()
  in
  ignore (ir_of ~ctx (Compile.full ~n_cores:4) (workload "fir"));
  check Alcotest.int "cache disabled: zero hits" 0
    (Option.value ~default:0
       (List.assoc_opt "analysis.cache_hits" (Obs.counters obs)))

let test_custom_pipeline_runs () =
  (* a cut-down schedule still compiles and simulates correctly *)
  let spec = "const-promote,fix(simplify-cfg,constfold,constprop,dce)" in
  let pipeline =
    match Pipeline.parse spec with
    | Ok t -> t
    | Error e -> fail (Lp_util.Diag.to_string e)
  in
  let opts =
    Compile.Options.update ~pipeline (Compile.full ~n_cores:4)
  in
  let (_, o) = Compile.run ~opts ~machine (workload "fir") in
  let (_, o_def) =
    Compile.run ~opts:(Compile.full ~n_cores:4) ~machine (workload "fir")
  in
  match (o.Lp_sim.Sim.ret, o_def.Lp_sim.Sim.ret) with
  | (Some a, Some b) ->
    if not (Lp_sim.Value.equal a b) then
      fail "cut-down schedule changed the program's result"
  | _ -> fail "simulation returned no value"

(* ---------------- compiled-IR golden ---------------- *)

(** One digest of the printed IR per bundled program under baseline,
    pg_dvfs and full on generic-4c.  Every change to what the compiler
    emits shows here, including changes that move no simulated metric;
    optimizer speed-ups must leave it untouched.  Regenerate after a
    deliberate pipeline change with
    [LP_UPDATE_GOLDEN=$PWD/test/golden_ir.txt dune test] (fails once
    while rewriting the file, green on the rerun). *)
let golden_ir () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (config, opts) ->
          let digest =
            match Compile.compile ~opts ~machine w.W.source with
            | c ->
              Digest.to_hex
                (Digest.string (Lp_ir.Printer.prog_to_string c.Compile.prog))
            | exception Compile.Compile_error msg -> "error: " ^ msg
          in
          Printf.bprintf buf "%s/%s %s\n" w.W.name config digest)
        [ ("baseline", Compile.baseline); ("pg_dvfs", Compile.pg_dvfs);
          ("full", Compile.full ~n_cores:4) ])
    Lp_workloads.Suite.all;
  Buffer.contents buf

let test_golden_ir () =
  let got = golden_ir () in
  match Sys.getenv_opt "LP_UPDATE_GOLDEN" with
  | Some path when path <> "" ->
    Out_channel.with_open_bin path (fun oc -> output_string oc got);
    Alcotest.failf "golden rewritten to %s — rerun the test" path
  | _ ->
    (* cwd is _build/default/test under [dune runtest], the repo root
       under a bare [dune exec]. *)
    let file =
      if Sys.file_exists "golden_ir.txt" then "golden_ir.txt"
      else "test/golden_ir.txt"
    in
    check Alcotest.string "printed IR digests match golden"
      (In_channel.with_open_bin file In_channel.input_all)
      got

let suite =
  [
    Alcotest.test_case "default prints stably" `Quick test_default_prints_stably;
    Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
    Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
    Alcotest.test_case "parse diagnostics carry position and expectation"
      `Quick test_parse_diagnostics;
    Alcotest.test_case "schedule files round-trip" `Quick
      test_schedule_file_round_trip;
    Alcotest.test_case "schedule file failures are E_PIPELINE_SPEC" `Quick
      test_schedule_file_errors;
    Alcotest.test_case "flatten resolves conditionals" `Quick
      test_flatten_resolves_conditionals;
    Alcotest.test_case "registry covers default" `Quick test_registry_covers_default;
    Alcotest.test_case "explicit default == implicit" `Quick
      test_explicit_default_is_default;
    Alcotest.test_case "cache off byte-identical" `Quick
      test_cache_off_is_byte_identical;
    Alcotest.test_case "cache hits observed" `Quick test_cache_hits_observed;
    Alcotest.test_case "no-cache ctx never hits" `Quick
      test_no_cache_ctx_never_hits;
    Alcotest.test_case "custom --passes schedule runs" `Quick
      test_custom_pipeline_runs;
    Alcotest.test_case "compiled IR matches golden" `Quick test_golden_ir;
  ]
