(** Robustness layer: structured diagnostics, deterministic fault
    injection with graceful per-cell degradation and retry, and the
    pipeline fuzzer. *)

module Compile = Lowpower.Compile
module Diag = Lp_util.Diag
module Fault = Lp_util.Fault
module Exp = Lp_experiments.Exp_common
module Machine = Lp_machine.Machine
module Gen = Lp_robust.Gen
module Fuzz = Lp_robust.Fuzz

let machine () = Machine.generic ~n_cores:4 ()
let fir () = Lp_workloads.Suite.find_exn "fir"

(** Every fault/cache-touching test restores pristine global state. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Exp.clear_cache ())
    (fun () ->
      Fault.clear ();
      Exp.clear_cache ();
      f ())

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

(** Every legacy pipeline exception maps onto its stable code. *)
let test_diag_round_trip () =
  let pos = { Lp_lang.Ast.line = 2; col = 5 } in
  let cases =
    [
      (Lp_lang.Lexer.Lex_error ("bad char", 3), "E_LEX", Some 3);
      (Lp_lang.Parser.Parse_error ("expected )", 7), "E_PARSE", Some 7);
      (Lp_lang.Typecheck.Type_error ("int vs float", pos), "E_TYPE", Some 2);
      (Lp_transforms.Parallelize.Par_error "bad split", "E_PAR", None);
      (Lp_ir.Lower.Lower_error "no such var", "E_LOWER", None);
      (Lp_ir.Verify.Invalid "undefined register", "E_VERIFY", None);
      (Compile.Compile_error "driver says no", "E_COMPILE", None);
      (Lp_sim.Sim.Deadlock "all cores blocked", "E_DEADLOCK", None);
      (Lp_sim.Sim.Step_limit_exceeded, "E_STEP_LIMIT", None);
      (Lp_sim.Value.Runtime_error "division by zero", "E_RUNTIME", None);
    ]
  in
  List.iter
    (fun (e, code, line) ->
      match Compile.diag_of_exn e with
      | None -> Alcotest.failf "%s: no diagnostic" code
      | Some d ->
        Alcotest.(check string) (code ^ ": code") code d.Diag.code;
        Alcotest.(check (option int)) (code ^ ": line") line d.Diag.line)
    cases;
  (* Diag.Error passes through unchanged *)
  let d0 = Diag.make Diag.Fault ~code:"E_FAULT_PASS" ~transient:true "boom" in
  (match Compile.diag_of_exn (Diag.Error d0) with
  | Some d -> Alcotest.(check string) "passthrough" "E_FAULT_PASS" d.Diag.code
  | None -> Alcotest.fail "Diag.Error must map to itself");
  (* foreign exceptions are not diagnostics *)
  Alcotest.(check bool) "foreign exception" true
    (Compile.diag_of_exn Not_found = None)

(** [compile_result]/[run_result] degrade front-end failures to the
    specific code instead of raising. *)
let test_result_entry_points () =
  let machine = machine () in
  (match Compile.compile_result ~machine "int main( {" with
  | Error d -> Alcotest.(check string) "parse error code" "E_PARSE" d.Diag.code
  | Ok _ -> Alcotest.fail "garbage must not compile");
  (match Compile.compile_result ~machine "int main() { return 1.5; }" with
  | Error d -> Alcotest.(check string) "type error code" "E_TYPE" d.Diag.code
  | Ok _ -> Alcotest.fail "ill-typed program must not compile");
  match Compile.run_result ~machine "int main() { return 42; }" with
  | Ok (_, o) ->
    Alcotest.(check string) "runs" "42"
      (match o.Lp_sim.Sim.ret with
      | Some v -> Lp_sim.Value.to_string v
      | None -> "(none)")
  | Error d -> Alcotest.failf "trivial program failed: %s" (Diag.to_string d)

(** [to_string] is the single rendering every front end prints. *)
let test_diag_to_string () =
  let d = Diag.make ~line:4 Diag.Parse ~code:"E_PARSE" "expected )" in
  Alcotest.(check string) "rendering"
    "parse error [E_PARSE] (line 4): expected )" (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* Fault injection + graceful degradation                              *)
(* ------------------------------------------------------------------ *)

let test_fault_spec_grammar () =
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "spec %S rejected: %s" spec e)
    [ ""; "post-pass"; "seed=7,post-pass@fir*2"; "sim-bus%50";
      "pre-simulate@matmul*1,worker" ];
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "spec %S must be rejected" spec)
    [ "no-such-point"; "seed=x"; "post-pass*zero"; "sim-bus%101" ];
  Fault.clear ();
  Alcotest.(check bool) "cleared" false (Fault.active ())

(** A persistent injected pass fault degrades the cell to an
    [ERR(E_FAULT_PASS)] diagnostic instead of aborting the matrix, and
    other workloads are untouched. *)
let test_matrix_degrades_not_aborts () =
  (match Fault.configure "post-pass@fir" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let ws =
    [ fir (); Lp_workloads.Suite.find_exn "dotprod" ]
  in
  (* must not raise, whatever the faults *)
  Exp.run_matrix (Exp.cross ws [ ("baseline", Compile.baseline) ]);
  (match Exp.run_workload_result (fir ()) ~config:"baseline" Compile.baseline with
  | Error d ->
    Alcotest.(check string) "fir code" "E_FAULT_PASS" d.Diag.code;
    Alcotest.(check string) "ERR cell rendering" "ERR(E_FAULT_PASS)"
      (Exp.scell (Error d) (fun _ -> "unreachable"))
  | Ok _ -> Alcotest.fail "fir must fault");
  (match
     Exp.run_workload_result
       (Lp_workloads.Suite.find_exn "dotprod")
       ~config:"baseline" Compile.baseline
   with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "dotprod must be untouched: %s" (Diag.to_string d));
  match Exp.failed_cells () with
  | [ ((w, c, _), attempts, d) ] ->
    Alcotest.(check string) "failed workload" "fir" w;
    Alcotest.(check string) "failed config" "baseline" c;
    Alcotest.(check string) "failed code" "E_FAULT_PASS" d.Diag.code;
    (* persistent faults are not transient: no retry *)
    Alcotest.(check int) "attempts" 1 attempts
  | l -> Alcotest.failf "expected exactly one failed cell, got %d" (List.length l)

(** A bounded (transient) fault is retried deterministically and the
    cell recovers. *)
let test_retry_recovers_transient () =
  (match Fault.configure "pre-simulate@fir*2" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let cell =
    Exp.run_workload_cell (fir ()) ~config:"baseline" Compile.baseline
  in
  (match cell.Exp.result with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "cell must recover: %s" (Diag.to_string d));
  (* two injected transient faults, then success: three attempts *)
  Alcotest.(check int) "attempts" 3 cell.Exp.attempts;
  Alcotest.(check int) "no failed cells left" 0
    (List.length (Exp.failed_cells ()))

(** The transient flag itself: a bounded fault is transient, an
    unbounded one is not. *)
let test_transient_flag () =
  (match Fault.configure "worker@fir*1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Fault.with_scope "fir" (fun () ->
         match Fault.check Fault.Worker ~key:"baseline" with
         | () -> None
         | exception Diag.Error d -> Some d)
   with
  | Some d ->
    Alcotest.(check bool) "bounded fault is transient" true d.Diag.transient;
    Alcotest.(check string) "code" "E_FAULT_WORKER" d.Diag.code
  | None -> Alcotest.fail "worker fault must fire");
  Fault.clear ();
  match Fault.configure "worker@fir" with
  | Error e -> Alcotest.fail e
  | Ok () -> (
    match
      Fault.with_scope "fir" (fun () ->
          match Fault.check Fault.Worker ~key:"baseline" with
          | () -> None
          | exception Diag.Error d -> Some d)
    with
    | Some d ->
      Alcotest.(check bool) "persistent fault is not transient" false
        d.Diag.transient
    | None -> Alcotest.fail "worker fault must fire")

(* ------------------------------------------------------------------ *)
(* Hardened JSON parsing                                               *)
(* ------------------------------------------------------------------ *)

module Json = Lp_util.Json
module Rng = Lp_util.Rng

(** Adversarial inputs fail with [Parse_error] — never [Stack_overflow],
    never out-of-memory from a hostile length, never a foreign
    exception. *)
let test_json_adversarial () =
  let expect_parse_error label s =
    match Json.of_string s with
    | _ -> Alcotest.failf "%s: must be rejected" label
    | exception Json.Parse_error _ -> ()
    | exception e ->
      Alcotest.failf "%s: non-Parse_error escaped: %s" label
        (Printexc.to_string e)
  in
  (* 20k nesting levels would overflow the stack in a naive recursive
     parser; the depth bound turns it into a structured failure *)
  expect_parse_error "deep arrays" (String.make 20_000 '[');
  expect_parse_error "deep objects"
    (String.concat "" (List.init 20_000 (fun _ -> {|{"a":|})));
  (* the bound is exact: depth 4 parses at max_depth 4, depth 5 fails *)
  (match Json.of_string ~max_depth:4 "[[[[]]]]" with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "depth-4 nesting must parse at max_depth 4");
  (match Json.of_string ~max_depth:4 "[[[[[]]]]]" with
  | _ -> Alcotest.fail "depth-5 nesting must be rejected at max_depth 4"
  | exception Json.Parse_error _ -> ());
  (* decoded-string length bound, exact as well *)
  (match Json.of_string ~max_string:8 {|"12345678"|} with
  | Json.Str s -> Alcotest.(check string) "at the bound" "12345678" s
  | _ -> Alcotest.fail "string at the bound must parse");
  (match Json.of_string ~max_string:8 {|"123456789"|} with
  | _ -> Alcotest.fail "string past the bound must be rejected"
  | exception Json.Parse_error _ -> ());
  List.iter
    (fun (label, s) -> expect_parse_error label s)
    [
      ("truncated escape", {|"ab\u00|});
      ("bad escape", {|"ab\q"|});
      ("bare escape at end", "\"ab\\");
      ("unterminated string", {|"abc|});
      ("unterminated object", {|{"a":1|});
      ("trailing garbage", "1 x");
      ("lone minus", "-");
      ("huge number token", String.make 5_000 '1' ^ "e");
      ("empty input", "");
      ("nul byte in literal", "tru\x00");
    ];
  Alcotest.(check bool) "of_string_opt degrades to None" true
    (Json.of_string_opt (String.make 20_000 '[') = None)

(** Seeded fuzz: mutate bytes of a valid request frame; the parser must
    either succeed or raise [Parse_error] — nothing else, for every
    seed. *)
let test_json_fuzz_mutated_frames () =
  let base =
    Json.to_compact_string
      (Json.Obj
         [
           ("id", Json.Num 41.0);
           ("op", Json.Str "run");
           ("source", Json.Str "int main() { return 7 * 6; }\n// \xc3\xa9");
           ("machine", Json.Str "pacduo");
           ("cores", Json.Num 2.0);
           ("config", Json.Str "pg+dvfs");
           ("deadline_ms", Json.Num 50.0);
           ("nested", Json.List [ Json.Obj [ ("k", Json.Null) ]; Json.Bool true ]);
         ])
  in
  let parsed = ref 0 and rejected = ref 0 in
  for seed = 0 to 499 do
    let rng = Rng.create ~seed in
    let b = Bytes.of_string base in
    for _ = 1 to 1 + Rng.int rng 4 do
      let pos = Rng.int rng (Bytes.length b) in
      Bytes.set b pos (Char.chr (Rng.int rng 256))
    done;
    let s = Bytes.to_string b in
    match Json.of_string s with
    | _ -> incr parsed
    | exception Json.Parse_error _ -> incr rejected
    | exception e ->
      Alcotest.failf "seed %d: non-Parse_error escaped on %S: %s" seed s
        (Printexc.to_string e)
  done;
  (* the corpus must actually exercise both outcomes *)
  Alcotest.(check bool) "some mutants rejected" true (!rejected > 0);
  Alcotest.(check bool) "some mutants survived" true (!parsed > 0)

(* ------------------------------------------------------------------ *)
(* Retry backoff                                                       *)
(* ------------------------------------------------------------------ *)

(** The shared backoff schedule: deterministic, geometric from 4 ms,
    hard-capped at 50 ms, clamped below attempt 1 — and [Exp_common]
    re-exports exactly it. *)
let test_backoff_schedule () =
  let feq label want got =
    Alcotest.(check (float 1e-12)) label want got
  in
  feq "attempt 1" 0.004 (Lp_util.Backoff.backoff_s 1);
  feq "attempt 2" 0.008 (Lp_util.Backoff.backoff_s 2);
  feq "attempt 3" 0.016 (Lp_util.Backoff.backoff_s 3);
  feq "attempt 4" 0.032 (Lp_util.Backoff.backoff_s 4);
  feq "attempt 5 capped" Lp_util.Backoff.cap_s (Lp_util.Backoff.backoff_s 5);
  feq "attempt 40 stays capped" Lp_util.Backoff.cap_s
    (Lp_util.Backoff.backoff_s 40);
  feq "attempt 0 clamps to first" 0.004 (Lp_util.Backoff.backoff_s 0);
  feq "negative clamps to first" 0.004 (Lp_util.Backoff.backoff_s (-3));
  for a = 1 to 39 do
    Alcotest.(check bool) "monotone non-decreasing" true
      (Lp_util.Backoff.backoff_s a <= Lp_util.Backoff.backoff_s (a + 1));
    feq "deterministic" (Lp_util.Backoff.backoff_s a)
      (Lp_util.Backoff.backoff_s a)
  done;
  feq "Exp_common re-export" (Lp_util.Backoff.backoff_s 3) (Exp.backoff_s 3)

(** A probabilistic ([%pct]) fault is transient, so the matrix retries
    it — and when every attempt faults, the cell lands as a structured
    [ERR(E_FAULT_WORKER)] after exactly [retries + 1] attempts. *)
let test_pct_retry_exhaustion () =
  (match Fault.configure "seed=5,worker@fir%99" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let retries = 1 in
  let config = { Lp_util.Runtime_config.default with retries } in
  Exp.set_ctx (Compile.make_ctx ~config ());
  Fun.protect ~finally:(fun () -> Exp.set_ctx Compile.default_ctx)
  @@ fun () ->
  Alcotest.(check int) "ctx retries picked up" retries (Exp.max_retries ());
  let cell = Exp.run_workload_cell (fir ()) ~config:"baseline" Compile.baseline in
  match cell.Exp.result with
  | Ok _ -> Alcotest.fail "a 99%-faulted cell must exhaust its retries"
  | Error d ->
    Alcotest.(check string) "code" "E_FAULT_WORKER" d.Diag.code;
    Alcotest.(check bool) "pct faults are transient" true d.Diag.transient;
    Alcotest.(check int) "attempts = retries + 1" (retries + 1)
      cell.Exp.attempts;
    Alcotest.(check string) "cell renders as ERR" "ERR(E_FAULT_WORKER)"
      (Exp.scell (Error d) (fun _ -> "unreachable"))

(** A one-shot compile with an already-expired deadline degrades to the
    stable [E_DEADLINE] diagnostic instead of raising. *)
let test_oneshot_deadline () =
  let ctx = Compile.make_ctx ~deadline:(Lp_util.Deadline.after_ms 0) () in
  match Compile.run_result ~ctx ~machine:(machine ()) "int main() { return 1; }" with
  | Ok _ -> Alcotest.fail "expired deadline must not succeed"
  | Error d ->
    Alcotest.(check string) "code" "E_DEADLINE" d.Diag.code;
    Alcotest.(check string) "stage" "driver"
      (Lp_util.Diag.stage_name d.Diag.stage)

(* ------------------------------------------------------------------ *)
(* Fuzzer                                                              *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let a = Gen.generate ~seed:11 and b = Gen.generate ~seed:11 in
  Alcotest.(check string) "same seed, same program" a.Gen.source b.Gen.source;
  let c = Gen.generate ~seed:12 in
  Alcotest.(check bool) "different seed, different program" true
    (a.Gen.source <> c.Gen.source)

(** 200-seed smoke run: no raw exception escapes, no verification
    failure after any pass, baseline and full always agree. *)
let test_fuzz_smoke () =
  let corpus =
    Filename.concat (Filename.get_temp_dir_name ()) "lp-fuzz-test-corpus"
  in
  let s =
    Fuzz.run_range ~machine:(machine ()) ~corpus_dir:corpus ~seed_start:0
      ~seeds:200 ()
  in
  (match s.Fuzz.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed %d: %s — %s" f.Fuzz.f_seed f.Fuzz.f_kind
      f.Fuzz.f_detail);
  Alcotest.(check int) "all seeds accounted for" s.Fuzz.tested
    (s.Fuzz.passed + s.Fuzz.degraded)

let suite =
  [
    Alcotest.test_case "diag round-trip of legacy exceptions" `Quick
      test_diag_round_trip;
    Alcotest.test_case "result entry points degrade gracefully" `Quick
      test_result_entry_points;
    Alcotest.test_case "diag rendering" `Quick test_diag_to_string;
    Alcotest.test_case "fault spec grammar" `Quick
      (isolated test_fault_spec_grammar);
    Alcotest.test_case "matrix degrades per cell, never aborts" `Quick
      (isolated test_matrix_degrades_not_aborts);
    Alcotest.test_case "retry recovers a transient fault" `Quick
      (isolated test_retry_recovers_transient);
    Alcotest.test_case "transient flag tracks fault boundedness" `Quick
      (isolated test_transient_flag);
    Alcotest.test_case "json: adversarial input fails structurally" `Quick
      test_json_adversarial;
    Alcotest.test_case "json: 500-seed mutation fuzz" `Quick
      test_json_fuzz_mutated_frames;
    Alcotest.test_case "backoff schedule is deterministic and capped" `Quick
      test_backoff_schedule;
    Alcotest.test_case "pct fault exhausts retries into ERR cell" `Quick
      (isolated test_pct_retry_exhaustion);
    Alcotest.test_case "one-shot expired deadline degrades to E_DEADLINE"
      `Quick test_oneshot_deadline;
    Alcotest.test_case "generator is seed-deterministic" `Quick
      test_gen_deterministic;
    Alcotest.test_case "fuzz smoke: 200 seeds, zero findings" `Slow
      (isolated test_fuzz_smoke);
  ]
