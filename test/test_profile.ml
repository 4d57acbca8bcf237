(** The source-level energy profiler: attribution conserves the ledger's
    energy over generated programs, the profile is byte-identical
    between the compiled and interpretive steppers and across
    pool sizes, and profiling is a pure observer (every outcome field
    the baseline gates read is byte-identical with it on or off).  The
    JSON artifact of one decision-rich workload is pinned by
    test/golden_profile.json (see golden.ml). *)

module Compile = Lowpower.Compile
module PR = Lowpower.Profile_report
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Profile = Lp_sim.Profile
module Ledger = Lp_power.Energy_ledger
module Json = Lp_util.Json
module Runtime_config = Lp_util.Runtime_config
module Gen = Lp_robust.Gen

let check = Alcotest.check

let machine4 () = Machine.generic ~n_cores:4 ()

let prof_opts = { Sim.default_options with Sim.profile = true }

let run_profiled ?(ctx = Compile.default_ctx) ?(opts = Compile.full ~n_cores:4)
    ?(sim_opts = prof_opts) src =
  match Compile.run_result ~ctx ~opts ~sim_opts ~machine:(machine4 ()) src with
  | Ok r -> r
  | Error d -> Alcotest.failf "pipeline: %s" (Lp_util.Diag.to_string d)

let profile_json src =
  let (_, o) = run_profiled src in
  Json.to_string (PR.to_json ~source:"test" ~machine:"generic-4c" o)

(* ---------------- conservation (qcheck over generated programs) ----- *)

(** Exact float equality between the profile's total and the ledger's is
    impossible by construction — partitioned per-slot sums and the
    chronological ledger sum round differently — so conservation is
    checked to a tight relative tolerance instead. *)
let prop_conservation =
  QCheck.Test.make ~count:30
    ~name:"profile attributes every ledger nanojoule (1e-9 relative)"
    (QCheck.make (QCheck.Gen.int_bound 10_000))
    (fun seed ->
      let g = Gen.generate ~seed in
      let (_, o) = run_profiled g.Gen.source in
      match o.Sim.profile with
      | None -> false
      | Some p ->
        let attributed = Profile.total p in
        let total = Ledger.total o.Sim.energy in
        let scale = Float.max 1.0 (Float.abs total) in
        Float.abs (attributed -. total) <= 1e-9 *. scale)

(* ---------------- cross-mode byte-equality ---------------- *)

(** The compiled stepper bakes slots into closures eagerly; the
    interpretive stepper creates them lazily.  Zero-row filtering plus
    fixed merge order must make the rendered artifacts byte-equal. *)
let test_modes_byte_equal () =
  List.iter
    (fun wname ->
      let w = Lp_workloads.Suite.find_exn wname in
      let src = w.Lp_workloads.Workload.source in
      let interp_cfg =
        Runtime_config.resolve ~no_sim_predecode:true Runtime_config.default
      in
      let interp_ctx = Compile.make_ctx ~config:interp_cfg () in
      let (_, oc) = run_profiled src in
      let (_, oi) = run_profiled ~ctx:interp_ctx src in
      check Alcotest.string
        (wname ^ ": compiled and interpretive profiles byte-equal")
        (Json.to_string (PR.to_json ~source:wname ~machine:"m" oc))
        (Json.to_string (PR.to_json ~source:wname ~machine:"m" oi)))
    [ "fir"; "matmul" ]

(** The profile is a function of the simulated program only: pool size
    (compile-side parallelism knob) must not move a byte. *)
let test_jobs_byte_equal () =
  let src = (Lp_workloads.Suite.find_exn "fir").Lp_workloads.Workload.source in
  let with_jobs jobs =
    let cfg = Runtime_config.resolve ~jobs Runtime_config.default in
    Lp_util.Domain_pool.set_default_jobs jobs;
    let ctx = Compile.make_ctx ~config:cfg () in
    let (_, o) = run_profiled ~ctx src in
    Json.to_string (PR.to_json ~source:"fir" ~machine:"m" o)
  in
  let a = with_jobs 1 in
  let b = with_jobs 4 in
  Lp_util.Domain_pool.set_default_jobs 1;
  check Alcotest.string "profiles byte-equal for jobs=1 and jobs=4" a b

(* ---------------- pure observer ---------------- *)

(** Profiling on must not change anything the baseline gates read:
    cycles, duration, the merged ledger (rendered to JSON, so every
    category and component float is compared byte-for-byte), instruction
    and transition counts. *)
let test_pure_observer () =
  List.iter
    (fun wname ->
      let w = Lp_workloads.Suite.find_exn wname in
      let src = w.Lp_workloads.Workload.source in
      let (_, off) =
        run_profiled ~sim_opts:Sim.default_options src
      in
      let (_, on) = run_profiled src in
      check Alcotest.bool (wname ^ ": off-run has no profile") true
        (off.Sim.profile = None);
      check Alcotest.bool (wname ^ ": on-run has a profile") true
        (on.Sim.profile <> None);
      let fingerprint (o : Sim.outcome) =
        Json.to_string
          (Json.Obj
             [
               ("duration_ns", Json.Num o.Sim.duration_ns);
               ("energy", Ledger.to_json o.Sim.energy);
               ("instr_total", Json.Num (float_of_int o.Sim.instr_total));
               ("steps", Json.Num (float_of_int o.Sim.steps));
               ( "gate_transitions",
                 Json.Num (float_of_int o.Sim.gate_transitions) );
               ( "dvfs_transitions",
                 Json.Num (float_of_int o.Sim.dvfs_transitions) );
               ("channel_msgs", Json.Num (float_of_int o.Sim.channel_msgs));
               ( "cycles_per_core",
                 Json.List
                   (Array.to_list
                      (Array.map
                         (fun c -> Json.Num (float_of_int c))
                         o.Sim.cycles_per_core)) );
               ( "bus_wait_ns_per_core",
                 Json.List
                   (Array.to_list
                      (Array.map (fun f -> Json.Num f) o.Sim.bus_wait_ns_per_core)) );
             ])
      in
      check Alcotest.string
        (wname ^ ": outcome byte-identical with profiling on")
        (fingerprint off) (fingerprint on))
    [ "fir"; "matmul"; "prodcons" ]

(* ---------------- per-slot sanity on a tiny program ---------------- *)

let test_slot_contents () =
  let src =
    "int a[16];\n\
     int main() {\n\
    \  for (int i = 0; i < 16; i = i + 1) { a[i] = a[i] * 3; }\n\
    \  return a[15];\n\
     }"
  in
  let (_, o) = run_profiled ~opts:Compile.baseline src in
  let p = Option.get o.Sim.profile in
  (* rows are sorted by (func, line) and all-zero rows are dropped *)
  let keys =
    Array.to_list
      (Array.map (fun s -> (s.Profile.sl_func, s.Profile.sl_line)) p)
  in
  check Alcotest.bool "rows sorted" true (List.sort compare keys = keys);
  Array.iter
    (fun s ->
      check Alcotest.bool "no all-zero rows" false (Profile.is_zero s))
    p;
  (* the loop body lives on line 3: no other row may out-spend it (the
     unused cores' idle leakage is not a "row" beating it, it's its own
     synthetic one, and even that loses to 16 multiplies only on paper —
     compare rows, not the machine total) *)
  let row_nj fn line =
    Array.fold_left
      (fun acc s ->
        if s.Profile.sl_func = fn && s.Profile.sl_line = line then
          acc +. Profile.slot_total s
        else acc)
      0.0 p
  in
  let loop_nj = row_nj "main" 3 in
  check Alcotest.bool "loop line attributed" true (loop_nj > 0.0);
  Array.iter
    (fun s ->
      if s.Profile.sl_func = "main" then
        check Alcotest.bool "loop line is main's hottest" true
          (Profile.slot_total s <= loop_nj))
    p;
  (* cycle/instr counters land with the energy *)
  Array.iter
    (fun s ->
      if s.Profile.sl_instrs > 0 then
        check Alcotest.bool "instrs imply cycles" true (s.Profile.sl_cycles > 0))
    p

(* ---------------- report surfaces ---------------- *)

let test_text_and_flame () =
  let (c, o) = run_profiled (Lp_workloads.Suite.find_exn "fir").Lp_workloads.Workload.source in
  let text = PR.to_text ~prog:c.Compile.prog o in
  check Alcotest.bool "text mentions the total" true
    (String.length text > 0
    && String.sub text 0 14 = "Energy profile");
  let flame = PR.to_flamegraph o in
  check Alcotest.bool "flame has stacks" true
    (String.length flame > 0 && String.contains flame ';')

let test_diff () =
  let j1 = Json.of_string (profile_json
    "int a[8];\nint main() { for (int i = 0; i < 8; i = i + 1) { a[i] = i; } return a[7]; }") in
  let j2 = Json.of_string (profile_json
    "int a[8];\nint main() { for (int i = 0; i < 8; i = i + 1) { a[i] = i * i; } return a[7]; }") in
  (match PR.diff ~label_a:"a" ~label_b:"b" j1 j2 with
  | Ok text ->
    check Alcotest.bool "diff reports a delta" true
      (String.length text > 0)
  | Error e -> Alcotest.failf "diff: %s" e);
  match PR.diff ~label_a:"x" ~label_b:"y" (Json.Obj []) j2 with
  | Ok _ -> Alcotest.fail "diff must reject a non-artifact"
  | Error _ -> ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "compiled and interpretive profiles byte-equal" `Quick
      test_modes_byte_equal;
    Alcotest.test_case "profile independent of pool size" `Quick
      test_jobs_byte_equal;
    Alcotest.test_case "profiling is a pure observer" `Quick
      test_pure_observer;
    Alcotest.test_case "slot contents: sorted, non-zero, loop dominates"
      `Quick test_slot_contents;
    Alcotest.test_case "text report and flamegraph render" `Quick
      test_text_and_flame;
    Alcotest.test_case "diff of two artifacts" `Quick test_diff;
  ]
