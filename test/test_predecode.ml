(** The predecode equivalence contract: the closure-compiled stepper
    and the interpretive reference must be {e bit-identical} on every
    observable — cycles, every energy ledger, per-core counters, the
    event trace, the energy profile, final shared memory, the return
    value, and the diagnostic of a run that fails — not merely "close".
    The property below throws randomly generated parallel programs at
    both modes on every zoo machine; the unit tests pin the new outcome
    counters and the [BENCH_sim.json] schema. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Profile = Lp_sim.Profile
module Ledger = Lp_power.Energy_ledger
module Gen = Lp_robust.Gen
module Simbench = Lp_experiments.Simbench
module J = Lp_util.Json

let machine4 = Machine.generic ~n_cores:4 ()

let run_mode prog ~predecode =
  Sim.run ~opts:{ Sim.default_options with Sim.predecode } ~machine:machine4
    prog

let run_both source =
  let compiled =
    Compile.compile ~opts:(Compile.full ~n_cores:4) ~machine:machine4 source
  in
  ( run_mode compiled.Compile.prog ~predecode:true,
    run_mode compiled.Compile.prog ~predecode:false )

(* ---------------- every observable, rendered exactly ---------------- *)

(** Every field of an outcome except the two that differ by design —
    [leak_recomputes] (the compiled mode refreshes leakage lazily) and
    [predecode] itself — one field per line, floats in hex ([%h]) so
    equal text means bit-equal values. *)
let fingerprint (o : Sim.outcome) =
  let b = Buffer.create 4096 in
  let fl x = Printf.bprintf b " %h" x and int n = Printf.bprintf b " %d" n in
  let row name f xs =
    Buffer.add_string b name;
    Array.iter f xs;
    Buffer.add_char b '\n'
  in
  let value = function
    | Value.Vint n -> Printf.bprintf b " %d" n
    | Value.Vfloat x -> Printf.bprintf b " f%h" x
  in
  let ledger name l =
    row (name ^ " by_category") fl (Ledger.raw_by_category l);
    row (name ^ " by_component") fl (Ledger.raw_by_component l);
    row (name ^ " total") fl (Ledger.raw_total l)
  in
  row "ret" value (Option.to_list o.Sim.ret |> Array.of_list);
  row "duration_ns" fl [| o.Sim.duration_ns |];
  ledger "energy" o.Sim.energy;
  Array.iteri (fun i l -> ledger (Printf.sprintf "core%d" i) l)
    o.Sim.core_ledgers;
  List.iter (fun (cls, l) -> ledger ("class " ^ cls) l) o.Sim.class_energy;
  List.iter
    (fun (name, a) -> row ("shared " ^ name) value a)
    (List.sort compare
       (Hashtbl.fold (fun k a acc -> (k, a) :: acc) o.Sim.shared_final []));
  row "counts" int
    [| o.Sim.instr_total; o.Sim.implicit_wakeups; o.Sim.gate_transitions;
       o.Sim.dvfs_transitions; o.Sim.channel_msgs; o.Sim.steps;
       o.Sim.decoded_blocks |];
  row "busy_ns" fl o.Sim.busy_ns;
  row "instrs_per_core" int o.Sim.instrs_per_core;
  row "send_blocks" int o.Sim.send_blocks;
  row "recv_blocks" int o.Sim.recv_blocks;
  row "cycles_per_core" int o.Sim.cycles_per_core;
  row "bus_txns_per_core" int o.Sim.bus_txns_per_core;
  row "bus_words_per_core" int o.Sim.bus_words_per_core;
  row "bus_wait_ns_per_core" fl o.Sim.bus_wait_ns_per_core;
  List.iter
    (fun (e : Sim.event) ->
      Printf.bprintf b "event core%d %h %s\n" e.Sim.ev_core e.Sim.ev_ns
        e.Sim.ev_what)
    o.Sim.events;
  Option.iter
    (Array.iter (fun (s : Profile.slot) ->
         row
           (Printf.sprintf "slot %s:%d %d %d %d %d" s.Profile.sl_func
              s.Profile.sl_line s.Profile.sl_cycles s.Profile.sl_instrs
              s.Profile.sl_bus_txns s.Profile.sl_bus_words)
           fl
           (Array.append [| s.Profile.sl_bus_wait_ns |] s.Profile.sl_cat)))
    o.Sim.profile;
  Buffer.contents b

(* ---------------- the equivalence property ---------------- *)

(** The whole zoo plus two variants that reach paths the registry
    shapes leave cold:
    - farmem with its far-tier threshold below the generator's array
      sizes (generated arrays have at most 48 words, so at the registry
      threshold of 1024 no generated access would take the far tier);
    - big.LITTLE with one big core and seven little ones, so programs of
      more than one core run DVFS regions on both classes' ladders. *)
let zoo =
  List.map
    (fun (name, _, (mk : ?cores:int -> unit -> Machine.t)) -> (name, mk ()))
    Machine.registry
  @ [
      (let m = Machine.farmem () in
       ( "farmem/far8",
         { m with
           Machine.mem = { m.Machine.mem with Machine.far_threshold_words = 8 } } ));
      (let m = Machine.biglittle () in
       let cls = m.Machine.classes in
       ( "biglittle/1+7",
         { m with
           Machine.classes =
             [| { (cls.(0)) with Machine.cc_count = 1 };
                { (cls.(1)) with Machine.cc_count = 7 } |] } ));
    ]

(** Compile and simulate [source] end to end under one simulator mode:
    the whole pipeline runs per mode, so a program that fails anywhere
    (an FPU program on pacduo-2c fails to compile) must fail with the
    same diagnostic in both. *)
let observe ~machine ~predecode ~instrumented source =
  let sim_opts =
    { Sim.default_options with
      Sim.predecode;
      trace_limit = (if instrumented then 64 else 0);
      profile = instrumented }
  in
  match
    Compile.run_result ~opts:(Compile.full ~n_cores:(Machine.n_cores machine))
      ~sim_opts ~machine source
  with
  | Ok (_, o) -> fingerprint o
  | Error d -> "error " ^ Lp_util.Diag.to_string d

(** First line where two fingerprints differ, for the failure report. *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go = function
    | (x :: xs, y :: ys) -> if x = y then go (xs, ys) else (x, y)
    | (x :: _, []) -> (x, "<end>")
    | ([], y :: _) -> ("<end>", y)
    | ([], []) -> ("", "")
  in
  go (la, lb)

(** The first disagreement between the two modes on [source], on any
    zoo machine, plain (tracing and profiling off: the batched
    scheduler's fast path) or instrumented (a 64-event trace and the
    energy profile on); [None] when they agree everywhere. *)
let disagreement source =
  List.find_map
    (fun (name, machine) ->
      List.find_map
        (fun instrumented ->
          let on = observe ~machine ~predecode:true ~instrumented source in
          let off = observe ~machine ~predecode:false ~instrumented source in
          if on = off then None
          else
            let (x, y) = first_diff on off in
            Some
              (Printf.sprintf "%s%s: compiled %S, interpretive %S" name
                 (if instrumented then " (traced, profiled)" else "")
                 x y))
        [ false; true ])
    zoo

let prop_modes_identical =
  QCheck.Test.make ~count:40
    ~name:"compiled and interpretive modes are bit-identical on every machine"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match disagreement (Gen.generate ~seed).Gen.source with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(** Fixed programs the generator cannot produce: floating point (which
    pacduo-2c, having no FPU, rejects at compile time), and DVFS
    regions (generated programs never get one). *)
let test_modes_identical_workloads () =
  List.iter
    (fun wname ->
      let w = Lp_workloads.Suite.find_exn wname in
      Option.iter
        (fun msg -> Alcotest.failf "%s: %s" wname msg)
        (disagreement w.Lp_workloads.Workload.source))
    [ "fdotprod"; "histogram"; "jpegblocks" ]

(* ---------------- outcome counters ---------------- *)

(** Both modes decode at construction (decode is shared bookkeeping),
    and the compiled mode's lazy leakage refresh never recomputes more
    often than the reference's eager one. *)
let test_counters () =
  let w = Lp_workloads.Suite.find_exn "fir" in
  let (on, off) = run_both w.Lp_workloads.Workload.source in
  Alcotest.(check bool) "blocks decoded" true (on.Sim.decoded_blocks > 0);
  Alcotest.(check int) "same decode both modes" on.Sim.decoded_blocks
    off.Sim.decoded_blocks;
  Alcotest.(check bool) "predecode flag on" true on.Sim.predecode;
  Alcotest.(check bool) "predecode flag off" false off.Sim.predecode;
  Alcotest.(check bool) "lazy leak recompute is no more eager" true
    (on.Sim.leak_recomputes <= off.Sim.leak_recomputes)

(* ---------------- allocation per simulated step ---------------- *)

(** A deterministic proxy for the stepper's speed: minor-heap words per
    simulated step of a warm run (decode and the shared-memory image
    already cached by the first run), bounded per workload.  Typed
    register files leave the allocation to frames, memory stores and
    channel traffic; a register write that boxes its value again shows
    up here as several tenths of a word per step. *)
let test_stepper_allocation () =
  List.iter
    (fun (wname, bound) ->
      let w = Lp_workloads.Suite.find_exn wname in
      let compiled =
        Compile.compile ~opts:(Compile.full ~n_cores:4) ~machine:machine4
          w.Lp_workloads.Workload.source
      in
      ignore (Compile.simulate_compiled compiled);
      let before = Gc.minor_words () in
      let o = Compile.simulate_compiled compiled in
      let per_step =
        (Gc.minor_words () -. before) /. float_of_int o.Sim.steps
      in
      if per_step > bound then
        Alcotest.failf "%s: %.3f minor words per step, bound %.1f" wname
          per_step bound)
    [ ("fir", 0.1); ("jpegblocks", 0.3) ]

(* ---------------- BENCH_sim.json schema ---------------- *)

let stats runs ips cps =
  {
    Simbench.runs;
    wall_s = float_of_int runs /. cps;
    instrs_per_sec = ips;
    cells_per_sec = cps;
  }

let bench_fixture =
  {
    Simbench.sb_machine = "generic4";
    sb_config = "full";
    sb_rows =
      [
        {
          Simbench.sb_workload = "fir";
          sb_instrs = 123_456;
          sb_on = stats 40 4.0e7 160.0;
          sb_off = stats 8 8.0e6 32.0;
          sb_speedup = 5.0;
        };
      ];
    sb_total_on = 4.0e7;
    sb_total_off = 8.0e6;
    sb_total_speedup = 5.0;
  }

(** The schema survives a full [to_json] → print → parse → [of_json]
    round trip, so the committed artifact stays machine-readable. *)
let test_schema_round_trip () =
  let j = Simbench.to_json bench_fixture in
  (match J.member "schema" j with
  | Some (J.Str s) ->
    Alcotest.(check string) "schema tag" Simbench.schema s
  | _ -> Alcotest.fail "schema tag missing");
  match Simbench.of_json (J.of_string (J.to_string j)) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok t ->
    Alcotest.(check bool) "round trip" true (t = bench_fixture)

(** Field renames must fail loudly, not decode to garbage. *)
let test_schema_rejects () =
  (match Simbench.of_json (J.Obj [ ("schema", J.Str "bogus/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema accepted");
  let j = Simbench.to_json bench_fixture in
  let dropped =
    match j with
    | J.Obj fields ->
      J.Obj (List.filter (fun (k, _) -> k <> "workloads") fields)
    | _ -> assert false
  in
  match Simbench.of_json dropped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing field accepted"

(* ---------------- the metrics dump takes the product path ---------------- *)

(** [Simbench.metrics] simulates through the product path, so its cell
    for histogram on generic-4c (where [full] gates the unused cores)
    equals what [Compile.run_result] reports for the same program. *)
let test_metrics_product_path () =
  let machine = machine4 in
  let w = Lp_workloads.Suite.find_exn "histogram" in
  let o =
    match
      Compile.run_result ~opts:(Compile.full ~n_cores:4) ~machine
        w.Lp_workloads.Workload.source
    with
    | Ok (_, o) -> o
    | Error d -> Alcotest.failf "run: %s" (Lp_util.Diag.to_string d)
  in
  let cell =
    match J.member "cells" (Simbench.metrics ~predecode:true ()) with
    | Some (J.List cells) ->
      List.find
        (fun c ->
          J.member "workload" c = Some (J.Str "histogram")
          && J.member "machine" c = Some (J.Str machine.Machine.name))
        cells
    | _ -> Alcotest.fail "metrics without cells"
  in
  let cycles =
    Array.fold_left (fun a c -> a +. float_of_int c) 0.0 o.Sim.cycles_per_core
  in
  Alcotest.(check (option string)) "cycles"
    (Some (J.to_string (J.Num cycles)))
    (Option.map J.to_string (J.member "cycles" cell));
  Alcotest.(check (option string)) "energy ledger"
    (Some (J.to_string (Ledger.to_json o.Sim.energy)))
    (Option.map J.to_string (J.member "energy" cell))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_modes_identical;
    Alcotest.test_case "modes agree on fixed workloads" `Quick
      test_modes_identical_workloads;
    Alcotest.test_case "outcome counters" `Quick test_counters;
    Alcotest.test_case "stepper allocation per step" `Quick
      test_stepper_allocation;
    Alcotest.test_case "BENCH_sim.json round trip" `Quick
      test_schema_round_trip;
    Alcotest.test_case "BENCH_sim.json rejects bad input" `Quick
      test_schema_rejects;
    Alcotest.test_case "sim metrics follow the product path" `Quick
      test_metrics_product_path;
  ]
