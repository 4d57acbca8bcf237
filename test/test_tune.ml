(** The energy-aware phase-ordering autotuner ([Lp_tune.Tune]): seeded
    determinism across pool sizes, mutation soundness as a qcheck
    property (every mutated candidate parse/print round-trips and
    compiles every tuner workload without a foreign exception), the
    saved best schedule replaying to exactly the reported energy, and
    the program memo: [Prog.digest] sees every field the simulator
    reads, equal digests simulate identically, and the number of
    simulations a search makes is pinned. *)

module Tune = Lp_tune.Tune
module Compile = Lowpower.Compile
module Pipeline = Lowpower.Pipeline
module Rng = Lp_util.Rng
module Json = Lp_util.Json
module Domain_pool = Lp_util.Domain_pool
module Fault = Lp_util.Fault
module Obs = Lp_obs.Obs
module Ir = Lp_ir.Ir
module Component = Lp_power.Component
module Prog = Lp_ir.Prog
module Printer = Lp_ir.Printer
module Machine = Lp_machine.Machine
module Suite = Lp_workloads.Suite
module Workload = Lp_workloads.Workload

let workloads names = List.map Suite.find_exn names
let machine = (Tune.default_config ()).Tune.machine

let run_with_jobs ~jobs cfg names =
  let pool = Domain_pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      match Tune.run ~pool cfg (workloads names) with
      | Ok s -> s
      | Error d -> Alcotest.failf "tune failed: %s" (Lp_util.Diag.to_string d))

(** Same seed, different pool sizes: the rendered table, every best
    spec, and the whole BENCH JSON must be byte-identical. *)
let test_determinism_across_jobs () =
  let cfg = Tune.default_config ~budget:24 ~seed:7 () in
  let names = [ "fir"; "jpegblocks" ] in
  let s1 = run_with_jobs ~jobs:1 cfg names in
  let s4 = run_with_jobs ~jobs:4 cfg names in
  Alcotest.(check string)
    "render byte-identical at jobs 1 vs 4" (Tune.render s1) (Tune.render s4);
  Alcotest.(check string)
    "BENCH json byte-identical at jobs 1 vs 4"
    (Json.to_string (Tune.json_of s1))
    (Json.to_string (Tune.json_of s4));
  List.iter2
    (fun (a : Tune.workload_result) (b : Tune.workload_result) ->
      Alcotest.(check string)
        ("best spec for " ^ a.Tune.tw_workload)
        a.Tune.tw_best_spec b.Tune.tw_best_spec)
    s1.Tune.t_workloads s4.Tune.t_workloads;
  (* and the same config run twice is equal too (no hidden state) *)
  let s1' = run_with_jobs ~jobs:1 cfg names in
  Alcotest.(check string) "rerun identical" (Tune.render s1) (Tune.render s1')

let start = Pipeline.flatten ~mac_fusion:true Pipeline.default

(** The inputs of {!mutated}: a mutation seed and a chain length. *)
let mutation_input = QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))

(** A chain of [steps] seeded mutations of the flattened default. *)
let mutated (seed, steps) =
  let rng = Rng.create ~seed in
  let t = ref start in
  for _ = 1 to steps do
    t := Tune.mutate rng !t
  done;
  !t

(** Mutation soundness: from the flattened default schedule, any chain
    of mutations yields a schedule whose one-line spec parses back to
    the same value, and that compiles every tuner workload with at most
    a structured diagnostic — never a foreign exception. *)
let prop_mutation_sound =
  let ws = workloads Tune.default_workloads in
  QCheck.Test.make ~count:25
    ~name:"mutated schedules round-trip and compile every tuner workload"
    mutation_input
    (fun input ->
      let t = mutated input in
      let spec = Pipeline.to_spec t in
      (match Pipeline.parse spec with
      | Ok t' ->
        (* pass records hold closures, so compare via the spec *)
        if Pipeline.to_spec t' <> spec then
          QCheck.Test.fail_reportf "parse(to_spec) changed the schedule: %s"
            spec
      | Error d ->
        QCheck.Test.fail_reportf "mutated spec does not parse: %s (%s)" spec
          (Lp_util.Diag.to_string d));
      let opts = Compile.Options.update ~pipeline:t Compile.baseline in
      List.iter
        (fun (w : Workload.t) ->
          match Compile.compile_result ~opts ~machine w.Workload.source with
          | Ok _ -> ()
          | Error d ->
            QCheck.Test.fail_reportf "%s under %s: %s" w.Workload.name spec
              (Lp_util.Diag.to_string d))
        ws;
      true)

(* ------------------------------------------------------------------ *)
(* The program memo                                                    *)
(* ------------------------------------------------------------------ *)

(* a global initialiser, a frame array, a float constant whose
   successor prints the same under %g, and a doall loop so that the
   full compile lays the program out in parallel *)
let digest_source =
  {|
int dg_init[4] = {3, 1, 4, 1};
float dg_out[64];

int scale(int k) {
  int buf[6];
  for (int i = 0; i < 6; i = i + 1) {
    buf[i] = dg_init[i % 4] * k;
  }
  return buf[k % 6];
}

int main() {
  for (int i = 0; i < 64; i = i + 1) {
    dg_out[i] = float(i) * 0.1;
  }
  return scale(5);
}
|}

let digest_prog () =
  let opts = Compile.full ~n_cores:4 in
  (Compile.compile ~opts ~machine digest_source).Compile.prog

(** Rewrite the first instruction, in function and layout order, that
    [edit] maps to [Some]. *)
let edit_instr (p : Prog.t) edit =
  let edited = ref false in
  List.iter
    (fun f ->
      Prog.iter_blocks f (fun b ->
          b.Ir.instrs <-
            List.map
              (fun i ->
                match if !edited then None else edit i with
                | Some i' -> edited := true; i'
                | None -> i)
              b.Ir.instrs))
    (Prog.funcs p);
  if not !edited then Alcotest.fail "no instruction to edit";
  p

let succ_float (i : Ir.instr) =
  let bump = function
    | Ir.Imm (Ir.Cfloat x) -> Some (Ir.Imm (Ir.Cfloat (Float.succ x)))
    | _ -> None
  in
  let idesc =
    match i.Ir.idesc with
    | Ir.Const (d, Ir.Cfloat x) -> Some (Ir.Const (d, Ir.Cfloat (Float.succ x)))
    | Ir.Move (d, a) -> Option.map (fun a -> Ir.Move (d, a)) (bump a)
    | Ir.Binop (op, d, a, b) -> (
      match (bump a, bump b) with
      | (Some a, _) -> Some (Ir.Binop (op, d, a, b))
      | (None, Some b) -> Some (Ir.Binop (op, d, a, b))
      | (None, None) -> None)
    | _ -> None
  in
  Option.map (fun idesc -> { i with Ir.idesc }) idesc

let next_line (i : Ir.instr) =
  Some { i with Ir.loc = { i.Ir.loc with Ir.line = i.Ir.loc.Ir.line + 1 } }

(** One edit of a compiled program per field the simulator reads; the
    first is invisible in the printed IR. *)
let digest_edits : (string * (Prog.t -> Prog.t)) list =
  [
    ("float constant + 1 ulp", fun p -> edit_instr p succ_float);
    ("instruction loc line", fun p -> edit_instr p next_line);
    ( "frame array length",
      fun p ->
        (match
           List.find_opt (fun f -> f.Prog.frame_arrays <> []) (Prog.funcs p)
         with
        | Some ({ Prog.frame_arrays = (name, ty, len) :: tl; _ } as f) ->
          f.Prog.frame_arrays <- (name, ty, len + 1) :: tl
        | _ -> Alcotest.fail "no frame array");
        p );
    ( "global initialiser element",
      fun p ->
        let edited = ref false in
        let globals =
          List.map
            (fun (g : Prog.global) ->
              match g.Prog.ginit with
              | Some (x :: tl) when not !edited ->
                edited := true;
                { g with Prog.ginit = Some ((x + 1) :: tl) }
              | _ -> g)
            p.Prog.globals
        in
        if not !edited then Alcotest.fail "no initialised global";
        { p with Prog.globals } );
    ( "channel capacity",
      fun p ->
        (match p.Prog.layout with
        | Prog.Parallel r ->
          p.Prog.layout <-
            Prog.Parallel { r with chan_capacity = r.chan_capacity + 1 }
        | Prog.Sequential -> Alcotest.fail "expected a parallel layout");
        p );
    ( "gating set",
      fun p ->
        edit_instr p (fun i ->
            match i.Ir.idesc with
            | Ir.Pg_off s ->
              let c = Component.Fpu in
              let s =
                if Component.Set.mem c s then Component.Set.remove c s
                else Component.Set.add c s
              in
              Some { i with Ir.idesc = Ir.Pg_off s }
            | _ -> None) );
    ( "branch targets swapped",
      fun p ->
        let edited = ref false in
        List.iter
          (fun f ->
            Prog.iter_blocks f (fun b ->
                match b.Ir.term with
                | Ir.Br (c, l1, l2) when l1 <> l2 && not !edited ->
                  edited := true;
                  b.Ir.term <- Ir.Br (c, l2, l1)
                | _ -> ()))
          (Prog.funcs p);
        if not !edited then Alcotest.fail "no two-way branch";
        p );
    ( "block outside block_order",
      fun p ->
        let f = List.hd (Prog.funcs p) in
        (* the next label, without advancing the generator: only the
           block table changes *)
        let l = Lp_util.Id_gen.peek f.Prog.block_gen in
        Hashtbl.replace f.Prog.blocks l
          { Ir.bid = l; instrs = []; term = Ir.Ret None };
        p );
  ]

let test_digest_sensitivity () =
  let base = digest_prog () in
  let d0 = Prog.digest base in
  (* the second compile goes through the tuner's entry point *)
  let checked =
    match
      Compile.compile_checked ~opts:(Compile.full ~n_cores:4) ~machine
        (Compile.parse_and_check digest_source)
    with
    | Ok c -> c.Compile.prog
    | Error d -> Alcotest.fail (Lp_util.Diag.to_string d)
  in
  Alcotest.(check string)
    "independent compiles agree" (Digest.to_hex d0)
    (Digest.to_hex (Prog.digest checked));
  List.iter
    (fun (what, edit) ->
      Alcotest.(check bool)
        (what ^ " changes the digest")
        false
        (Prog.digest (edit (digest_prog ())) = d0))
    digest_edits;
  (* so a key taken from the printed IR would hand the edited program
     the unedited one's energy *)
  Alcotest.(check string)
    "printed IR unchanged by a 1-ulp float edit"
    (Printer.prog_to_string base)
    (Printer.prog_to_string (edit_instr (digest_prog ()) succ_float))

(** Soundness of the memo key: whenever two schedules compile a tuner
    workload to one digest, simulating them gives bit-identical
    outcomes (every field [Test_predecode.fingerprint] renders: ledgers
    by category, cycles per core, [ret], [instr_total], [duration_ns]
    and more).  Each case compiles under [baseline] and under
    [full ~n_cores:4], so equal-digest pairs carrying gating sets, DVFS
    regions and a parallel layout are compared too.  The default
    schedule takes part in every case, so most cases compare at least
    one equal pair per option set. *)
let prop_equal_digests_simulate_identically =
  let ws = workloads Tune.default_workloads in
  let bases =
    [ ("baseline", Compile.baseline); ("full", Compile.full ~n_cores:4) ]
  in
  QCheck.Test.make ~count:25
    ~name:"schedules compiling to one digest simulate identically"
    QCheck.(pair mutation_input mutation_input)
    (fun (a, b) ->
      let schedules = [ start; mutated a; mutated b ] in
      List.iter
        (fun ((base_name, base), (w : Workload.t)) ->
          let keyed =
            List.filter_map
              (fun t ->
                let opts = Compile.Options.update ~pipeline:t base in
                match
                  Compile.compile_result ~opts ~machine w.Workload.source
                with
                | Error _ -> None
                | Ok c ->
                  let outcome =
                    lazy
                      (match Compile.simulate_result c with
                      | Ok o -> Test_predecode.fingerprint c.Compile.prog o
                      | Error d -> "error " ^ Lp_util.Diag.to_string d)
                  in
                  Some (Pipeline.to_spec t, Prog.digest c.Compile.prog, outcome))
              schedules
          in
          List.iteri
            (fun i (sa, da, oa) ->
              List.iteri
                (fun j (sb, db, ob) ->
                  if i < j && da = db && Lazy.force oa <> Lazy.force ob then
                    QCheck.Test.fail_reportf
                      "%s under %s: equal digests, different outcomes:\n%s\n%s"
                      w.Workload.name base_name sa sb)
                keyed)
            keyed)
        (List.concat_map (fun b -> List.map (fun w -> (b, w)) ws) bases);
      true)

(** [tune.simulations] counts the programs a search simulated: fir at
    seed 1, budget 20, evaluates 20 schedules that compile to 2 distinct
    programs.  An armed fault spec bypasses the memo even when it never
    fires: every evaluated schedule is simulated, with the same
    answer. *)
let test_simulation_count () =
  let cfg = Tune.default_config ~budget:20 ~seed:1 () in
  let tune () =
    let obs = Obs.create () in
    let ctx = Compile.make_ctx ~obs () in
    let pool = Domain_pool.create ~jobs:1 () in
    match Tune.run ~ctx ~pool cfg (workloads [ "fir" ]) with
    | Ok s ->
      ( s,
        Option.value ~default:0
          (List.assoc_opt "tune.simulations" (Obs.counters obs)) )
    | Error d -> Alcotest.failf "tune failed: %s" (Lp_util.Diag.to_string d)
  in
  let (s, sims) = tune () in
  let evaluated = (List.hd s.Tune.t_workloads).Tune.tw_evaluated in
  Alcotest.(check int) "evaluated" 20 evaluated;
  Alcotest.(check int) "simulated" 2 sims;
  Fun.protect ~finally:Fault.clear (fun () ->
      (match Fault.configure "pre-simulate@no-such-scope" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let (s', sims') = tune () in
      Alcotest.(check int) "faults armed: all simulated" evaluated sims';
      Alcotest.(check string)
        "faults armed: same answer" (Tune.render s) (Tune.render s'))

(** [save_best] writes a schedule file that [lpcc run --passes @FILE]
    replays to exactly the energy the tuner reported. *)
let test_saved_schedule_replays () =
  (* seed 1 / budget 100 on jpegblocks is the documented improving run *)
  let cfg = Tune.default_config ~budget:100 ~seed:1 () in
  let s = run_with_jobs ~jobs:2 cfg [ "jpegblocks" ] in
  let best =
    match Tune.best_improvement s with
    | Some r -> r
    | None -> Alcotest.fail "seed 1 budget 100 must improve jpegblocks"
  in
  Alcotest.(check bool)
    "strictly better than baseline" true
    (best.Tune.tw_best.Tune.energy_nj < best.Tune.tw_baseline.Tune.energy_nj);
  let path = Filename.temp_file "lp-tune-test" ".sched" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Tune.save_best s path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save_best: %s" e);
      let p =
        match Pipeline.load_file path with
        | Ok p -> p
        | Error d ->
          Alcotest.failf "saved schedule must load: %s"
            (Lp_util.Diag.to_string d)
      in
      Alcotest.(check string)
        "file carries the best spec" best.Tune.tw_best_spec (Pipeline.to_spec p);
      let w = Suite.find_exn best.Tune.tw_workload in
      let opts = Compile.Options.update ~pipeline:p Compile.baseline in
      match Compile.run_result ~opts ~machine w.Workload.source with
      | Error d -> Alcotest.failf "replay failed: %s" (Lp_util.Diag.to_string d)
      | Ok (_, o) ->
        Alcotest.(check (float 0.0))
          "replay reproduces the tuned energy exactly"
          best.Tune.tw_best.Tune.energy_nj
          (Lp_power.Energy_ledger.total o.Lp_sim.Sim.energy))

(** The tuner's own bookkeeping: counters are consistent and the JSON
    document carries the schema tag and one entry per workload. *)
let test_summary_shape () =
  let cfg = Tune.default_config ~budget:12 ~seed:3 () in
  let s = run_with_jobs ~jobs:1 cfg [ "fir" ] in
  let r = List.hd s.Tune.t_workloads in
  Alcotest.(check bool)
    "budget respected" true
    (r.Tune.tw_evaluated <= cfg.Tune.budget);
  Alcotest.(check bool)
    "evaluated + hits <= proposed + baseline" true
    (r.Tune.tw_evaluated + r.Tune.tw_cache_hits <= r.Tune.tw_candidates + 1);
  Alcotest.(check bool)
    "best never worse than baseline" true
    (not (Tune.better r.Tune.tw_baseline r.Tune.tw_best));
  match Tune.json_of s with
  | Json.Obj fields ->
    Alcotest.(check bool)
      "schema tag" true
      (List.assoc_opt "schema" fields = Some (Json.Str Tune.schema));
    (match List.assoc_opt "workloads" fields with
    | Some (Json.List l) ->
      Alcotest.(check int) "one entry per workload" 1 (List.length l)
    | _ -> Alcotest.fail "json must carry a workloads list")
  | _ -> Alcotest.fail "json must be an object"

let suite =
  [
    Alcotest.test_case "seeded determinism across pool sizes" `Quick
      test_determinism_across_jobs;
    QCheck_alcotest.to_alcotest prop_mutation_sound;
    Alcotest.test_case "saved best schedule replays to reported energy"
      `Slow test_saved_schedule_replays;
    Alcotest.test_case "summary counters and JSON shape" `Quick
      test_summary_shape;
    Alcotest.test_case "program digest sees every simulated field" `Quick
      test_digest_sensitivity;
    QCheck_alcotest.to_alcotest prop_equal_digests_simulate_identically;
    Alcotest.test_case "simulations counted, memo bypassed under faults"
      `Quick test_simulation_count;
  ]
