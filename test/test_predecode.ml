(** The predecode equivalence contract: the compiled stepper and the
    interpretive reference must be {e bit-identical} on every
    observable — cycles, every energy ledger, per-core counters, the
    leakage refreshes, the event trace, the energy profile, final shared
    memory, the return value, and the diagnostic of a run that fails —
    not merely "close".
    The property below throws randomly generated parallel programs at
    both modes on every zoo machine; the unit tests pin the new outcome
    counters and the [BENCH_sim.json] schema tag. *)

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

(** Every field of an outcome but [predecode] itself, one field per
    line, floats in hex ([%h]) so equal text means bit-equal values. *)
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
       o.Sim.decoded_blocks; o.Sim.leak_recomputes |];
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

(* ---------------- every way out of the section loop ---------------- *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Builder = Lp_ir.Builder
module CS = Lp_power.Component.Set

(** A function: [body] emits its instructions, from its entry block,
    and returns what it returns. *)
let func name ~params ~ret body =
  let f = Prog.create_func ~name ~params ~ret in
  let b = Builder.create f in
  let r = body b f in
  Builder.set_term b (Ir.Ret r);
  f

(** [main], beside [funcs]: [body] emits its instructions, from its entry
    block, and returns the operand [main] returns. *)
let hand_built ?(globals = []) ?(frame = []) ?(funcs = []) body =
  let prog = Prog.create ~globals in
  let f =
    func "main" ~params:[] ~ret:(Some Ir.I) (fun b f ->
        List.iter
          (fun (name, ty, len) -> Prog.add_frame_array f ~name ~ty ~len)
          frame;
        Some (body b))
  in
  List.iter (Prog.add_func prog) (f :: funcs);
  prog

(** The fingerprint of a run of IR that skipped the pipeline, or its
    diagnostic, as {!observe} renders a compiled source. *)
let observe_ir ~machine ~predecode prog =
  let opts = { Sim.default_options with Sim.predecode } in
  match Compile.guard (fun () -> Ok (Sim.run ~opts ~machine prog)) with
  | Ok o -> fingerprint o
  | Error d -> "error " ^ Lp_util.Diag.to_string d

let int n = Ir.Imm (Ir.Cint n)
let reg r = Ir.Reg r
let add b x y = reg (Builder.binop b Ir.Add x y)

(** [k] int additions on [x]: encoded instructions before or after an
    exit, so that it falls in the middle of a section. *)
let adds b k x =
  let r = ref x in
  for i = 1 to k do r := add b !r (int i) done;
  !r

let gate b comps = ignore (Builder.emit b (Ir.Pg_off (CS.of_list comps)))
let ungate b comps = ignore (Builder.emit b (Ir.Pg_on (CS.of_list comps)))

let rom name = { Ir.sym_name = name; sym_space = Ir.Rom }

(** Every int and float operator of an encoded instruction, in every
    operand shape, on edge values, and a load of each kind of local
    array at a register and at an immediate index, each result stored to
    a global: pins the section loop's operator definitions to
    [Value]'s. *)
let all_operators =
  let ints = [ 0; 1; -1; 7; -7; 31; 32; 33; 0x7fffffff; -0x80000000 ] in
  let floats = [ 0.0; -0.0; 1.5; -2.25; 1e300; Float.infinity ] in
  let int_ops =
    Ir.[ Add; Sub; Mul; Div; Mod; Shl; Shr; And; Or; Xor; Lt; Le; Gt; Ge; Eq; Ne ]
  in
  let float_ops = Ir.[ Fadd; Fsub; Fmul; Fdiv; Flt; Fle; Fgt; Fge; Feq; Fne ] in
  let n_out = 8192 in
  let out ty =
    { Ir.sym_name = (if ty = Ir.I then "iout" else "fout");
      sym_space = Ir.Shared }
  in
  hand_built
    ~globals:
      [ { Prog.gsym = "iout"; gty = Ir.I; gsize = n_out; ginit = None };
        { Prog.gsym = "fout"; gty = Ir.F; gsize = n_out; ginit = None };
        { Prog.gsym = "irom"; gty = Ir.I; gsize = 3;
          ginit = Some [ 4; -5; 6 ] };
        { Prog.gsym = "from"; gty = Ir.F; gsize = 3;
          ginit = Some [ 7; 8; -9 ] } ]
    ~frame:[ ("iloc", Ir.I, 3); ("floc", Ir.F, 3) ]
    (fun b ->
      let next = [| 0; 0 |] in
      let emit ty r =
        let k = if ty = Ir.I then 0 else 1 in
        Builder.store b (out ty) (int next.(k)) (reg r);
        next.(k) <- next.(k) + 1
      in
      let shapes c x y =
        (* register/register, register/immediate, immediate/register and
           immediate/immediate *)
        let rx = reg (Builder.const b (c x)) in
        let ry = reg (Builder.const b (c y)) in
        let ix = Ir.Imm (c x) and iy = Ir.Imm (c y) in
        [ (rx, ry); (rx, iy); (ix, ry); (ix, iy) ]
      in
      List.iter
        (fun op ->
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  if not ((op = Ir.Div || op = Ir.Mod) && y = 0) then
                    List.iter
                      (fun (a, c) -> emit Ir.I (Builder.binop b op a c))
                      (shapes (fun n -> Ir.Cint n) x y))
                ints)
            ints)
        int_ops;
      List.iter
        (fun op ->
          let ty =
            match op with
            | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> Ir.F
            | _ -> Ir.I
          in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  List.iter
                    (fun (a, c) -> emit ty (Builder.binop b op a c))
                    (shapes (fun v -> Ir.Cfloat v) x y))
                floats)
            floats)
        float_ops;
      List.iter
        (fun x ->
          let r = reg (Builder.int_const b x) in
          List.iter
            (fun a ->
              List.iter
                (fun op -> emit Ir.I (Builder.unop b op a))
                Ir.[ Neg; Not; Bnot ];
              emit Ir.F (Builder.unop b Ir.I2f a))
            [ r; int x ];
          List.iter
            (fun (y, z) ->
              let ry = reg (Builder.int_const b y) in
              let rz = reg (Builder.int_const b z) in
              let mac a c = Builder.emit_reg b (fun d -> Ir.Mac (d, a, ry, c)) in
              emit Ir.I (mac r rz);
              emit Ir.I (mac (int x) (int z)))
            [ (x, 3); (-0x80000000, x); (0x7fffffff, 0x7fffffff) ])
        ints;
      List.iter
        (fun x ->
          let r = reg (Builder.const b (Ir.Cfloat x)) in
          List.iter
            (fun a ->
              emit Ir.F (Builder.unop b Ir.Fneg a);
              emit Ir.I (Builder.unop b Ir.F2i a))
            [ r; Ir.Imm (Ir.Cfloat x) ])
        (floats @ [ 3.7; -3.7; 4294967296.5 ]);
      let local name = { Ir.sym_name = name; sym_space = Ir.Frame } in
      for i = 0 to 2 do
        Builder.store b (local "iloc") (int i) (int (10 * i - 7));
        Builder.store b (local "floc") (int i)
          (Ir.Imm (Ir.Cfloat (0.5 -. float_of_int i)))
      done;
      List.iter
        (fun (ty, sym) ->
          let r = reg (Builder.int_const b 2) in
          List.iter (fun i -> emit ty (Builder.load b sym i)) [ r; int 1 ])
        [ (Ir.I, local "iloc"); (Ir.F, local "floc"); (Ir.I, rom "irom");
          (Ir.F, rom "from") ];
      int 0)

(** A multiply on a gated multiplier, between int additions: the
    section loop leaves at the multiply for its implicit wakeup. *)
let implicit_wakeup =
  hand_built (fun b ->
      gate b [ Lp_power.Component.Multiplier ];
      let x = adds b 3 (int 6) in
      adds b 3 (reg (Builder.binop b Ir.Mul x x)))

(** [id1(x) = x] on ints, [void0()] returns nothing, and
    [unread1(x) = 6] never reads its int parameter. *)
let callees =
  [ func "id1" ~params:[ Ir.I ] ~ret:(Some Ir.I) (fun _ f ->
        Some (reg (fst (List.hd f.Prog.params))));
    func "void0" ~params:[] ~ret:None (fun _ _ -> None);
    func "unread1" ~params:[ Ir.I ] ~ret:(Some Ir.I) (fun _ _ -> Some (int 6)) ]

(** [k] additions on [x], then [term] ends the block, whose successor
    adds [k] more. *)
let around_term b k x term =
  let x = adds b k x in
  let next = Builder.new_block b in
  Builder.set_term b (term next.Ir.bid);
  Builder.switch_to b next;
  adds b k x

let shared name = { Ir.sym_name = name; sym_space = Ir.Shared }

(** Hand-built programs that stop the compiled stepper's section loop
    at an instruction with encoded instructions before and after it,
    one program per way out of a section, per run-time fault
    ([`Error "E_RUNTIME"]) and per fault of the IR, which [Sim.create]'s
    verifier rejects in both steppers ([`Error "E_VERIFY"]); the last
    two are programs the steppers once ran differently.  Each comes
    with what the run must end in. *)
let exit_programs =
  let mul = Lp_power.Component.Multiplier in
  let g4 = [ { Prog.gsym = "g"; gty = Ir.I; gsize = 4; ginit = None } ] in
  [
    ("every operator in every operand shape", `Ok, all_operators);
    ("implicit wakeup", `Ok, implicit_wakeup);
    ( "leakage refreshed at pg_on", `Ok,
      hand_built (fun b ->
          gate b [ mul ];
          let x = adds b 3 (int 1) in
          ungate b [ mul ];
          adds b 3 (reg (Builder.binop b Ir.Mul x x))) );
    ( "leakage refreshed at dvfs", `Ok,
      hand_built (fun b ->
          let x = adds b 3 (int 1) in
          ignore (Builder.emit b (Ir.Dvfs 1));
          let x = adds b 3 x in
          ignore (Builder.emit b (Ir.Dvfs 0));
          adds b 3 x) );
    ( "out-of-bounds ROM read", `Error "E_RUNTIME",
      hand_built
        ~globals:
          [ { Prog.gsym = "tab"; gty = Ir.I; gsize = 4;
              ginit = Some [ 1; 2; 3; 4 ] } ]
        (fun b ->
          let x = adds b 3 (reg (Builder.load b (rom "tab") (int 2))) in
          let i = adds b 2 (int 5) in
          adds b 3 (add b x (reg (Builder.load b (rom "tab") i)))) );
    ( "division by zero", `Error "E_RUNTIME",
      hand_built (fun b ->
          let z = Builder.int_const b 0 in
          let x = adds b 3 (int 7) in
          adds b 3 (reg (Builder.binop b Ir.Div x (reg z)))) );
    ( "modulo by zero", `Error "E_RUNTIME",
      hand_built (fun b ->
          let x = adds b 3 (int 7) in
          adds b 3 (reg (Builder.binop b Ir.Mod x (int 0)))) );
    ( "division of immediates by zero", `Error "E_RUNTIME",
      hand_built (fun b ->
          let x = adds b 3 (int 7) in
          add b x (reg (Builder.binop b Ir.Div (int 9) (int 0)))) );
    ( "float operand where an int is expected", `Error "E_VERIFY",
      hand_built (fun b ->
          let f = Builder.const b (Ir.Cfloat 1.5) in
          let x = adds b 3 (int 7) in
          adds b 3 (add b x (reg f))) );
    ( "out-of-bounds shared read", `Error "E_RUNTIME",
      hand_built ~globals:g4 (fun b ->
          let i = adds b 3 (int 1) in
          adds b 3 (reg (Builder.load b (shared "g") i))) );
    ( "out-of-bounds shared write", `Error "E_RUNTIME",
      hand_built ~globals:g4 (fun b ->
          let i = adds b 3 (int 1) in
          Builder.store b (shared "g") i (int 9);
          adds b 3 i) );
    ( "out-of-bounds local write", `Error "E_RUNTIME",
      hand_built ~frame:[ ("loc", Ir.I, 3) ] (fun b ->
          let i = adds b 2 (int 1) in
          Builder.store b { Ir.sym_name = "loc"; sym_space = Ir.Frame } i i;
          adds b 3 i) );
    ( "store to an unknown global", `Error "E_VERIFY",
      hand_built (fun b ->
          let x = adds b 3 (int 1) in
          Builder.store b (shared "nowhere") (int 0) x;
          adds b 3 x) );
    ( "call to an unknown function", `Error "E_VERIFY",
      hand_built (fun b ->
          let x = adds b 3 (int 1) in
          adds b 3 (reg (Builder.call_reg b "nowhere" [ x ]))) );
    ( "too many arguments", `Error "E_VERIFY",
      hand_built ~funcs:callees (fun b ->
          let x = adds b 3 (int 1) in
          adds b 3 (reg (Builder.call_reg b "id1" [ x; x ]))) );
    ( "arity mismatch", `Error "E_VERIFY",
      hand_built ~funcs:callees (fun b ->
          let x = adds b 3 (int 1) in
          add b x (adds b 3 (reg (Builder.call_reg b "id1" [])))) );
    ( "void return into a register", `Error "E_VERIFY",
      hand_built ~funcs:callees (fun b ->
          let x = adds b 3 (int 1) in
          add b x (adds b 3 (reg (Builder.call_reg b "void0" [])))) );
    ( "float branch condition", `Error "E_VERIFY",
      hand_built (fun b ->
          let f = reg (Builder.const b (Ir.Cfloat 1.5)) in
          around_term b 3 (int 1) (fun l -> Ir.Br (f, l, l))) );
    ( "float argument to an unread int parameter", `Error "E_VERIFY",
      hand_built ~funcs:callees (fun b ->
          let x = adds b 3 (int 1) in
          add b x
            (adds b 3
               (reg (Builder.call_reg b "unread1" [ Ir.Imm (Ir.Cfloat 1.5) ])))) );
    ( "jump to a label with no block", `Error "E_VERIFY",
      hand_built (fun b -> around_term b 3 (int 1) (fun _ -> Ir.Jmp 999)) );
    ( "float stored into an int global, loaded into an unread register",
      `Error "E_VERIFY",
      hand_built ~globals:g4 (fun b ->
          let x = adds b 3 (int 1) in
          Builder.store b (shared "g") (int 0) (Ir.Imm (Ir.Cfloat 1.5));
          ignore (Builder.load b (shared "g") (int 0));
          adds b 3 x) );
    ( "read of a never-allocated register on a path that never runs",
      `Error "E_VERIFY",
      hand_built (fun b ->
          let x = adds b 3 (int 1) in
          let dead = Builder.new_block b and live = Builder.new_block b in
          Builder.set_term b (Ir.Br (int 0, dead.Ir.bid, live.Ir.bid));
          Builder.switch_to b dead;
          Builder.set_term b (Ir.Ret (Some (add b x (reg 999))));
          Builder.switch_to b live;
          adds b 3 x) );
  ]

(** farmem-4c's local store is a cache that misses every 64th access:
    the inner loop's frame-array load follows a xor in its block, so a
    miss ends a section mid-run. *)
let miss_source =
  "int main() { int a[16]; int s = 0;\n\
  \  for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }\n\
  \  for (int k = 0; k < 40; k = k + 1) {\n\
  \    for (int i = 0; i < 16; i = i + 1) { s = (s ^ k) + a[i]; } }\n\
  \  return s; }"

let test_section_exits () =
  let machine = Machine.generic ~n_cores:1 () in
  List.iter
    (fun (name, ending, prog) ->
      let on = observe_ir ~machine ~predecode:true prog in
      let off = observe_ir ~machine ~predecode:false prog in
      if on <> off then begin
        let (x, y) = first_diff on off in
        Alcotest.failf "%s: compiled %S, interpretive %S" name x y
      end;
      let failed = String.starts_with ~prefix:"error " on in
      match ending with
      | `Ok when failed -> Alcotest.failf "%s: %s" name on
      | `Ok -> ()
      | `Error code -> (
        (* [on] is "error <stage> error [CODE]...", see [observe_ir] *)
        match Scanf.sscanf_opt on "error %_s error [%s@]" Fun.id with
        | Some c when c = code -> ()
        | Some _ -> Alcotest.failf "%s: %s, not %s" name on code
        | None -> Alcotest.failf "%s: ran to the end" name))
    exit_programs;
  Alcotest.(check int) "the wakeup happened" 1
    (Sim.run ~machine implicit_wakeup).Sim.implicit_wakeups;
  let machine = Machine.farmem () in
  let on = observe ~machine ~predecode:true ~instrumented:false miss_source in
  let off = observe ~machine ~predecode:false ~instrumented:false miss_source in
  if on <> off then begin
    let (x, y) = first_diff on off in
    Alcotest.failf "farmem misses: compiled %S, interpretive %S" x y
  end

(* ---------------- outcome counters ---------------- *)

(** Both modes decode at construction (decode is shared bookkeeping),
    and both refresh leakage at the same points. *)
let test_counters () =
  let w = Lp_workloads.Suite.find_exn "fir" in
  let (on, off) = run_both w.Lp_workloads.Workload.source in
  Alcotest.(check bool) "blocks decoded" true (on.Sim.decoded_blocks > 0);
  Alcotest.(check int) "same decode both modes" on.Sim.decoded_blocks
    off.Sim.decoded_blocks;
  Alcotest.(check bool) "predecode flag on" true on.Sim.predecode;
  Alcotest.(check bool) "predecode flag off" false off.Sim.predecode;
  Alcotest.(check int) "same leakage refreshes both modes"
    off.Sim.leak_recomputes on.Sim.leak_recomputes

(* ---------------- allocation per simulated step ---------------- *)

(** A deterministic proxy for the stepper's speed: minor-heap words per
    simulated step of a warm run (decode and the shared-memory image
    already cached by the first run) of every bundled workload under
    [full] on generic-4c.  Each bound is the value before the encoded
    pure-run loop plus 10%, rounded up to the next hundredth.  Typed
    register files leave the allocation to [Sim.create], frames, memory
    stores and channel traffic; a register write or a loop local that
    boxes its value shows up here as several tenths of a word per step,
    and an encoding that allocates more than the closures it replaced
    shows up on the short runs (dotprod, crc32). *)
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
        Alcotest.failf "%s: %.3f minor words per step, bound %.2f" wname
          per_step bound)
    [ ("fir", 0.04); ("dotprod", 0.19); ("fdotprod", 0.60); ("matmul", 0.04);
      ("conv2d", 0.06); ("iir", 0.16); ("imgpipe", 0.77); ("jpegblocks", 0.15);
      ("audio5", 1.83); ("prodcons", 1.14); ("susan", 0.12);
      ("fraciter", 0.09); ("crc32", 0.13); ("stringsearch", 0.03);
      ("histogram", 0.28); ("adpcm", 0.08); ("fft", 0.57); ("phases", 0.45);
      ("memops", 0.30); ("peakdetect", 0.07); ("tri", 0.07) ]

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

(** [to_json] tags the artifact with its schema. *)
let test_schema_tag () =
  match J.member "schema" (Simbench.to_json bench_fixture) with
  | Some (J.Str s) ->
    Alcotest.(check string) "schema tag" Simbench.schema s
  | _ -> Alcotest.fail "schema tag missing"

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
    Alcotest.test_case "every way out of the section loop" `Quick
      test_section_exits;
    Alcotest.test_case "outcome counters" `Quick test_counters;
    Alcotest.test_case "stepper allocation per step" `Quick
      test_stepper_allocation;
    Alcotest.test_case "BENCH_sim.json schema tag" `Quick test_schema_tag;
    Alcotest.test_case "sim metrics follow the product path" `Quick
      test_metrics_product_path;
  ]
