(** The predecode equivalence contract: the compiled stepper and the
    interpretive reference must be {e bit-identical} on every
    observable — cycles, every energy ledger, per-core counters, the
    leakage refreshes, the event trace, the energy profile, final shared
    memory, the return value, and the diagnostic of a run that fails —
    not merely "close".
    The property below throws randomly generated parallel programs at
    both modes on every zoo machine, every bundled workload runs on every
    zoo machine in both, and the unit tests pin the section loop's exits,
    the outcome counters and the stepper's allocation. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Profile = Lp_sim.Profile
module Ledger = Lp_power.Energy_ledger
module Gen = Lp_robust.Gen

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

(** Every field of an outcome of [prog] but [predecode] itself, one
    field per line, floats in hex ([%h]) so equal text means bit-equal
    values.  The final memory is each global of [prog], read through
    [Sim.shared_array]: a global the outcome lacks, or holds at another
    size, fails the test, so two runs that both lost their memory do not
    compare equal. *)
let fingerprint (prog : Lp_ir.Prog.t) (o : Sim.outcome) =
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
    (fun (g : Lp_ir.Prog.global) ->
      let name = g.Lp_ir.Prog.gsym in
      match Sim.shared_array o name with
      | Some a when Array.length a = g.Lp_ir.Prog.gsize ->
        row ("shared " ^ name) value a
      | Some a ->
        Alcotest.failf "global %s: %d words in the outcome, %d declared" name
          (Array.length a) g.Lp_ir.Prog.gsize
      | None -> Alcotest.failf "global %s: missing from the outcome" name)
    prog.Lp_ir.Prog.globals;
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
  | Ok (compiled, o) -> fingerprint compiled.Compile.prog o
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
    scheduler's fast path) or, unless [plain_only], also instrumented (a
    64-event trace and the energy profile on); [None] when they agree
    everywhere. *)
let disagreement ?(plain_only = false) source =
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
        (if plain_only then [ false ] else [ false; true ]))
    zoo

let prop_modes_identical =
  QCheck.Test.make ~count:40
    ~name:"compiled and interpretive modes are bit-identical on every machine"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match disagreement (Gen.generate ~seed).Gen.source with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(** Fixed programs the generator cannot produce: every bundled workload,
    among them floating point (which pacduo-2c, having no FPU, rejects at
    compile time) and DVFS regions (generated programs never get one).
    Each runs plain on every zoo machine; fdotprod, histogram and
    jpegblocks also run instrumented, since tracing and profiling every
    workload would more than double the case's time. *)
let test_modes_identical_workloads () =
  List.iter
    (fun (w : Lp_workloads.Workload.t) ->
      let name = w.Lp_workloads.Workload.name in
      let plain_only =
        not (List.mem name [ "fdotprod"; "histogram"; "jpegblocks" ])
      in
      Option.iter
        (fun msg -> Alcotest.failf "%s: %s" name msg)
        (disagreement ~plain_only w.Lp_workloads.Workload.source))
    Lp_workloads.Suite.all

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
  | Ok o -> fingerprint prog o
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

(** A counted loop from [main]'s current block: a head that compares
    [i] with [n] and ends in a [Br], and a body that [body b i acc]
    emits (it returns the accumulator's next value), then steps [i] and
    jumps back to the head.  Each iteration adds around its body, so a
    section runs through both terminators with encoded instructions on
    either side.  Returns the accumulator after the loop. *)
let counted_loop b n acc body =
  let i = Builder.int_const b 0 in
  let acc = Builder.emit_reg b (fun d -> Ir.Move (d, acc)) in
  let head = Builder.new_block b and loop = Builder.new_block b in
  let out = Builder.new_block b in
  Builder.set_term b (Ir.Jmp head.Ir.bid);
  Builder.switch_to b head;
  let more = Builder.binop b Ir.Lt (reg i) (int n) in
  Builder.set_term b (Ir.Br (reg more, loop.Ir.bid, out.Ir.bid));
  Builder.switch_to b loop;
  Builder.move b acc (adds b 2 (body b (reg i) (adds b 2 (reg acc))));
  Builder.move b i (add b (reg i) (int 1));
  Builder.set_term b (Ir.Jmp head.Ir.bid);
  Builder.switch_to b out;
  reg acc

(** A multiply on a gated multiplier on the fourth iteration only, in a
    block the loop's body branches to: the section runs through three
    iterations' branches and leaves at the multiply for its wakeup. *)
let loop_wakeup =
  hand_built (fun b ->
      gate b [ Lp_power.Component.Multiplier ];
      counted_loop b 6 (int 1) (fun b i x ->
          let r = Builder.emit_reg b (fun d -> Ir.Move (d, x)) in
          let mul = Builder.new_block b and join = Builder.new_block b in
          let fourth = Builder.binop b Ir.Eq i (int 3) in
          Builder.set_term b (Ir.Br (reg fourth, mul.Ir.bid, join.Ir.bid));
          Builder.switch_to b mul;
          Builder.move b r (reg (Builder.binop b Ir.Mul x (int 3)));
          Builder.set_term b (Ir.Jmp join.Ir.bid);
          Builder.switch_to b join;
          reg r))

(** The load/store unit gated before a loop whose every iteration
    stores to and loads from a shared array: the section that enters
    the loop through its [Jmp] and [Br] leaves at the first store for
    its wakeup, and the loop's later iterations run in sections. *)
let ldst_wakeup =
  hand_built
    ~globals:[ { Prog.gsym = "g"; gty = Ir.I; gsize = 4; ginit = None } ]
    (fun b ->
      gate b [ Lp_power.Component.Load_store ];
      counted_loop b 6 (int 2) (fun b i x ->
          let j = reg (Builder.binop b Ir.And i (int 3)) in
          Builder.store b (shared "g") j x;
          add b x (reg (Builder.load b (shared "g") j))))

(** Hand-built programs that stop the compiled stepper's section loop
    at an instruction with encoded instructions before and after it,
    one program per way out of a section, per run-time fault
    ([`Error "E_RUNTIME"]) and per fault of the IR, which [Sim.create]'s
    verifier rejects in both steppers ([`Error "E_VERIFY"]); loops whose
    sections run through [Br] and [Jmp] and leave on a later iteration,
    or run to the end; the last two are programs the steppers once ran
    differently.  Each comes with what the run must end in. *)
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
    ( "dvfs to a level the ladder lacks", `Error "E_RUNTIME",
      hand_built (fun b ->
          let x = adds b 3 (int 1) in
          ignore (Builder.emit b (Ir.Dvfs 99));
          adds b 3 x) );
    ( "loop through both terminators", `Ok,
      hand_built
        ~globals:
          [ { Prog.gsym = "tab"; gty = Ir.I; gsize = 4;
              ginit = Some [ 5; -6; 7; 8 ] } ]
        (fun b ->
          counted_loop b 40 (int 1) (fun b i x ->
              let j = Builder.binop b Ir.And i (int 3) in
              let v = reg (Builder.load b (rom "tab") (reg j)) in
              reg (Builder.emit_reg b (fun d -> Ir.Mac (d, x, v, i))))) );
    ("implicit wakeup on the fourth iteration", `Ok, loop_wakeup);
    ( "division by zero on the fourth iteration", `Error "E_RUNTIME",
      hand_built (fun b ->
          counted_loop b 6 (int 7) (fun b i x ->
              let d = Builder.binop b Ir.Sub i (int 3) in
              reg (Builder.binop b Ir.Div x (reg d)))) );
    ( "out-of-bounds ROM read on the fifth iteration", `Error "E_RUNTIME",
      hand_built
        ~globals:
          [ { Prog.gsym = "tab"; gty = Ir.I; gsize = 4;
              ginit = Some [ 1; 2; 3; 4 ] } ]
        (fun b ->
          counted_loop b 6 (int 0) (fun b i x ->
              add b x (reg (Builder.load b (rom "tab") i)))) );
    ( "out-of-bounds shared read on the fourth iteration", `Error "E_RUNTIME",
      hand_built ~globals:g4 (fun b ->
          counted_loop b 6 (int 0) (fun b i x ->
              Builder.store b (shared "g") (reg (Builder.binop b Ir.And i (int 3))) x;
              add b x (reg (Builder.load b (shared "g") (add b i (int 1)))))) );
    ( "out-of-bounds shared write on the fourth iteration", `Error "E_RUNTIME",
      hand_built ~globals:g4 (fun b ->
          counted_loop b 6 (int 0) (fun b i x ->
              let j = reg (Builder.binop b Ir.And i (int 3)) in
              let y = add b x (reg (Builder.load b (shared "g") j)) in
              Builder.store b (shared "g") (add b i (int 1)) y;
              y)) );
    ("implicit wakeup of a gated ldst unit at a store", `Ok, ldst_wakeup);
    ( "int and float immediates stored into int and float arrays", `Ok,
      hand_built
        ~globals:
          [ { Prog.gsym = "g"; gty = Ir.I; gsize = 4; ginit = None };
            { Prog.gsym = "gf"; gty = Ir.F; gsize = 4; ginit = None } ]
        ~frame:[ ("loc", Ir.I, 4); ("floc", Ir.F, 4) ]
        (fun b ->
          let local name = { Ir.sym_name = name; sym_space = Ir.Frame } in
          counted_loop b 4 (int 0) (fun b i x ->
              Builder.store b (shared "g") i (int (-5));
              Builder.store b (shared "gf") i (Ir.Imm (Ir.Cfloat (-2.75)));
              Builder.store b (local "loc") i (int 0x7fffffff);
              Builder.store b (local "floc") i (Ir.Imm (Ir.Cfloat 0.125));
              let f = reg (Builder.load b (local "floc") i) in
              Builder.store b (shared "gf") (int 3) f;
              add b x (reg (Builder.load b (local "loc") (int 2))))) );
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

(** Loops for farmem-4c, whose local store is a cache that misses every
    64th access and whose shared arrays of 1024 words or more live in
    the far tier: one stores to and loads from a frame array, so its
    sections leave at a store or a load for the periodic miss; one
    stores to and loads from a far-tier global, so each access in a
    section pays the tier's latency and energy. *)
let farmem_programs =
  let local name = { Ir.sym_name = name; sym_space = Ir.Frame } in
  [
    ( "frame-array stores across the periodic miss",
      hand_built ~frame:[ ("loc", Ir.I, 8) ] (fun b ->
          counted_loop b 50 (int 1) (fun b i x ->
              let j = reg (Builder.binop b Ir.And i (int 7)) in
              Builder.store b (local "loc") j x;
              Builder.store b (local "loc") (int 7) i;
              add b x (reg (Builder.load b (local "loc") j)))) );
    ( "loads and stores of a far-tier global",
      hand_built
        ~globals:[ { Prog.gsym = "big"; gty = Ir.I; gsize = 2048; ginit = None } ]
        (fun b ->
          counted_loop b 30 (int 1) (fun b i x ->
              let j = reg (Builder.binop b Ir.Mul i (int 67)) in
              Builder.store b (shared "big") j x;
              add b x (reg (Builder.load b (shared "big") (int 0))))) );
  ]

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
  List.iter
    (fun prog ->
      Alcotest.(check int) "the wakeup happened" 1
        (Sim.run ~machine prog).Sim.implicit_wakeups)
    [ implicit_wakeup; loop_wakeup; ldst_wakeup ];
  let machine = Machine.farmem () in
  let on = observe ~machine ~predecode:true ~instrumented:false miss_source in
  let off = observe ~machine ~predecode:false ~instrumented:false miss_source in
  if on <> off then begin
    let (x, y) = first_diff on off in
    Alcotest.failf "farmem misses: compiled %S, interpretive %S" x y
  end;
  List.iter
    (fun (name, prog) ->
      let on = observe_ir ~machine ~predecode:true prog in
      let off = observe_ir ~machine ~predecode:false prog in
      if String.starts_with ~prefix:"error " on then
        Alcotest.failf "farmem %s: %s" name on;
      if on <> off then begin
        let (x, y) = first_diff on off in
        Alcotest.failf "farmem %s: compiled %S, interpretive %S" name x y
      end)
    farmem_programs

(** [x] from 0 up by 3, then 1, until it passes 40, and return it: the
    loop's exit test is in the middle of its iteration.  56 steps: two
    before the loop, five for each of ten iterations, three of the
    eleventh, whose test exits, and the return, so step 55 is in the
    middle of an iteration. *)
let budget_prog =
  let bump b x k = ignore (Builder.emit b (Ir.Binop (Ir.Add, x, reg x, int k))) in
  hand_built (fun b ->
      let x = Builder.int_const b 0 in
      let loop = Builder.new_block b and latch = Builder.new_block b in
      let out = Builder.new_block b in
      Builder.set_term b (Ir.Jmp loop.Ir.bid);
      Builder.switch_to b loop;
      bump b x 3;
      let past = Builder.binop b Ir.Gt (reg x) (int 40) in
      Builder.set_term b (Ir.Br (reg past, out.Ir.bid, latch.Ir.bid));
      Builder.switch_to b latch;
      bump b x 1;
      Builder.set_term b (Ir.Jmp loop.Ir.bid);
      Builder.switch_to b out;
      reg x)

let budget_steps = 56

(** The loop of {!budget_prog} with a shared store after the first add
    and the second add's operand loaded back from the global: from 0
    up by 3, stored, then loaded and up by 1, until it passes 40.  77
    steps: two before the loop, seven for each of ten iterations, four
    of the eleventh, whose test exits, and the return. *)
let budget_mem_prog =
  let bump b x k = ignore (Builder.emit b (Ir.Binop (Ir.Add, x, reg x, int k))) in
  let g = shared "g" in
  hand_built
    ~globals:[ { Prog.gsym = "g"; gty = Ir.I; gsize = 1; ginit = None } ]
    (fun b ->
      let x = Builder.int_const b 0 in
      let loop = Builder.new_block b and latch = Builder.new_block b in
      let out = Builder.new_block b in
      Builder.set_term b (Ir.Jmp loop.Ir.bid);
      Builder.switch_to b loop;
      bump b x 3;
      Builder.store b g (int 0) (reg x);
      let past = Builder.binop b Ir.Gt (reg x) (int 40) in
      Builder.set_term b (Ir.Br (reg past, out.Ir.bid, latch.Ir.bid));
      Builder.switch_to b latch;
      ignore (Builder.emit b (Ir.Load (x, g, int 0)));
      bump b x 1;
      Builder.set_term b (Ir.Jmp loop.Ir.bid);
      Builder.switch_to b out;
      reg x)

(** The step budget is exact in both steppers, wherever it falls: each
    program ends [Ok] under its own step count and [E_STEP_LIMIT] one
    step short, and under every smaller budget (one of them in the
    middle of each iteration, and at each shared load and store) the
    limit fires with the core in the same state in both: the steps
    counted, the instructions, cycles, clock and ledger, its bus
    transactions, and where the frame stands.  The third program is
    farmem-4c's loop of frame-array stores, so a budget falls on each
    side of the access that takes the periodic miss. *)
let test_step_budget () =
  let generic = Machine.generic ~n_cores:1 () in
  let opts predecode max_steps =
    { Sim.default_options with Sim.predecode; max_steps }
  in
  List.iter
    (fun (machine, prog, steps) ->
      List.iter
        (fun predecode ->
          let run max_steps =
            match
              Compile.guard (fun () ->
                  Ok (Sim.run ~opts:(opts predecode max_steps) ~machine prog))
            with
            | Ok o -> Printf.sprintf "ok %d steps" o.Sim.steps
            | Error d -> d.Lp_util.Diag.code
          in
          Alcotest.(check string) "ends under its own step count"
            (Printf.sprintf "ok %d steps" steps) (run steps);
          Alcotest.(check string) "one step short" "E_STEP_LIMIT"
            (run (steps - 1)))
        [ true; false ];
      let at_limit predecode max_steps =
        let t = Sim.create ~opts:(opts predecode max_steps) ~machine prog in
        (match Sim.run_loop t with
        | () -> Alcotest.failf "budget %d: no step limit" max_steps
        | exception Sim.Step_limit_exceeded -> ());
        let c = t.Sim.cores.(0) in
        let fr = List.hd c.Sim.stack in
        Printf.sprintf
          "steps %d instrs %d cycles %d time %h total %h bus %d at %d.%d"
          t.Sim.steps c.Sim.instr_count c.Sim.cycles c.Sim.clk.Sim.time
          (Ledger.total c.Sim.ledger) c.Sim.bus_txns fr.Sim.block fr.Sim.idx
      in
      for max_steps = 1 to steps - 1 do
        Alcotest.(check string)
          (Printf.sprintf "state at the limit of %d steps" max_steps)
          (at_limit false max_steps) (at_limit true max_steps)
      done)
    [ (generic, budget_prog, budget_steps); (generic, budget_mem_prog, 77);
      ( Machine.farmem (),
        List.assoc "frame-array stores across the periodic miss"
          farmem_programs,
        756 ) ]

(** A section that crosses a loop's back edge has no block end to stop
    at: the batch loop bounds it by {!Sim.section_quantum} steps, so the
    cooperative deadline is checked inside an endless loop, and the run
    ends [E_DEADLINE] long before the default step limit. *)
let test_deadline_in_section () =
  let machine = Machine.generic ~n_cores:1 () in
  let prog =
    (Compile.compile ~opts:Compile.baseline ~machine
       "int main() { int x = 0; while (1) { x = x + 1; } return x; }")
      .Compile.prog
  in
  List.iter
    (fun predecode ->
      let opts =
        { Sim.default_options with
          Sim.predecode; deadline = Lp_util.Deadline.after_ms 50 }
      in
      let start = Unix.gettimeofday () in
      let code =
        match Compile.guard (fun () -> Ok (Sim.run ~opts ~machine prog)) with
        | Ok _ -> "ran to the end"
        | Error d -> d.Lp_util.Diag.code
      in
      let elapsed = Unix.gettimeofday () -. start in
      Alcotest.(check string) "deadline" "E_DEADLINE" code;
      if elapsed > 1.0 then
        Alcotest.failf "predecode %b: the deadline of 50 ms ended after %.2f s"
          predecode elapsed)
    [ true; false ]

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
    [full] on generic-4c.  Each bound is the value with typed memory
    plus 10%, rounded up to the next hundredth.  Typed registers and
    memory leave the allocation to [Sim.create], frames and channel
    traffic; a register or memory write or a loop local that boxes its
    value shows up here as several tenths of a word per step (fdotprod
    read 0.467 while every float store boxed), and an encoding that
    allocates more shows up on the short runs (dotprod, crc32). *)
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
    [ ("fir", 0.02); ("dotprod", 0.13); ("fdotprod", 0.14); ("matmul", 0.02);
      ("conv2d", 0.03); ("iir", 0.05); ("imgpipe", 0.74); ("jpegblocks", 0.10);
      ("audio5", 1.74); ("prodcons", 1.08); ("susan", 0.10);
      ("fraciter", 0.07); ("crc32", 0.08); ("stringsearch", 0.02);
      ("histogram", 0.05); ("adpcm", 0.02); ("fft", 0.31); ("phases", 0.14);
      ("memops", 0.09); ("peakdetect", 0.04); ("tri", 0.05) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_modes_identical;
    Alcotest.test_case "modes agree on fixed workloads" `Quick
      test_modes_identical_workloads;
    Alcotest.test_case "every way out of the section loop" `Quick
      test_section_exits;
    Alcotest.test_case "exact step budget across back edges" `Quick
      test_step_budget;
    Alcotest.test_case "deadline inside a long section" `Quick
      test_deadline_in_section;
    Alcotest.test_case "outcome counters" `Quick test_counters;
    Alcotest.test_case "stepper allocation per step" `Quick
      test_stepper_allocation;
  ]
