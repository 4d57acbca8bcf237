(** Cycle/energy simulator for IR programs on an embedded multicore
    machine model.

    Each core interprets its entry function with a private call stack and
    local time line (nanoseconds).  Cores interact through blocking
    channels, barriers and shared memory; all shared traffic is serialised
    on one bus whose occupancy creates contention.  Power state is
    simulated faithfully: per-component power gating (gated components
    leak nothing; using a gated component triggers an implicit wakeup
    penalty and is counted as a compiler bug), and per-core DVFS (compute
    cycles stretch with frequency, while bus and shared-memory time is
    frequency-independent — which is what makes DVFS profitable on
    memory-bound regions).

    Two execution modes produce byte-identical results:

    - the default {e compiled} mode pre-decodes every function (see
      {!Predecode}) and encodes each basic block once into flat arrays —
      an opcode and four ints per instruction and for the terminator —
      with operands, memory arrays, call targets and costs resolved up
      front.  A block is data: no closure is built per instruction.
      Each run of the core-local register instructions ([Const],
      [Move], [Binop], [Unop], [Mac] and loads of frame and ROM arrays)
      executes in one loop that makes no call and keeps the core's clock
      and ledger in registers ({!run_section}); every other instruction,
      and every terminator, runs on its own in {!step_encoded}.
      Registers are unboxed: each frame holds an [int array] and a
      [float array], one per register class.  [Value.t] boxes remain at
      the boundaries only: memory arrays, channel messages and the value
      a core halts with;
    - the {e interpretive} mode ([predecode = false], reachable through
      [LP_NO_SIM_PREDECODE=1] / [--no-sim-predecode]) keeps the original
      per-instruction match dispatch over [Value.t] registers and serves
      as the reference the compiled mode is checked against.

    Both modes start every register at the zero of its class.  Neither
    checks at run time what the IR alone shows: {!create} runs
    {!Lp_ir.Verify.verify_prog} on a program the verifier has not
    accepted since its last change ({!Prog.verified}), so both modes
    reject, with [Verify.Invalid], every program it rejects, and fail
    at run time only on what a run alone shows: a division by zero, an
    index out of bounds, a DVFS level the executing core's ladder
    lacks.  Both refresh a core's leakage ({!recompute_leak}) at the
    same points: at every gating instruction, every operating-point
    change and every implicit wakeup.

    The compiled mode is fast because every remaining float operation is
    one the interpretive mode also performs, in the same order — the
    speedup comes from deleting lookups (hash tables, [**], divisions,
    list→array copies), never from reassociating float arithmetic, which
    is what makes byte-identical cycle/energy output possible. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Verify = Lp_ir.Verify
module Component = Lp_power.Component
module Power_model = Lp_power.Power_model
module Operating_point = Lp_power.Operating_point
module Energy_ledger = Lp_power.Energy_ledger
module Machine = Lp_machine.Machine

exception Deadlock of string
exception Step_limit_exceeded

type status =
  | Ready
  | Blocked_send of int * Value.t
  | Blocked_recv of int * Ir.reg
  | Blocked_barrier of int
  | Halted of Value.t option

(** A callee resolved once at simulator construction: the interpreter's
    call dispatch must not pay a by-name lookup plus [List.nth] parameter
    walks on every [Ir.Call]. *)
type fentry = {
  fe_func : Prog.func;
  fe_params : Ir.reg array;  (** parameter registers, in position order *)
  fe_dfunc : Predecode.dfunc;
  fe_zero : Value.t array;
      (** an interpretive frame's first registers: the zero of each
          register's class; [[||]] when the compiled stepper runs *)
}

(** Hot per-core float state, segregated into an all-float record:
    OCaml stores such records flat (unboxed), so the per-instruction
    updates below ([time], [busy_ns]) write raw doubles instead of
    allocating a boxed float per store, as the same mutable fields
    would inside the mixed [core] record. *)
type core_clock = {
  mutable time : float;
  mutable busy_ns : float;
  mutable bus_wait_ns : float;   (** time spent waiting for a busy bus *)
  mutable leak_mw : float;
  mutable ns_per_cycle : float;  (** 1000 / f at the current point *)
}

type frame = {
  fcore : core;  (** owning core *)
  func : Prog.func;
  dfunc : Predecode.dfunc;
  cfun : cfun;
  regs : Value.t array;
      (** the interpretive stepper's registers, by register number;
          [[||]] in a compiled frame *)
  iregs : int array;
  fregs : float array;
      (** the compiled stepper's registers, unboxed: the int and the
          float registers, each at its slot in [Predecode.df_regs];
          [[||]] in an interpretive frame *)
  farrs : Value.t array array;
      (** the frame arrays, in [Prog.frame_arrays] position order; a
          name resolves to its position through [dfunc.df_frame_idx] *)
  mutable block : Ir.label;
  mutable idx : int;
  mutable pending_dst : Ir.reg option;  (** interpretive: a call's result *)
  mutable ret_dst : int;
      (** compiled: where a call's result goes, [2 * slot + class] of the
          destination register (see {!store_value}), or -1 *)
  mutable dbid : Ir.label;             (** interpretive block cache key *)
  mutable dblk : Predecode.dblock;
  mutable cblk : cblock;               (** compiled current block *)
}

(** One compiled basic block: [cb_n] instructions, then the terminator
    at index [cb_n].  Entry [i] is the opcode [cb_op.(i)] and the
    [enc_width] ints of [cb_code] from [i * enc_width] (see {!opc}); the
    pools hold what does not fit in an int. *)
and cblock = {
  cb_n : int;
  cb_op : opc array;
  cb_code : int array;
  cb_fk : float array;  (** float immediates of register instructions *)
  cb_vals : Value.t array;
      (** the immediates a store, send, call or return boxes, boxed once *)
  cb_arrs : Value.t array array;  (** the ROM and shared arrays accessed *)
  cb_calls : call_site array;
  cb_db : Predecode.dblock;
      (** the decoded block: the symbol an out-of-bounds error names *)
  cb_slots : Profile.slot array array;
      (** per instruction and the terminator, its profile slot on each
          core; [[||]] unless profiling *)
}

(** A call to a known function: its arguments (see {!boxed_operand})
    and the destination codes of the callee's parameters. *)
and call_site = { cs_cf : cfun; cs_args : int array; cs_params : int array }

(** The opcode of an instruction or terminator.  The first group are
    the register instructions {!run_section} runs: the core-local ones
    that touch no memory but a register, a frame array or a ROM array
    ([Const], [Move], [Binop], [Unop], [Mac] and local [Load]).  Each
    kind has a generic opcode ([Ibin], [Fbin], [Un], [Mac], [Load]) that
    runs every operand shape, reading from the cost word which operands
    are immediates (and, but for [Mac] and [Load], the operator).  The
    shapes that dominate the executed mix have their own opcode, with no
    such reads: an int binop of two registers ([_rr]) or of a register
    and an immediate ([_ri]), a [Mac] of three registers, and an int
    load from a ROM array at a register index (docs/PERF.md, "Opcodes
    per operand shape", measures the generic paths against them).  The
    second group, from [Load_sh], run only in {!step_encoded}: every
    other instruction, one opcode per kind, and the terminators. *)
and opc =
  | Add_rr | Sub_rr | Mul_rr | Div_rr | Mod_rr | Shl_rr | Shr_rr | And_rr
  | Or_rr | Xor_rr | Lt_rr | Le_rr | Gt_rr | Ge_rr | Eq_rr | Ne_rr
  | Add_ri | Sub_ri | Mul_ri | Div_ri | Mod_ri | Shl_ri | Shr_ri | And_ri
  | Or_ri | Xor_ri | Lt_ri | Le_ri | Gt_ri | Ge_ri | Eq_ri | Ne_ri
  | Ibin | Fbin | Un
  | Mac_rrr | Mac
  | Const_i | Const_f | Move_i | Move_f
  | Load_ri  (** a ROM array into an int register, at a register index *)
  | Load
  | Load_sh  (** a load from shared memory *)
  | Store | Faa | Call | Pg_off | Pg_on | Dvfs | Send | Recv | Barrier
  | Jmp | Br | Ret

(** A compiled function.  [cf_blocks] is indexed by block label and
    filled at [create]; a call site names its callee's [cfun] and a
    branch reads its frame's, so functions encode in any order, mutual
    recursion included. *)
and cfun = {
  cf_fe : fentry;
  mutable cf_blocks : cblock array;  (** [||] when compilation is off *)
}

and core = {
  id : int;
  cls : int;                  (** index into [machine.classes] *)
  pm : Power_model.t;
      (** this core's class power model; every energy charge and ladder
          lookup goes through it, so a heterogeneous machine charges
          each core by its own class *)
  perf_scale : float;
      (** cycles this core needs per reference cycle (class perf scale);
          folded into [clk.ns_per_cycle] *)
  mutable stack : frame list;
  mutable status : status;
  clk : core_clock;
  mutable point : Operating_point.t;
  powered : bool array;
  ledger : Energy_ledger.t;
  (* raw accumulator cells of [ledger], hoisted so the per-instruction
     charges below are plain float-array read-modify-writes (see
     Energy_ledger.raw_by_category) *)
  lg_cat : float array;
  lg_comp : float array;
  lg_tot : float array;
  dyn_row : float array;
      (** per-component dynamic energy at the current point (indexed by
          [Component.index]); refreshed on DVFS transitions *)
  mutable instr_count : int;
  mutable implicit_wakeups : int;
  mutable gate_transitions : int;
  mutable dvfs_transitions : int;
  mutable send_blocks : int;
  mutable recv_blocks : int;
  mutable cycles : int;       (** compute cycles issued (pre-DVFS-stretch) *)
  mutable bus_txns : int;     (** shared-bus transactions *)
  mutable bus_words : int;    (** words moved over the shared bus *)
  mutable local_accs : int;
      (** local-store accesses since the last modelled cache miss; only
          advanced on machines whose local store is a cache *)
  prof_on : bool;             (** sampled once from [options.profile] *)
  prof : Profile.tab;         (** per-core attribution table *)
  mutable prof_cur : Profile.slot;
      (** slot the next charge attributes to; the steppers point it at
          the executing instruction's (function, line) slot, and it
          keeps pointing at a blocking Send/Recv/Barrier while the core
          is blocked, so blocked-time leakage lands on the instruction
          that blocked *)
}

type chan = {
  cap : int;
  queue : (Value.t * float) Queue.t;  (** value, ready time *)
  waiting_senders : int Queue.t;      (** core ids blocked on full queue *)
  mutable total_msgs : int;
  mutable last_pop : float;  (** when a queue slot last freed; a blocked
                                 sender waits (idle) until then *)
}

(** A barrier's arrivals since its last release: how many, and the
    latest arrival time. *)
type barrier_state = { mutable arrived : int; mutable latest : float }

type options = {
  max_steps : int;
  gate_unused_cores : bool;
      (** model the compiler gating every gateable component of cores the
          program does not occupy *)
  trace_limit : int;
      (** record up to this many power/communication events (0 = off);
          while on, the compiled mode single-steps like the reference,
          so the trace interleaves the cores in reference order *)
  predecode : bool;
      (** run compiled blocks (default); [false] selects the
          interpretive reference stepper *)
  deadline : Lp_util.Deadline.t;
      (** cooperative wall-clock deadline checked once per scheduling
          decision; expiry raises the [E_DEADLINE] diagnostic.  Does not
          affect simulated state, so outcomes that finish in time are
          byte-identical with and without a deadline *)
  profile : bool;
      (** attribute every charged nanojoule to the source line that
          spent it (see {!Profile}).  A pure observer: cycles, ledgers
          and the outcome are byte-identical with profiling on or off *)
}

let default_options =
  {
    max_steps = 200_000_000;
    gate_unused_cores = false;
    trace_limit = 0;
    predecode = true;
    deadline = Lp_util.Deadline.none;
    profile = false;
  }

(** A recorded power/communication event: core id, nanosecond timestamp,
    human-readable description. *)
type event = { ev_core : int; ev_ns : float; ev_what : string }

type t = {
  prog : Prog.t;
  machine : Machine.t;
  opts : options;
  fsyms : (string, cfun) Hashtbl.t;  (** every function, by name *)
  decoded_blocks : int;   (** total blocks decoded (once, at creation) *)
  cores : core array;          (** one per entry function *)
  shared : (string, Value.t array) Hashtbl.t;
  chans : chan array;
  barriers : barrier_state array;
  bus_free : float array;
      (** one-element array, not a [mutable float] field: a float store
          into this mixed record would box on every bus transaction *)
  mutable steps : int;
  mutable trace : event list;  (** newest first; bounded by trace_limit *)
  mutable trace_len : int;
  mutable leak_recomputes : int;
  mutable sched_event : bool;
      (** set by anything that can change which cores are schedulable —
          a channel push/pop, a barrier release — since the last
          [unblock_pass]; while it stays clear, the compiled mode keeps
          stepping the picked core without rescanning (see
          {!run_sched_batch}) *)
  mutable batch_other : int;
      (** index of the runner-up core bounding the current batch, or
          -1; globally-visible instructions check their execution turn
          against it (see {!visible_turn}) *)
  mutable live_cores : int;
      (** cores not yet [Halted]; maintained at the two halt sites so
          the scheduler's are-we-done check is one integer compare
          instead of a status scan per iteration *)
  mutable unblock_dirty : bool;
      (** set when the next {!unblock_pass} could possibly make
          progress: a core just blocked on a channel, or anything that
          sets [sched_event] happened.  While clear, the pass is a
          provable no-op (it only acts on blocked senders/receivers
          and on channel state, none of which changed) and the
          compiled scheduler skips it *)
  faults_armed : bool;  (** sampled once at construction: keeps the
                            per-transaction bus hook off the hot path *)
  (* Nominal-frequency constants, hoisted out of the per-access path.
     All are exactly the values the interpretive mode recomputes. *)
  bus_txn1_ns : float;       (** bus occupancy of a one-word transaction *)
  shared_extra_ns : float;   (** off-bus near-tier shared-memory access time *)
  bus_word_energy_nj : float;
  (* Tiered shared memory: symbols of at least [far_threshold_words]
     words live in the far tier on machines that have one.  The table is
     empty on near-only machines, so their access paths are unchanged. *)
  far_syms : (string, unit) Hashtbl.t;
  far_extra_ns : float;      (** off-bus far-tier access time *)
  far_energy_nj : float;     (** far tier per-access energy *)
  (* Cache local store (deterministic periodic miss model); a period of
     0 means the local store is a scratchpad and misses never happen. *)
  cache_miss_period : int;
  cache_miss_penalty : int;
  cache_miss_energy_nj : float;
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let recompute_leak t (c : core) =
  t.leak_recomputes <- t.leak_recomputes + 1;
  let pm = c.pm in
  let scale = Operating_point.leakage_scale ~nominal:(Power_model.nominal pm) c.point in
  let sum = ref 0.0 in
  List.iter
    (fun comp ->
      if c.powered.(Component.index comp) then
        sum :=
          !sum +. (pm.Power_model.leak_power_mw.(Component.index comp) *. scale))
    t.machine.Machine.components;
  c.clk.leak_mw <- !sum

(** Refresh the per-core caches derived from the operating point.  The
    cached values are bit-identical to what the uncached code computes:
    [ns_of_cycles n] is [float_of_int n *. (1000 /. f)], the class perf
    scale multiplies in ([x *. 1.0] is bitwise [x], so cores of scale
    1.0 — every core of every pre-existing machine — are untouched),
    and [dynamic_energy ~ops:1] is [(1.0 *. e) *. scale = e *. scale]. *)
let refresh_point_caches _t (c : core) =
  c.clk.ns_per_cycle <-
    1000.0 /. c.point.Operating_point.freq_mhz *. c.perf_scale;
  let pm = c.pm in
  let scale =
    Operating_point.dynamic_scale ~nominal:(Power_model.nominal pm) c.point
  in
  List.iter
    (fun comp ->
      let i = Component.index comp in
      c.dyn_row.(i) <- pm.Power_model.dyn_energy_nj.(i) *. scale)
    Component.all

let dummy_cblock =
  { cb_n = 0; cb_op = [||]; cb_code = [||]; cb_fk = [||]; cb_vals = [||];
    cb_arrs = [||]; cb_calls = [||]; cb_db = Predecode.dummy_block;
    cb_slots = [||] }

(* Every register starts at the zero of its class, in both steppers. *)
let make_frame (fcore : core) (cf : cfun) : frame =
  let fe = cf.cf_fe in
  let f = fe.fe_func in
  let df = fe.fe_dfunc in
  let compiled = Array.length cf.cf_blocks > 0 in
  let farrs =
    Array.of_list
      (List.map
         (fun (_, ty, len) -> Array.make len (Value.zero_of_ty ty))
         f.Prog.frame_arrays)
  in
  let cblk =
    if Array.length cf.cf_blocks > 0 then cf.cf_blocks.(f.Prog.entry)
    else dummy_cblock
  in
  {
    fcore;
    func = f;
    dfunc = df;
    cfun = cf;
    regs = (if compiled then [||] else Array.copy fe.fe_zero);
    iregs = (if compiled then Array.make df.Predecode.df_nints 0 else [||]);
    fregs =
      (if compiled then Array.make df.Predecode.df_nfloats 0.0 else [||]);
    farrs;
    block = f.Prog.entry;
    idx = 0;
    pending_dst = None;
    ret_dst = -1;
    dbid = -1;
    dblk = Predecode.dummy_block;
    cblk;
  }

(* Boxing the initial [Value.t] image of a program's globals dominates
   [create] for data-heavy programs (one allocation plus a write-barrier
   store per initialised element), and the image is a pure function of
   the program — so it is built once per program and block-copied per
   simulation.  Values are immutable, so sharing the boxes across
   simulations is invisible; the [Array.copy] keeps writes to [Shared]
   arrays run-local.  Single entry, keyed by physical equality: drivers
   (benchmarks, experiment sweeps) create many simulators of the same
   program in a row. *)
let shared_image_cache : (Prog.t * (string * Value.t array) list) option ref =
  ref None

let shared_image (prog : Prog.t) =
  match !shared_image_cache with
  | Some (p, img) when p == prog -> img
  | _ ->
    let img =
      List.map
        (fun (g : Prog.global) ->
          let arr = Array.make g.Prog.gsize (Value.zero_of_ty g.Prog.gty) in
          (match g.Prog.ginit with
          | Some init ->
            List.iteri
              (fun i v ->
                if i < g.Prog.gsize then
                  arr.(i) <-
                    (match g.Prog.gty with
                    | Ir.I -> Value.Vint (Value.wrap32 v)
                    | Ir.F -> Value.Vfloat (float_of_int v)))
              init
          | None -> ());
          (g.Prog.gsym, arr))
        prog.Prog.globals
    in
    shared_image_cache := Some (prog, img);
    img

let init_shared (prog : Prog.t) =
  let shared = Hashtbl.create 16 in
  List.iter
    (fun (sym, arr) -> Hashtbl.replace shared sym (Array.copy arr))
    (shared_image prog);
  shared

(* ------------------------------------------------------------------ *)
(* Time & energy plumbing                                              *)
(* ------------------------------------------------------------------ *)

(** Trace hook of both steppers: the description string is only built
    when it will actually be kept, so tracing costs nothing when
    [trace_limit] is 0 (the overwhelmingly common case). *)
let record t (c : core) f =
  if t.trace_len < t.opts.trace_limit then begin
    t.trace <- { ev_core = c.id; ev_ns = c.clk.time; ev_what = f () } :: t.trace;
    t.trace_len <- t.trace_len + 1
  end

(* [Float.max] without the cross-module call (which boxes both floats
   and the result): simulation clocks are never NaN and never -0.0, so
   a plain comparison computes the identical value. *)
let[@inline always] fmax a b : float = if a >= b then a else b

(* the bus and shared memory tick at the machine's reference clock:
   nominal frequency of core class 0 *)
let nominal_ns t n =
  Operating_point.ns_of_cycles
    (Power_model.nominal (Machine.ref_power t.machine)) n

(** Advance a core's clock, charging leakage of powered components at
    the rate {!recompute_leak} last set. *)
let[@inline always] advance _t (c : core) dt ~idle =
  if dt > 0.0 then begin
    (* hand-inlined [Energy_ledger.charge ~category:Leakage_*]: same
       check, same accumulation order (category then total) *)
    let nj = c.clk.leak_mw *. dt *. 1e-3 in
    if nj < 0.0 then Energy_ledger.negative_energy ();
    (* unchecked: the accumulator arrays have fixed sizes (6 categories,
       1 total cell) and every index below is a constant or a
       [Component.index], in range by construction *)
    let lci = if idle then 2 else 1 in
    Array.unsafe_set c.lg_cat lci (Array.unsafe_get c.lg_cat lci +. nj);
    Array.unsafe_set c.lg_tot 0 (Array.unsafe_get c.lg_tot 0 +. nj);
    if c.prof_on then begin
      let sc = c.prof_cur.Profile.sl_cat in
      Array.unsafe_set sc lci (Array.unsafe_get sc lci +. nj)
    end;
    c.clk.time <- c.clk.time +. dt;
    if not idle then c.clk.busy_ns <- c.clk.busy_ns +. dt
  end

(** Bring a blocked core forward to absolute time [target] (idle). *)
let resume_at t (c : core) target =
  if target > c.clk.time then advance t c (target -. c.clk.time) ~idle:true

(** Issue [n] compute cycles on [c] ([nf] is [n] pre-floated): advances
    its clock, stretched by the current operating point through the
    ns-per-cycle cache so the class perf scale applies (on scale 1.0
    this is bitwise [Operating_point.ns_of_cycles c.point n]), and feeds
    the per-core cycle counter. *)
let[@inline always] spend_nf t (c : core) n nf =
  c.cycles <- c.cycles + n;
  if c.prof_on then
    c.prof_cur.Profile.sl_cycles <- c.prof_cur.Profile.sl_cycles + n;
  advance t c (nf *. c.clk.ns_per_cycle) ~idle:false

let spend t (c : core) n = spend_nf t c n (float_of_int n)

(** Charge [nj] to [c]'s ledger and, when profiling, to the same
    category of the slot the charge attributes to. *)
let charge ?component (c : core) category nj =
  Energy_ledger.charge c.ledger ~category ?component nj;
  if c.prof_on then begin
    let sc = c.prof_cur.Profile.sl_cat in
    let k = Energy_ledger.category_index category in
    Array.unsafe_set sc k (Array.unsafe_get sc k +. nj)
  end

let charge_dynamic _t (c : core) comp =
  charge c Energy_ledger.Dynamic ~component:comp
    (Power_model.dynamic_energy c.pm ~comp ~point:c.point ~ops:1)

(** Serialise a shared-bus transaction: the core waits for the bus, holds
    it for the transfer, then pays [extra_ns] (e.g. memory array access)
    off the bus. *)
let bus_access t (c : core) ~words ~extra_ns =
  (* armed only by fault-injection specs: a transient bus/memory fault *)
  if t.faults_armed then
    Lp_util.Fault.check Lp_util.Fault.Sim_bus ~key:"bus";
  let m = t.machine in
  let start = fmax c.clk.time t.bus_free.(0) in
  let bus_ns =
    nominal_ns t (m.Machine.bus_latency_cycles + (words * m.Machine.bus_word_cycles))
  in
  c.bus_txns <- c.bus_txns + 1;
  c.bus_words <- c.bus_words + words;
  c.clk.bus_wait_ns <- c.clk.bus_wait_ns +. (start -. c.clk.time);
  if c.prof_on then begin
    let s = c.prof_cur in
    s.Profile.sl_bus_txns <- s.Profile.sl_bus_txns + 1;
    s.Profile.sl_bus_words <- s.Profile.sl_bus_words + words;
    s.Profile.sl_bus_wait_ns <-
      s.Profile.sl_bus_wait_ns +. (start -. c.clk.time)
  end;
  t.bus_free.(0) <- start +. bus_ns;
  let finish = start +. bus_ns +. extra_ns in
  advance t c (finish -. c.clk.time) ~idle:false;
  charge c Energy_ledger.Communication
    (float_of_int words *. m.Machine.bus_energy_per_word_nj)

(** Interpretive-mode shared access: one bus transaction plus the
    latency of the tier the symbol lives in; a far-tier access also pays
    the tier's per-access energy (Communication).  [far_syms] is empty
    on near-only machines, so their path is exactly the old one. *)
let shared_access t (c : core) (s : Ir.sym) =
  if Hashtbl.mem t.far_syms s.Ir.sym_name then begin
    bus_access t c ~words:1 ~extra_ns:t.far_extra_ns;
    charge c Energy_ledger.Communication t.far_energy_nj
  end
  else
    bus_access t c ~words:1
      ~extra_ns:(nominal_ns t (Machine.shared_mem_latency_cycles t.machine))

(** Deterministic periodic miss model for cache local stores: every
    [miss_period]-th local access pays the refill penalty and energy.
    A period of 0 (scratchpad machines) makes this a no-op. *)
let local_miss t (c : core) =
  if t.cache_miss_period > 0 then begin
    c.local_accs <- c.local_accs + 1;
    if c.local_accs >= t.cache_miss_period then begin
      c.local_accs <- 0;
      spend t c t.cache_miss_penalty;
      charge c Energy_ledger.Communication t.cache_miss_energy_nj
    end
  end

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let runtime_err fmt = Format.kasprintf (fun s -> raise (Value.Runtime_error s)) fmt

(* the verifier rejects a symbol that names no array *)
let mem_array t (fr : frame) (s : Ir.sym) : Value.t array =
  match s.Ir.sym_space with
  | Ir.Shared | Ir.Rom -> Hashtbl.find t.shared s.Ir.sym_name
  | Ir.Frame ->
    fr.farrs.(Hashtbl.find fr.dfunc.Predecode.df_frame_idx s.Ir.sym_name)

let oob_err what sym idx (a : Value.t array) (fr : frame) =
  runtime_err "out-of-bounds %s %s[%d] (len %d) in %s" what sym idx
    (Array.length a) fr.func.Prog.fname

let mem_read t fr s idx =
  let a = mem_array t fr s in
  if idx < 0 || idx >= Array.length a then
    oob_err "read" (Ir.sym_to_string s) idx a fr;
  a.(idx)

let mem_write t fr s idx v =
  let a = mem_array t fr s in
  if idx < 0 || idx >= Array.length a then
    oob_err "write" (Ir.sym_to_string s) idx a fr;
  a.(idx) <- v

(* ------------------------------------------------------------------ *)
(* Instruction execution (interpretive mode)                           *)
(* ------------------------------------------------------------------ *)

let eval (fr : frame) = function
  | Ir.Reg r -> fr.regs.(r)
  | Ir.Imm c -> Value.of_const c

let setr (fr : frame) r v = fr.regs.(r) <- v

(** An instruction executing on gated component [ci]: implicit wakeup
    with full penalty.  Correct compiler output never triggers this. *)
let wakeup t (c : core) ci =
  let pm = c.pm in
  c.powered.(ci) <- true;
  recompute_leak t c;
  c.implicit_wakeups <- c.implicit_wakeups + 1;
  record t c (fun () ->
      "IMPLICIT WAKEUP of " ^ Component.to_string (Component.of_index ci));
  c.gate_transitions <- c.gate_transitions + 1;
  charge c Energy_ledger.Gating_overhead pm.Power_model.gate_energy_nj;
  spend t c pm.Power_model.wake_latency_cycles

(** The implicit wakeup of an instruction's component [ci], when it is
    gated: the first step of every instruction, in both steppers. *)
let[@inline always] wake t (c : core) ci =
  if not (Array.unsafe_get c.powered ci) then wakeup t c ci

(* channels ride dedicated core-to-core mailbox links (as on PAC-style
   MPSoCs), so transfers pay a fixed link latency without occupying the
   shared bus *)
let complete_send t (sender : core) chan_id v =
  let ch = t.chans.(chan_id) in
  let m = t.machine in
  let link_ns =
    nominal_ns t (m.Machine.bus_latency_cycles + m.Machine.bus_word_cycles)
  in
  advance t sender link_ns ~idle:false;
  (* a sender unblocked by [unblock_pass] still points at its Send slot,
     so the deferred transfer energy attributes correctly *)
  charge sender Energy_ledger.Communication m.Machine.bus_energy_per_word_nj;
  Queue.push (v, sender.clk.time) ch.queue;
  ch.total_msgs <- ch.total_msgs + 1;
  (* a blocked receiver may now have data *)
  t.sched_event <- true;
  t.unblock_dirty <- true

let barrier_participants t = Array.length t.cores

(** [c] arrives at barrier [bid] and blocks there.  Every core takes
    part in every barrier, so the last arrival resumes each core blocked
    on it, at the latest arrival time (the order of arrivals moves
    neither that time nor any core's own resume) plus the bus
    latency. *)
let arrive_barrier t (c : core) bid =
  let b = t.barriers.(bid) in
  record t c (fun () -> Printf.sprintf "arrived at barrier %d" bid);
  b.arrived <- b.arrived + 1;
  b.latest <- fmax b.latest c.clk.time;
  c.status <- Blocked_barrier bid;
  if b.arrived = barrier_participants t then begin
    let release = b.latest +. nominal_ns t t.machine.Machine.bus_latency_cycles in
    for k = 0 to Array.length t.cores - 1 do
      let c = t.cores.(k) in
      match c.status with
      | Blocked_barrier x when x = bid ->
        resume_at t c release;
        c.status <- Ready
      | Ready | Blocked_send _ | Blocked_recv _ | Blocked_barrier _ | Halted _ ->
        ()
    done;
    b.arrived <- 0;
    b.latest <- 0.0;
    (* every participant's schedulability just changed *)
    t.sched_event <- true;
    t.unblock_dirty <- true
  end

(** Execute the terminator of the current block. *)
let exec_term t (c : core) (fr : frame) (term : Ir.term) =
  spend t c 1;
  charge_dynamic t c Component.Branch_unit;
  match term with
  | Ir.Jmp l ->
    fr.block <- l;
    fr.idx <- 0
  | Ir.Br (cond, l1, l2) ->
    fr.block <- (if Value.to_int (eval fr cond) <> 0 then l1 else l2);
    fr.idx <- 0
  | Ir.Ret v_opt -> (
    let v = Option.map (eval fr) v_opt in
    match c.stack with
    | [] -> runtime_err "return with empty stack"
    | _ :: [] ->
      record t c (fun () ->
          "halt"
          ^
          match v with
          | Some value -> " -> " ^ Value.to_string value
          | None -> "");
      c.status <- Halted v;
      t.live_cores <- t.live_cores - 1
    | _ :: (caller :: _ as rest) ->
      c.stack <- rest;
      (match (caller.pending_dst, v) with
      | (Some d, Some value) -> setr caller d value
      | _ -> ());
      caller.pending_dst <- None)

let exec_instr t (c : core) (fr : frame) (di : Predecode.dinstr) =
  let comp = di.Predecode.di_comp in
  wake t c di.Predecode.di_comp_idx;
  let pm = c.pm in
  let i = di.Predecode.di_instr in
  let simple_cost () =
    spend t c di.Predecode.di_latency;
    charge_dynamic t c comp
  in
  (match i.Ir.idesc with
  | Ir.Const (d, cst) ->
    simple_cost ();
    setr fr d (Value.of_const cst)
  | Ir.Move (d, a) ->
    simple_cost ();
    setr fr d (eval fr a)
  | Ir.Binop (op, d, a, b) ->
    simple_cost ();
    setr fr d (Value.binop op (eval fr a) (eval fr b))
  | Ir.Unop (op, d, a) ->
    simple_cost ();
    setr fr d (Value.unop op (eval fr a))
  | Ir.Mac (d, a, b, cc) ->
    simple_cost ();
    setr fr d (Value.mac (eval fr a) (eval fr b) (eval fr cc))
  | Ir.Load (d, s, idx) -> (
    let idx = Value.to_int (eval fr idx) in
    match s.Ir.sym_space with
    | Ir.Shared ->
      spend t c 1;
      charge_dynamic t c comp;
      shared_access t c s;
      setr fr d (mem_read t fr s idx)
    | Ir.Rom | Ir.Frame ->
      spend t c (1 + Machine.spm_latency_cycles t.machine);
      local_miss t c;
      charge_dynamic t c comp;
      setr fr d (mem_read t fr s idx))
  | Ir.Store (s, idx, v) -> (
    let idx = Value.to_int (eval fr idx) in
    let v = eval fr v in
    match s.Ir.sym_space with
    | Ir.Shared ->
      spend t c 1;
      charge_dynamic t c comp;
      shared_access t c s;
      mem_write t fr s idx v
    | Ir.Rom | Ir.Frame ->
      spend t c (1 + Machine.spm_latency_cycles t.machine);
      local_miss t c;
      charge_dynamic t c comp;
      mem_write t fr s idx v)
  | Ir.Faa (d, s, amount) ->
    let amount = Value.to_int (eval fr amount) in
    spend t c 2;
    charge_dynamic t c comp;
    shared_access t c s;
    let old = Value.to_int (mem_read t fr s 0) in
    mem_write t fr s 0 (Value.Vint (Value.wrap32 (old + amount)));
    setr fr d (Value.Vint old)
  | Ir.Call (dst, callee, args) ->
    simple_cost ();
    let cf = Hashtbl.find t.fsyms callee in
    let new_fr = make_frame c cf in
    List.iteri
      (fun k arg -> new_fr.regs.(cf.cf_fe.fe_params.(k)) <- eval fr arg)
      args;
    fr.pending_dst <- dst;
    c.stack <- new_fr :: c.stack
  | Ir.Pg_off comps ->
    spend t c 1;
    record t c (fun () -> "pg_off " ^ Component.Set.to_string comps);
    Component.Set.iter
      (fun comp ->
        let k = Component.index comp in
        if c.powered.(k) then begin
          c.powered.(k) <- false;
          c.gate_transitions <- c.gate_transitions + 1;
          charge c Energy_ledger.Gating_overhead pm.Power_model.gate_energy_nj
        end)
      comps;
    recompute_leak t c
  | Ir.Pg_on comps ->
    record t c (fun () -> "pg_on " ^ Component.Set.to_string comps);
    let any = ref false in
    Component.Set.iter
      (fun comp ->
        let k = Component.index comp in
        if not c.powered.(k) then begin
          c.powered.(k) <- true;
          any := true;
          c.gate_transitions <- c.gate_transitions + 1;
          charge c Energy_ledger.Gating_overhead pm.Power_model.gate_energy_nj
        end)
      comps;
    recompute_leak t c;
    (* components wake in parallel: one wake latency *)
    let stall = if !any then pm.Power_model.wake_latency_cycles else 0 in
    spend t c (1 + stall)
  | Ir.Dvfs level ->
    let target = Power_model.point pm level in
    if target.Operating_point.level <> c.point.Operating_point.level then begin
      spend t c pm.Power_model.dvfs_latency_cycles;
      charge c Energy_ledger.Dvfs_overhead pm.Power_model.dvfs_energy_nj;
      c.point <- target;
      refresh_point_caches t c;
      c.dvfs_transitions <- c.dvfs_transitions + 1;
      record t c (fun () -> "dvfs -> " ^ Operating_point.to_string target);
      recompute_leak t c
    end
    else spend t c 1
  | Ir.Send (chan_id, v) ->
    spend t c t.machine.Machine.channel_setup_cycles;
    charge_dynamic t c comp;
    let v = eval fr v in
    let ch = t.chans.(chan_id) in
    if Queue.length ch.queue >= ch.cap then begin
      c.send_blocks <- c.send_blocks + 1;
      record t c (fun () ->
          Printf.sprintf "blocked sending on ch%d" chan_id);
      Queue.push c.id ch.waiting_senders;
      c.status <- Blocked_send (chan_id, v);
      t.unblock_dirty <- true
    end
    else complete_send t c chan_id v
  | Ir.Recv (d, chan_id, _) ->
    spend t c t.machine.Machine.channel_setup_cycles;
    charge_dynamic t c comp;
    let ch = t.chans.(chan_id) in
    if Queue.is_empty ch.queue then begin
      c.recv_blocks <- c.recv_blocks + 1;
      record t c (fun () ->
          Printf.sprintf "blocked receiving on ch%d" chan_id);
      c.status <- Blocked_recv (chan_id, d);
      t.unblock_dirty <- true
    end
    else begin
      let (v, ready) = Queue.pop ch.queue in
      resume_at t c ready;
      ch.last_pop <- fmax ch.last_pop c.clk.time;
      setr fr d v
    end
  | Ir.Barrier bid ->
    spend t c 1;
    charge_dynamic t c comp;
    arrive_barrier t c bid);
  c.instr_count <- c.instr_count + 1;
  if c.prof_on then
    c.prof_cur.Profile.sl_instrs <- c.prof_cur.Profile.sl_instrs + 1

(** Execute one step (instruction or terminator) on a ready core —
    interpretive mode. *)
let step_interp t (c : core) =
  match c.stack with
  | [] -> runtime_err "core %d has empty stack" c.id
  | fr :: _ ->
    if fr.dbid <> fr.block then begin
      (* the decoder rejected every branch to a label with no block *)
      fr.dblk <- fr.dfunc.Predecode.df_blocks.(fr.block);
      fr.dbid <- fr.block
    end;
    let db = fr.dblk in
    if fr.idx < Array.length db.Predecode.db_instrs then begin
      let di = db.Predecode.db_instrs.(fr.idx) in
      fr.idx <- fr.idx + 1;
      if c.prof_on then
        c.prof_cur <-
          Profile.slot c.prof fr.func.Prog.fname
            di.Predecode.di_instr.Ir.loc.Ir.line;
      exec_instr t c fr di
    end
    else begin
      if c.prof_on then begin
        (* a terminator attributes to the line of the last instruction
           of its block (0 for empty blocks) — same rule the compiled
           mode bakes in at compile time *)
        let instrs = db.Predecode.db_instrs in
        let n = Array.length instrs in
        let line =
          if n = 0 then 0
          else instrs.(n - 1).Predecode.di_instr.Ir.loc.Ir.line
        in
        c.prof_cur <- Profile.slot c.prof fr.func.Prog.fname line
      end;
      exec_term t c fr db.Predecode.db_term
    end

(* ------------------------------------------------------------------ *)
(* The issue protocol (compiled mode)                                  *)
(* ------------------------------------------------------------------ *)

(* The compiled stepper runs a section of register instructions
   ({!run_section}), or one instruction or terminator on its own
   ({!step_encoded}).  Each performs the same state mutations, in the
   same order, as one [exec_instr] or [exec_term] dispatch — with
   everything that is a pure function of the IR, the machine, or the
   current operating point resolved ahead of time: operand slots,
   memory arrays, call targets, per-component dynamic energies (no [**]
   per instruction), and cycle→ns factors (no division per
   instruction).  {!step_encoded} is assembled from the [@inline always]
   helpers below, so every step of the per-instruction protocol is
   written once for it and still compiles to straight-line code, with
   no call per step; {!run_section} is the protocol's second compiled
   definition. *)

let bump (c : core) =
  c.instr_count <- c.instr_count + 1;
  if c.prof_on then
    c.prof_cur.Profile.sl_instrs <- c.prof_cur.Profile.sl_instrs + 1

let branch_idx = Component.index Component.Branch_unit

(* hand-inlined [Energy_ledger.charge ~category:Dynamic ~component]:
   category, then component, then total — the same order, bit for bit *)
let[@inline always] charge_dyn (c : core) ci =
  let nj = Array.unsafe_get c.dyn_row ci in
  if nj < 0.0 then Energy_ledger.negative_energy ();
  Array.unsafe_set c.lg_cat 0 (Array.unsafe_get c.lg_cat 0 +. nj);
  Array.unsafe_set c.lg_comp ci (Array.unsafe_get c.lg_comp ci +. nj);
  Array.unsafe_set c.lg_tot 0 (Array.unsafe_get c.lg_tot 0 +. nj);
  if c.prof_on then begin
    let sc = c.prof_cur.Profile.sl_cat in
    Array.unsafe_set sc 0 (Array.unsafe_get sc 0 +. nj)
  end

(* [n] cycles ([nf] is [n] pre-floated; [1.0 *. x] is exactly [x], so one
   cycle needs no special case), then — for a local access on a cache
   machine, when [miss] — the periodic miss, then the dynamic charge *)
let[@inline always] cost t (c : core) ci n nf ~miss =
  spend_nf t c n nf;
  if miss then local_miss t c;
  charge_dyn c ci

let issue_gated t (c : core) ci n nf ~miss =
  wake t c ci;
  cost t c ci n nf ~miss

(** Issue an instruction: the wakeup, then its cycles, then (see
    [cost]) the dynamic charge — the order {!exec_instr} performs them
    in.  The wakeup path is out of line, so the common path makes no
    call before the cost is paid. *)
let[@inline always] issue_miss t (c : core) ci n nf ~miss =
  if Array.unsafe_get c.powered ci then cost t c ci n nf ~miss
  else issue_gated t c ci n nf ~miss

let[@inline always] issue t c ci n nf = issue_miss t c ci n nf ~miss:false

(** A terminator's share of the protocol: one cycle and the branch
    unit's dynamic charge (terminators never wake a gated unit, as in
    {!exec_term}). *)
let[@inline always] branch t (c : core) =
  spend_nf t c 1 1.0;
  charge_dyn c branch_idx

(* Registers are unboxed: a frame of the compiled stepper keeps its int
   registers in [iregs] and its float registers in [fregs], each
   register at the slot [Predecode.df_regs] gives it within its class
   ({!Lp_ir.Verify.reg_classes}).  Frames size both arrays from the same
   table, so every compiled register access is in bounds by construction
   and the steppers use unchecked accesses.  They read and write raw
   ints and floats — no box, no tag test, no write barrier. *)

let[@inline always] ireg (fr : frame) s = Array.unsafe_get fr.iregs s
let[@inline always] freg (fr : frame) s = Array.unsafe_get fr.fregs s

(** The slot of register [d] in its class's array; [df_regs.(d)] itself
    ([2 * slot + class]) is the destination code of {!store_value} and
    [frame.ret_dst]. *)
let slot (df : Predecode.dfunc) d = df.Predecode.df_regs.(d) lsr 1

(** Write a boxed value — a loaded word, a received message, an
    immediate call argument or return value — into the register [k]
    encodes; the verifier makes its class the register's. *)
let[@inline always] store_value (fr : frame) k v =
  if k land 1 = Verify.cls_float then
    Array.unsafe_set fr.fregs (k lsr 1) (Value.to_float v)
  else Array.unsafe_set fr.iregs (k lsr 1) (Value.to_int v)

(** The turn guard of a {e globally-visible} instruction — one that
    touches state other cores can observe (shared memory, the bus,
    channels, barriers).  Such instructions must execute in the exact
    (local time, core id) order of the per-step reference scheduler.
    Core-local instructions commute with other cores' work, so batches
    run through them freely and only the visible ones re-check the race
    against the runner-up ([t.batch_other], -1 when there is none).
    [false] when it is not [fr]'s core's turn: the instruction is then
    rewound to replay when the core is re-picked (the attempt is not a
    step, or step counts would diverge from the per-step reference) and
    control goes back to the scheduler. *)
let[@inline always] visible_turn t (fr : frame) =
  let c = fr.fcore in
  let oi = t.batch_other in
  oi < 0
  || (let o = Array.unsafe_get t.cores oi in
      c.clk.time < o.clk.time || (c.clk.time = o.clk.time && c.id < o.id))
  || begin
       fr.idx <- fr.idx - 1;
       t.steps <- t.steps - 1;
       t.sched_event <- true;
       false
     end

(** One-word shared-memory bus transaction (loads, stores, faa), the
    compiled {!shared_access}: the off-bus latency is the symbol's
    memory tier's, and a far-tier symbol ([far], resolved at encoding,
    so near-only machines never take the far branch) also pays the
    tier's per-access energy. *)
let bus_word t (c : core) far =
  if t.faults_armed then
    Lp_util.Fault.check Lp_util.Fault.Sim_bus ~key:"bus";
  let start = fmax c.clk.time (Array.unsafe_get t.bus_free 0) in
  c.bus_txns <- c.bus_txns + 1;
  c.bus_words <- c.bus_words + 1;
  c.clk.bus_wait_ns <- c.clk.bus_wait_ns +. (start -. c.clk.time);
  if c.prof_on then begin
    let s = c.prof_cur in
    s.Profile.sl_bus_txns <- s.Profile.sl_bus_txns + 1;
    s.Profile.sl_bus_words <- s.Profile.sl_bus_words + 1;
    s.Profile.sl_bus_wait_ns <-
      s.Profile.sl_bus_wait_ns +. (start -. c.clk.time);
    let sc = s.Profile.sl_cat in
    Array.unsafe_set sc 5 (Array.unsafe_get sc 5 +. t.bus_word_energy_nj)
  end;
  Array.unsafe_set t.bus_free 0 (start +. t.bus_txn1_ns);
  let finish =
    start +. t.bus_txn1_ns +. if far then t.far_extra_ns else t.shared_extra_ns
  in
  advance t c (finish -. c.clk.time) ~idle:false;
  (* hand-inlined [Energy_ledger.charge ~category:Communication] *)
  let nj = t.bus_word_energy_nj in
  if nj < 0.0 then Energy_ledger.negative_energy ();
  Array.unsafe_set c.lg_cat 5 (Array.unsafe_get c.lg_cat 5 +. nj);
  Array.unsafe_set c.lg_tot 0 (Array.unsafe_get c.lg_tot 0 +. nj);
  if far then charge c Energy_ledger.Communication t.far_energy_nj

(** Gate ([on = false]) or ungate every component of [mask] (bit
    [Component.index]) not already in that state, in index order,
    charging each transition with the executing core's class energy;
    true if any component changed. *)
let gate_set (c : core) mask ~on =
  let any = ref false in
  for k = 0 to Component.count - 1 do
    if mask land (1 lsl k) <> 0 && c.powered.(k) <> on then begin
      c.powered.(k) <- on;
      any := true;
      c.gate_transitions <- c.gate_transitions + 1;
      charge c Energy_ledger.Gating_overhead c.pm.Power_model.gate_energy_nj
    end
  done;
  !any

let comps_of_mask mask =
  Component.Set.of_list
    (List.filter (fun comp -> mask land (1 lsl Component.index comp) <> 0)
       Component.all)

(* ------------------------------------------------------------------ *)
(* Encoding (compiled mode)                                            *)
(* ------------------------------------------------------------------ *)

(* Every instruction, and the terminator, is encoded at [create] into
   its block's flat arrays: an opcode in [cb_op], and [enc_width] ints
   from [i lsl enc_shift] in [cb_code]:
   - [f_cost] packs the component's index (bits 0-3); bit 4, set on a
     local access that takes a cache machine's periodic miss; [cost_x]
     (bits 5-11), which holds a generic opcode's operator code from its
     bit 3 and flags its immediate operands a, b and c in its bits 0-2,
     or a memory access's [x_] flags; the cycles the instruction issues
     (bits 12-23); and a [Mac]'s third operand (bits 24 and up);
   - [f_d], [f_a], [f_b]: a register instruction's destination
     register's slot and its operands, each a register's slot, an int
     immediate, or a float immediate's index in [cb_fk] (a load's index,
     then its array, see {!enc_sym}).  The other instructions and the
     terminators keep each operand's kind with it ({!operand}), and
     labels, channels, barriers, levels and component masks are plain
     ints; {!encode} and {!encode_term} list their words. *)
let enc_shift = 2
let enc_width = 1 lsl enc_shift
let f_cost = 0
let f_d = 1
let f_a = 2
let f_b = 3

let[@inline always] cost_ci k = k land 15
let[@inline always] cost_miss k = k land 16 <> 0
let[@inline always] cost_x k = (k lsr 5) land 127
let[@inline always] cost_n k = (k lsr 12) land 4095
let[@inline always] cost_c k = k asr 24

let pack_cost ~ci ~miss ~x ~n ~c =
  if ci > 15 || n > 4095 then invalid_arg "Sim.pack_cost";
  ci lor (if miss then 16 else 0) lor (x lsl 5) lor (n lsl 12) lor (c lsl 24)

(* A memory access's flags in [cost_x]: its array is a global, in
   [cb_arrs], not a frame array; a load into a float register; a load at
   an immediate index; a symbol of the far tier; a shared store (a
   visible one, over the bus). *)
let x_global = 1
let x_float = 2
let x_imm = 4
let x_far = 8
let x_shared = 16

let words (code : int array) b cost d a y =
  code.(b + f_cost) <- cost;
  code.(b + f_d) <- d;
  code.(b + f_a) <- a;
  code.(b + f_b) <- y

(* The operators, in the order of their codes in [cost_x] and of their
   opcodes in the tables beside them. *)
let int_binops =
  [| Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Mod; Ir.Shl; Ir.Shr; Ir.And; Ir.Or;
     Ir.Xor; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge; Ir.Eq; Ir.Ne |]
let rr_ops =
  [| Add_rr; Sub_rr; Mul_rr; Div_rr; Mod_rr; Shl_rr; Shr_rr; And_rr; Or_rr;
     Xor_rr; Lt_rr; Le_rr; Gt_rr; Ge_rr; Eq_rr; Ne_rr |]
let ri_ops =
  [| Add_ri; Sub_ri; Mul_ri; Div_ri; Mod_ri; Shl_ri; Shr_ri; And_ri; Or_ri;
     Xor_ri; Lt_ri; Le_ri; Gt_ri; Ge_ri; Eq_ri; Ne_ri |]
let float_binops =
  [| Ir.Fadd; Ir.Fsub; Ir.Fmul; Ir.Fdiv; Ir.Flt; Ir.Fle; Ir.Fgt; Ir.Fge;
     Ir.Feq; Ir.Fne |]
let unops = [| Ir.Neg; Ir.Not; Ir.Bnot; Ir.I2f; Ir.Fneg; Ir.F2i |]

let rec index_from x a i = if a.(i) == x then i else index_from x a (i + 1)
let index_of x a = index_from x a 0

(** What a block's encoder puts aside, newest first; {!drain} hands it
    over as an array and empties it for the next block. *)
type 'a pool = { mutable items : 'a list; mutable size : int }

let add pl x =
  pl.items <- x :: pl.items;
  pl.size <- pl.size + 1;
  pl.size - 1

(* [x]'s index in [pl] by physical equality, added when absent *)
let rec add_uniq pl x k = function
  | [] -> add pl x
  | y :: rest -> if y == x then k else add_uniq pl x (k - 1) rest

let drain pl =
  let a = Array.of_list (List.rev pl.items) in
  pl.items <- [];
  pl.size <- 0;
  a

type pools = {
  fk : float pool;
  vals : Value.t pool;
  arrs : Value.t array pool;
  calls : call_site pool;
}

(* An encoded operand: [value lsl 2 lor kind], where the value is a
   register's slot, an int immediate, or an immediate's index in a pool
   ({!operand}, {!boxed_operand}). *)
let k_ireg = 0
let k_iimm = 1
let k_freg = 2
let k_fimm = 3
let[@inline always] opv e = e asr 2
let[@inline always] opk e = e land 3
let[@inline always] is_int e = opk e < k_freg
let[@inline always] is_imm e = e land 1 = 1

(** Operand [o]: an int or a float register's slot, an int immediate,
    or a float immediate's index in the block's float immediates, with
    its kind. *)
let operand p (df : Predecode.dfunc) (o : Ir.operand) =
  match o with
  | Ir.Reg r ->
    let k = df.Predecode.df_regs.(r) in
    ((k lsr 1) lsl 2) lor (if k land 1 = Verify.cls_float then k_freg else k_ireg)
  | Ir.Imm (Ir.Cint n) -> (Value.wrap32 n lsl 2) lor k_iimm
  | Ir.Imm (Ir.Cfloat x) -> (add p.fk x lsl 2) lor k_fimm

(** Operand [o] of a store, send, call or return: a register as
    {!operand} encodes it, an immediate as its index among the block's
    boxed values (kind [k_iimm], whatever its class). *)
let boxed_operand p df (o : Ir.operand) =
  match o with
  | Ir.Reg _ -> operand p df o
  | Ir.Imm c -> (add p.vals (Value.of_const c) lsl 2) lor k_iimm

(** The array a memory instruction accesses: a global's index in the
    block's arrays (flag [x_global]), or a frame array's position among
    the frame's arrays. *)
let enc_sym t p (df : Predecode.dfunc) (s : Ir.sym) =
  match s.Ir.sym_space with
  | Ir.Shared | Ir.Rom ->
    add_uniq p.arrs (Hashtbl.find t.shared s.Ir.sym_name) (p.arrs.size - 1)
      p.arrs.items
  | Ir.Frame -> Hashtbl.find df.Predecode.df_frame_idx s.Ir.sym_name

let mem_x t (s : Ir.sym) =
  (if s.Ir.sym_space = Ir.Frame then 0 else x_global)
  lor if Hashtbl.mem t.far_syms s.Ir.sym_name then x_far else 0

let gate_mask comps =
  Component.Set.fold (fun comp m -> m lor (1 lsl Component.index comp)) comps 0

(* [Const] and [Move]: a destination always has its source's class
   (Verify.reg_classes). *)
let enc_copy code b d e =
  code.(b + f_d) <- d;
  code.(b + f_a) <- opv e;
  if is_int e then if is_imm e then Const_i else Move_i
  else if is_imm e then Const_f
  else Move_f

(** Encode [di] at [code.(b)].  Beyond the register instructions, the
    words [f_d], [f_a], [f_b] are:
    - [Load_sh]: the destination's code ([df_regs]), the index, the
      array;
    - [Store]: the value ({!boxed_operand}), the index, the array;
    - [Faa]: the destination's slot, the amount, the array;
    - [Call]: the destination's code or -1, the call site's index in
      [cb_calls];
    - [Pg_off], [Pg_on], [Dvfs], [Barrier]: the component mask, the
      level or the barrier, in [f_a];
    - [Send]: the value ({!boxed_operand}), the channel;
    - [Recv]: the destination register, the channel, its code. *)
let encode t (df : Predecode.dfunc) p (di : Predecode.dinstr)
    (code : int array) b : opc =
  let ci = di.Predecode.di_comp_idx and n = di.Predecode.di_latency in
  let plain = pack_cost ~ci ~miss:false ~x:0 ~n ~c:0 in
  let setup = t.machine.Machine.channel_setup_cycles in
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Const (d, cst) ->
    let e = operand p df (Ir.Imm cst) in
    code.(b + f_cost) <- plain;
    enc_copy code b (slot df d) e
  | Ir.Move (d, a) ->
    let e = operand p df a in
    code.(b + f_cost) <- plain;
    enc_copy code b (slot df d) e
  | Ir.Binop (op, d, a, bo) ->
    code.(b + f_d) <- slot df d;
    let eb = operand p df bo in
    let ea = operand p df a in
    code.(b + f_a) <- opv ea;
    code.(b + f_b) <- opv eb;
    let flags = (opk ea land 1) lor ((opk eb land 1) lsl 1) in
    let float_op =
      match op with
      | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv | Ir.Flt | Ir.Fle | Ir.Fgt
      | Ir.Fge | Ir.Feq | Ir.Fne -> true
      | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Shl | Ir.Shr
      | Ir.And | Ir.Or | Ir.Xor | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq
      | Ir.Ne -> false
    in
    if float_op then begin
      let o = index_of op float_binops in
      code.(b + f_cost) <-
        pack_cost ~ci ~miss:false ~x:((o lsl 3) lor flags) ~n ~c:0;
      Fbin
    end
    else begin
      let o = index_of op int_binops in
      code.(b + f_cost) <-
        pack_cost ~ci ~miss:false ~x:((o lsl 3) lor flags) ~n ~c:0;
      if flags = 0 then rr_ops.(o)
      else if flags = 2 then ri_ops.(o)
      else Ibin
    end
  | Ir.Unop (op, d, a) ->
    code.(b + f_d) <- slot df d;
    let e = operand p df a in
    code.(b + f_a) <- opv e;
    let o = index_of op unops in
    code.(b + f_cost) <-
      pack_cost ~ci ~miss:false ~x:((o lsl 3) lor (opk e land 1)) ~n ~c:0;
    Un
  | Ir.Mac (d, a, bo, cc) ->
    code.(b + f_d) <- slot df d;
    let ec = operand p df cc in
    let eb = operand p df bo in
    let ea = operand p df a in
    code.(b + f_a) <- opv ea;
    code.(b + f_b) <- opv eb;
    let flags =
      (opk ea land 1) lor ((opk eb land 1) lsl 1) lor ((opk ec land 1) lsl 2)
    in
    code.(b + f_cost) <- pack_cost ~ci ~miss:false ~x:flags ~n ~c:(opv ec);
    if flags = 0 then Mac_rrr
    else Mac
  | Ir.Load (d, s, idxo) when s.Ir.sym_space <> Ir.Shared -> (
    let e = operand p df idxo in
    let k = df.Predecode.df_regs.(d) in
    code.(b + f_d) <- k lsr 1;
    code.(b + f_a) <- opv e;
    let rom = s.Ir.sym_space = Ir.Rom in
    let pos = enc_sym t p df s in
    let into_float = k land 1 = Verify.cls_float in
    code.(b + f_b) <- pos;
    code.(b + f_cost) <-
      pack_cost ~ci ~miss:(t.cache_miss_period > 0)
        ~x:
          ((if rom then x_global else 0)
          lor (if into_float then x_float else 0)
          lor if is_imm e then x_imm else 0)
        ~n:(1 + Machine.spm_latency_cycles t.machine) ~c:0;
    if rom && not (into_float || is_imm e) then Load_ri
    else Load)
  | Ir.Load (d, s, idxo) ->
    let e = operand p df idxo in
    words code b (pack_cost ~ci ~miss:false ~x:(mem_x t s) ~n ~c:0)
      df.Predecode.df_regs.(d) e (enc_sym t p df s);
    Load_sh
  | Ir.Store (s, idxo, vo) ->
    let ei = operand p df idxo in
    let ev = boxed_operand p df vo in
    let shared = s.Ir.sym_space = Ir.Shared in
    words code b
      (pack_cost ~ci ~miss:((not shared) && t.cache_miss_period > 0)
         ~x:(mem_x t s lor if shared then x_shared else 0)
         ~n:(if shared then 1 else 1 + Machine.spm_latency_cycles t.machine)
         ~c:0)
      ev ei (enc_sym t p df s);
    Store
  | Ir.Faa (d, s, amt) ->
    let e = operand p df amt in
    words code b (pack_cost ~ci ~miss:false ~x:(mem_x t s) ~n ~c:0)
      (slot df d) e (enc_sym t p df s);
    Faa
  | Ir.Call (dst, callee, args) ->
    let cf = Hashtbl.find t.fsyms callee in
    let cs_args = Array.of_list (List.map (boxed_operand p df) args) in
    let tregs = cf.cf_fe.fe_dfunc.Predecode.df_regs in
    let site =
      add p.calls
        { cs_cf = cf; cs_args;
          cs_params = Array.map (Array.get tregs) cf.cf_fe.fe_params }
    in
    let k = match dst with Some d -> df.Predecode.df_regs.(d) | None -> -1 in
    words code b plain k site 0;
    Call
  | Ir.Pg_off comps -> words code b plain 0 (gate_mask comps) 0; Pg_off
  | Ir.Pg_on comps -> words code b plain 0 (gate_mask comps) 0; Pg_on
  | Ir.Dvfs level -> words code b plain 0 level 0; Dvfs
  | Ir.Send (chan, vo) ->
    let e = boxed_operand p df vo in
    words code b (pack_cost ~ci ~miss:false ~x:0 ~n:setup ~c:0) e chan 0;
    Send
  | Ir.Recv (d, chan, _) ->
    words code b (pack_cost ~ci ~miss:false ~x:0 ~n:setup ~c:0) d chan
      df.Predecode.df_regs.(d);
    Recv
  | Ir.Barrier bid -> words code b plain 0 bid 0; Barrier

(** Encode a terminator at [code.(b)]: [Jmp] keeps its label in [f_a]
    (as does a branch on an int immediate, encoded as the jump it
    takes); [Br] its then-label, its condition and its else-label;
    [Ret] its value ({!boxed_operand}) and, in [f_a], 1 when it has
    one. *)
let encode_term p df (term : Ir.term) (code : int array) b : opc =
  let cost = pack_cost ~ci:branch_idx ~miss:false ~x:0 ~n:1 ~c:0 in
  match term with
  | Ir.Jmp l -> words code b cost 0 l 0; Jmp
  | Ir.Br (Ir.Imm (Ir.Cint n), l1, l2) ->
    words code b cost 0 (if Value.wrap32 n <> 0 then l1 else l2) 0;
    Jmp
  | Ir.Br (cond, l1, l2) -> words code b cost l1 (operand p df cond) l2; Br
  | Ir.Ret None -> words code b cost 0 0 0; Ret
  | Ir.Ret (Some v) -> words code b cost (boxed_operand p df v) 1 0; Ret

(* ------------------------------------------------------------------ *)
(* The section loop and the out-of-line step (compiled mode)           *)
(* ------------------------------------------------------------------ *)

(* The effect of every opcode, on raw ints and floats.  The int
   operators are {!Lp_ir.Ir}'s (the interpreter's and the constant
   folder's), defined again here because the section loop below must
   make no call: dune's default (dev) profile, which builds the tests
   and perfbench, compiles with [-opaque], and there a function of
   another module is a call through [caml_apply2] even when it is
   marked [@inline always].  [wrap32] is [Int32_sem.wrap32].
   test_predecode's "every way out of the section loop" pins the two
   definitions equal on edge values, in every operand shape. *)

let[@inline always] wrap32 n = (n lsl 31) asr 31
let[@inline always] iadd a b = wrap32 (a + b)
let[@inline always] isub a b = wrap32 (a - b)
let[@inline always] imul a b = wrap32 (a * b)
let[@inline always] idiv a b = wrap32 (a / b)  (* [b <> 0]: see [divide] *)
let[@inline always] imod a b = wrap32 (a mod b)
let[@inline always] ishl a b = wrap32 (a lsl (b land 31))
let[@inline always] ishr a b = wrap32 (a asr (b land 31))
let[@inline always] iand a b = wrap32 (a land b)
let[@inline always] ior a b = wrap32 (a lor b)
let[@inline always] ixor a b = wrap32 (a lxor b)
let[@inline always] ilt (a : int) b = Ir.b2i (a < b)
let[@inline always] ile (a : int) b = Ir.b2i (a <= b)
let[@inline always] igt (a : int) b = Ir.b2i (a > b)
let[@inline always] ige (a : int) b = Ir.b2i (a >= b)
let[@inline always] ieq (a : int) b = Ir.b2i (a = b)
let[@inline always] ine (a : int) b = Ir.b2i (a <> b)
let[@inline always] ineg a = wrap32 (-a)
let[@inline always] inot a = Ir.b2i (a = 0)
let[@inline always] ibnot a = wrap32 (lnot a)
let[@inline always] f2i x = wrap32 (int_of_float x)
let[@inline always] imac a b c = wrap32 (a + wrap32 (b * c))

(* Int operator [op] of the generic opcodes; a division's divisor is
   checked by [divide] first. *)
let[@inline always] ibin (op : Ir.binop) a b =
  match op with
  | Ir.Add -> iadd a b
  | Ir.Sub -> isub a b
  | Ir.Mul -> imul a b
  | Ir.Div -> idiv a b
  | Ir.Mod -> imod a b
  | Ir.Shl -> ishl a b
  | Ir.Shr -> ishr a b
  | Ir.And -> iand a b
  | Ir.Or -> ior a b
  | Ir.Xor -> ixor a b
  | Ir.Lt -> ilt a b
  | Ir.Le -> ile a b
  | Ir.Gt -> igt a b
  | Ir.Ge -> ige a b
  | Ir.Eq -> ieq a b
  | _ -> ine a b

let[@inline always] set_i (r : int array) d v = Array.unsafe_set r d v; true
let[@inline always] set_f (r : float array) d x = Array.unsafe_set r d x; true
let[@inline always] iget (r : int array) s = Array.unsafe_get r s
let[@inline always] fget (r : float array) s = Array.unsafe_get r s

(* An operand of a generic opcode: immediate when [flag]. *)
let[@inline always] iopnd (r : int array) v flag = if flag then v else iget r v
let[@inline always] fopnd (r : float array) (fk : float array) v flag =
  Array.unsafe_get (if flag then fk else r) v

(* A division or remainder by [b]: by zero, [strict] raises the
   interpreter's error and the section loop returns false. *)
let[@inline always] divide ~strict ~rem iregs d a b =
  if b = 0 then
    strict && Value.div_by_zero (if rem then Ir.Mod else Ir.Div)
  else set_i iregs d (if rem then imod a b else idiv a b)

(* the symbol of memory instruction [i] of [cb], which its
   out-of-bounds error names *)
let mem_sym (cb : cblock) i =
  match cb.cb_db.Predecode.db_instrs.(i).Predecode.di_instr.Ir.idesc with
  | Ir.Load (_, s, _) | Ir.Store (s, _, _) | Ir.Faa (_, s, _) -> s
  | _ -> invalid_arg "Sim.mem_sym"

let load_sym (fr : frame) b = mem_sym fr.cblk (b lsr enc_shift)

(* Read [arr.(idx)] into an int or float register.  Out of bounds:
   [strict] raises the interpreter's error and the section loop returns
   false.  The verifier makes every stored word its array's class, so
   the other arm never runs. *)
let[@inline always] load_i ~strict (fr : frame) b iregs d (arr : Value.t array)
    idx =
  if idx < 0 || idx >= Array.length arr then
    strict && oob_err "read" (Ir.sym_to_string (load_sym fr b)) idx arr fr
  else
    match Array.unsafe_get arr idx with
    | Value.Vint n -> set_i iregs d n
    | Value.Vfloat _ -> strict && Value.not_int ()

let[@inline always] load_f ~strict (fr : frame) b fregs d (arr : Value.t array)
    idx =
  if idx < 0 || idx >= Array.length arr then
    strict && oob_err "read" (Ir.sym_to_string (load_sym fr b)) idx arr fr
  else
    match Array.unsafe_get arr idx with
    | Value.Vfloat x -> set_f fregs d x
    | Value.Vint _ -> strict && Value.not_float ()

(** The effect of the encoded instruction at [code.(b)]: its result
    register, after its operands are read.  True when it took effect;
    when it cannot (a division by zero, an out-of-bounds index), [strict]
    raises the interpreter's error and the section loop, which passes
    [~strict:false], gets false with nothing written.  Every opcode that
    runs only in {!step_encoded} gives false. *)
let[@inline always] effect ~strict (fr : frame) (iregs : int array)
    (fregs : float array) (farrs : Value.t array array) (code : int array)
    (fk : float array) (arrs : Value.t array array) b opc =
  let d = Array.unsafe_get code (b + f_d) in
  let a = Array.unsafe_get code (b + f_a) in
  let y = Array.unsafe_get code (b + f_b) in
  match opc with
  | Load_sh | Store | Faa | Call | Pg_off | Pg_on | Dvfs | Send | Recv
  | Barrier | Jmp | Br | Ret ->
    false
  | Add_rr -> set_i iregs d (iadd (iget iregs a) (iget iregs y))
  | Sub_rr -> set_i iregs d (isub (iget iregs a) (iget iregs y))
  | Mul_rr -> set_i iregs d (imul (iget iregs a) (iget iregs y))
  | Div_rr -> divide ~strict ~rem:false iregs d (iget iregs a) (iget iregs y)
  | Mod_rr -> divide ~strict ~rem:true iregs d (iget iregs a) (iget iregs y)
  | Shl_rr -> set_i iregs d (ishl (iget iregs a) (iget iregs y))
  | Shr_rr -> set_i iregs d (ishr (iget iregs a) (iget iregs y))
  | And_rr -> set_i iregs d (iand (iget iregs a) (iget iregs y))
  | Or_rr -> set_i iregs d (ior (iget iregs a) (iget iregs y))
  | Xor_rr -> set_i iregs d (ixor (iget iregs a) (iget iregs y))
  | Lt_rr -> set_i iregs d (ilt (iget iregs a) (iget iregs y))
  | Le_rr -> set_i iregs d (ile (iget iregs a) (iget iregs y))
  | Gt_rr -> set_i iregs d (igt (iget iregs a) (iget iregs y))
  | Ge_rr -> set_i iregs d (ige (iget iregs a) (iget iregs y))
  | Eq_rr -> set_i iregs d (ieq (iget iregs a) (iget iregs y))
  | Ne_rr -> set_i iregs d (ine (iget iregs a) (iget iregs y))
  | Add_ri -> set_i iregs d (iadd (iget iregs a) y)
  | Sub_ri -> set_i iregs d (isub (iget iregs a) y)
  | Mul_ri -> set_i iregs d (imul (iget iregs a) y)
  | Div_ri -> divide ~strict ~rem:false iregs d (iget iregs a) y
  | Mod_ri -> divide ~strict ~rem:true iregs d (iget iregs a) y
  | Shl_ri -> set_i iregs d (ishl (iget iregs a) y)
  | Shr_ri -> set_i iregs d (ishr (iget iregs a) y)
  | And_ri -> set_i iregs d (iand (iget iregs a) y)
  | Or_ri -> set_i iregs d (ior (iget iregs a) y)
  | Xor_ri -> set_i iregs d (ixor (iget iregs a) y)
  | Lt_ri -> set_i iregs d (ilt (iget iregs a) y)
  | Le_ri -> set_i iregs d (ile (iget iregs a) y)
  | Gt_ri -> set_i iregs d (igt (iget iregs a) y)
  | Ge_ri -> set_i iregs d (ige (iget iregs a) y)
  | Eq_ri -> set_i iregs d (ieq (iget iregs a) y)
  | Ne_ri -> set_i iregs d (ine (iget iregs a) y)
  | Ibin -> (
    let x = cost_x (Array.unsafe_get code (b + f_cost)) in
    let vb = iopnd iregs y (x land 2 <> 0) in
    let va = iopnd iregs a (x land 1 <> 0) in
    match Array.unsafe_get int_binops (x lsr 3) with
    | Ir.Div -> divide ~strict ~rem:false iregs d va vb
    | Ir.Mod -> divide ~strict ~rem:true iregs d va vb
    | op -> set_i iregs d (ibin op va vb))
  | Fbin -> (
    let x = cost_x (Array.unsafe_get code (b + f_cost)) in
    let vb = fopnd fregs fk y (x land 2 <> 0) in
    let va = fopnd fregs fk a (x land 1 <> 0) in
    match Array.unsafe_get float_binops (x lsr 3) with
    | Ir.Fadd -> set_f fregs d (Ir.fadd va vb)
    | Ir.Fsub -> set_f fregs d (Ir.fsub va vb)
    | Ir.Fmul -> set_f fregs d (Ir.fmul va vb)
    | Ir.Fdiv -> set_f fregs d (Ir.fdiv va vb)
    | Ir.Flt -> set_i iregs d (Ir.b2i (Ir.flt va vb))
    | Ir.Fle -> set_i iregs d (Ir.b2i (Ir.fle va vb))
    | Ir.Fgt -> set_i iregs d (Ir.b2i (Ir.fgt va vb))
    | Ir.Fge -> set_i iregs d (Ir.b2i (Ir.fge va vb))
    | Ir.Feq -> set_i iregs d (Ir.b2i (Ir.feq va vb))
    | _ -> set_i iregs d (Ir.b2i (Ir.fne va vb)))
  | Un -> (
    let x = cost_x (Array.unsafe_get code (b + f_cost)) in
    let imm = x land 1 <> 0 in
    match Array.unsafe_get unops (x lsr 3) with
    | Ir.Neg -> set_i iregs d (ineg (iopnd iregs a imm))
    | Ir.Not -> set_i iregs d (inot (iopnd iregs a imm))
    | Ir.Bnot -> set_i iregs d (ibnot (iopnd iregs a imm))
    | Ir.I2f -> set_f fregs d (Ir.i2f (iopnd iregs a imm))
    | Ir.Fneg -> set_f fregs d (Ir.fneg (fopnd fregs fk a imm))
    | Ir.F2i -> set_i iregs d (f2i (fopnd fregs fk a imm)))
  | Mac_rrr ->
    let c = cost_c (Array.unsafe_get code (b + f_cost)) in
    set_i iregs d (imac (iget iregs a) (iget iregs y) (iget iregs c))
  | Mac ->
    let k = Array.unsafe_get code (b + f_cost) in
    let x = cost_x k in
    let vc = iopnd iregs (cost_c k) (x land 4 <> 0) in
    let vb = iopnd iregs y (x land 2 <> 0) in
    let va = iopnd iregs a (x land 1 <> 0) in
    set_i iregs d (imac va vb vc)
  | Const_i -> set_i iregs d a
  | Const_f -> set_f fregs d (fget fk a)
  | Move_i -> set_i iregs d (iget iregs a)
  | Move_f -> set_f fregs d (fget fregs a)
  | Load_ri ->
    load_i ~strict fr b iregs d (Array.unsafe_get arrs y) (iget iregs a)
  | Load ->
    let x = cost_x (Array.unsafe_get code (b + f_cost)) in
    let arr = Array.unsafe_get (if x land x_global <> 0 then arrs else farrs) y in
    let idx = iopnd iregs a (x land x_imm <> 0) in
    if x land x_float <> 0 then load_f ~strict fr b fregs d arr idx
    else load_i ~strict fr b iregs d arr idx

(** An int operand as {!operand} encodes it: the verifier makes every
    index and fetch-add amount one. *)
let[@inline always] int_opnd (fr : frame) e =
  if opk e = k_ireg then ireg fr (opv e) else opv e

(** An operand as {!boxed_operand} encodes it, boxed: a stored word, a
    message, the value a core halts with. *)
let[@inline always] boxed (fr : frame) (cb : cblock) e =
  let k = opk e in
  if k = k_ireg then Value.Vint (ireg fr (opv e))
  else if k = k_freg then Value.Vfloat (freg fr (opv e))
  else Array.unsafe_get cb.cb_vals (opv e)

(** Copy operand [e] (as {!boxed_operand} encodes it) of frame [fr] into
    the register [k] encodes in frame [into]: unboxed from a register
    (the verifier gives it [k]'s class), through {!store_value} from an
    immediate.  Call arguments and return values cross frames this
    way. *)
let[@inline always] put (fr : frame) (cb : cblock) e (into : frame) k =
  let ke = opk e in
  if ke = k_ireg then Array.unsafe_set into.iregs (k lsr 1) (ireg fr (opv e))
  else if ke = k_freg then
    Array.unsafe_set into.fregs (k lsr 1) (freg fr (opv e))
  else store_value into k (boxed fr cb e)

(** One memory access of instruction [i], after its operands are read:
    issue it (a local access on a cache machine takes the periodic
    miss), then a shared access's bus transaction, then find the array
    [pos] names ({!enc_sym}) and check [idx] against it ([what] names the
    access in the error).  Returns the array. *)
let[@inline always] access t (fr : frame) (cb : cblock) i k ~shared what pos
    idx =
  let c = fr.fcore in
  let ci = cost_ci k and n = cost_n k and x = cost_x k in
  if shared then begin
    issue t c ci n (float_of_int n);
    bus_word t c (x land x_far <> 0)
  end
  else issue_miss t c ci n (float_of_int n) ~miss:(cost_miss k);
  let a =
    if x land x_global <> 0 then Array.unsafe_get cb.cb_arrs pos
    else Array.unsafe_get fr.farrs pos
  in
  if idx < 0 || idx >= Array.length a then
    oob_err what (Ir.sym_to_string (mem_sym cb i)) idx a fr;
  a

(** Enter block [l] of the frame's function; the verifier rejected every
    branch to a label with no block. *)
let[@inline always] goto (fr : frame) l =
  fr.block <- l;
  fr.idx <- 0;
  fr.cblk <- Array.unsafe_get fr.cfun.cf_blocks l

(** Run the instruction or terminator at [fr.idx] on its own: every
    instruction but the register ones, each terminator, the register
    instruction that ends a section, and every instruction while
    profiling or single-stepping.  Each arm takes the steps of its
    [exec_instr] or [exec_term] arm in their order, so every check,
    charge, trace event and error happens at the same point.  A
    register instruction runs through the issue helpers and {!effect}
    [~strict:true], which raises the interpreter's error where the
    section loop's [~strict:false] returns false. *)
let step_encoded t (fr : frame) =
  let c = fr.fcore in
  let cb = fr.cblk in
  let i = fr.idx in
  (* safe: [i <= cb_n], and [cb]'s arrays hold the terminator at [cb_n] *)
  if c.prof_on then
    c.prof_cur <- Array.unsafe_get (Array.unsafe_get cb.cb_slots i) c.id;
  let code = cb.cb_code in
  let b = i lsl enc_shift in
  let k = Array.unsafe_get code (b + f_cost) in
  let d = Array.unsafe_get code (b + f_d) in
  let a = Array.unsafe_get code (b + f_a) in
  let y = Array.unsafe_get code (b + f_b) in
  let ci = cost_ci k and n = cost_n k in
  if i < cb.cb_n then fr.idx <- i + 1;
  match Array.unsafe_get cb.cb_op i with
  | Load_sh ->
    if visible_turn t fr then begin
      let idx = int_opnd fr a in
      let arr = access t fr cb i k ~shared:true "read" y idx in
      store_value fr d (Array.unsafe_get arr idx);
      bump c
    end
  | Store ->
    let shared = cost_x k land x_shared <> 0 in
    if (not shared) || visible_turn t fr then begin
      let idx = int_opnd fr a in
      let v = boxed fr cb d in
      Array.unsafe_set (access t fr cb i k ~shared "write" y idx) idx v;
      bump c
    end
  | Faa ->
    if visible_turn t fr then begin
      let amount = int_opnd fr a in
      let arr = access t fr cb i k ~shared:true "read" y 0 in
      let old = Value.to_int arr.(0) in
      arr.(0) <- Value.Vint (iadd old amount);
      Array.unsafe_set fr.iregs d old;
      bump c
    end
  | Call ->
    issue t c ci n (float_of_int n);
    let cs = Array.unsafe_get cb.cb_calls a in
    let callee = make_frame c cs.cs_cf in
    (* each argument goes into its parameter's register *)
    for j = 0 to Array.length cs.cs_args - 1 do
      put fr cb cs.cs_args.(j) callee cs.cs_params.(j)
    done;
    fr.ret_dst <- d;
    c.stack <- callee :: c.stack;
    bump c
  | Pg_off ->
    wake t c ci;
    spend t c 1;
    record t c (fun () -> "pg_off " ^ Component.Set.to_string (comps_of_mask a));
    ignore (gate_set c a ~on:false);
    recompute_leak t c;
    bump c
  | Pg_on ->
    wake t c ci;
    record t c (fun () -> "pg_on " ^ Component.Set.to_string (comps_of_mask a));
    let any = gate_set c a ~on:true in
    recompute_leak t c;
    (* components wake in parallel: one wake latency (this class's) *)
    spend t c (if any then 1 + c.pm.Power_model.wake_latency_cycles else 1);
    bump c
  | Dvfs ->
    (* the ladder belongs to the executing core's class: an absent level
       raises [Power_model.point]'s error where the interpreter does *)
    wake t c ci;
    let pm = c.pm in
    let target = Power_model.point pm a in
    if target.Operating_point.level <> c.point.Operating_point.level then begin
      spend t c pm.Power_model.dvfs_latency_cycles;
      charge c Energy_ledger.Dvfs_overhead pm.Power_model.dvfs_energy_nj;
      c.point <- target;
      refresh_point_caches t c;
      c.dvfs_transitions <- c.dvfs_transitions + 1;
      record t c (fun () -> "dvfs -> " ^ Operating_point.to_string target);
      recompute_leak t c
    end
    else spend t c 1;
    bump c
  | Send ->
    if visible_turn t fr then begin
      issue t c ci n (float_of_int n);
      let v = boxed fr cb d in
      let ch = t.chans.(a) in
      if Queue.length ch.queue >= ch.cap then begin
        c.send_blocks <- c.send_blocks + 1;
        record t c (fun () -> Printf.sprintf "blocked sending on ch%d" a);
        Queue.push c.id ch.waiting_senders;
        c.status <- Blocked_send (a, v);
        t.unblock_dirty <- true
      end
      else complete_send t c a v;
      bump c
    end
  | Recv ->
    if visible_turn t fr then begin
      issue t c ci n (float_of_int n);
      let ch = t.chans.(a) in
      if Queue.is_empty ch.queue then begin
        c.recv_blocks <- c.recv_blocks + 1;
        record t c (fun () -> Printf.sprintf "blocked receiving on ch%d" a);
        c.status <- Blocked_recv (a, d);
        t.unblock_dirty <- true
      end
      else begin
        let (v, ready) = Queue.pop ch.queue in
        (* a slot freed: a blocked sender may now complete *)
        t.sched_event <- true;
        t.unblock_dirty <- true;
        resume_at t c ready;
        ch.last_pop <- fmax ch.last_pop c.clk.time;
        store_value fr y v
      end;
      bump c
    end
  | Barrier ->
    if visible_turn t fr then begin
      issue t c ci n (float_of_int n);
      arrive_barrier t c a;
      bump c
    end
  | Jmp ->
    branch t c;
    goto fr a
  | Br ->
    (* an int register: a branch on an immediate is encoded as a [Jmp] *)
    branch t c;
    goto fr (if ireg fr (opv a) <> 0 then d else y)
  | Ret -> (
    branch t c;
    match c.stack with
    | [] -> runtime_err "return with empty stack"
    | [ _ ] ->
      (* the value a core halts with is boxed *)
      let v = if a = 0 then None else Some (boxed fr cb d) in
      record t c (fun () ->
          "halt"
          ^
          match v with
          | Some value -> " -> " ^ Value.to_string value
          | None -> "");
      c.status <- Halted v;
      t.live_cores <- t.live_cores - 1
    | _ :: (caller :: _ as rest) ->
      c.stack <- rest;
      let k = caller.ret_dst in
      if k >= 0 then put fr cb d caller k;
      caller.ret_dst <- -1)
  | opc ->
    issue_miss t c ci n (float_of_int n) ~miss:(cost_miss k);
    ignore
      (effect ~strict:true fr fr.iregs fr.fregs fr.farrs code cb.cb_fk
         cb.cb_arrs b opc);
    bump c

(** Whether [op] is a register instruction's, which {!run_section} runs. *)
let[@inline always] in_section (op : opc) =
  match op with
  | Load_sh | Store | Faa | Call | Pg_off | Pg_on | Dvfs | Send | Recv
  | Barrier | Jmp | Br | Ret ->
    false
  | _ -> true

(** Run the register instructions of [cb] from [start], at most up to
    [stop], and return the index of the first one not run: [stop], an
    instruction of another kind, or the one that needs a call — an
    implicit wakeup, a negative charge, a cache machine's periodic miss,
    or an effect that fails.
    Profiling runs none ({!step_encoded} attributes each instruction).

    The core's time, busy time, dynamic and active-leakage category
    cells, ledger total and cycle count live in locals for the section:
    each instruction makes exactly the checks and float additions of
    {!issue} then {!bump}, in the same order, so every accumulator sums
    the same terms in the same order as {!step_encoded} does for one
    instruction.  The checks come first and the effect next, so an instruction
    that leaves the section has changed nothing.  The loop makes no
    call on any path: OCaml keeps a float local in a register only
    where no call follows, and spills every one around a call. *)
let run_section t (fr : frame) (cb : cblock) start stop =
  let c = fr.fcore in
  if c.prof_on then start
  else begin
    let clk = c.clk in
    let ops = cb.cb_op and code = cb.cb_code in
    let fk = cb.cb_fk and arrs = cb.cb_arrs in
    let iregs = fr.iregs and fregs = fr.fregs and farrs = fr.farrs in
    let powered = c.powered and dyn = c.dyn_row and comp = c.lg_comp in
    let npc = clk.ns_per_cycle and leak = clk.leak_mw in
    let period = t.cache_miss_period in
    let time = ref clk.time and busy = ref clk.busy_ns in
    let dyn_cat = ref (Array.unsafe_get c.lg_cat 0) in
    let leak_cat = ref (Array.unsafe_get c.lg_cat 1) in
    let total = ref (Array.unsafe_get c.lg_tot 0) in
    let cycles = ref 0 in
    let i = ref start and lim = ref stop in
    while !i < !lim do
      let b = !i lsl enc_shift in
      let k = Array.unsafe_get code (b + f_cost) in
      let ci = cost_ci k and n = cost_n k and miss = cost_miss k in
      let dt = float_of_int n *. npc in
      let lnj = leak *. dt *. 1e-3 in
      let dnj = Array.unsafe_get dyn ci in
      if Array.unsafe_get powered ci
         && (not (dt > 0.0 && lnj < 0.0))
         && (not (dnj < 0.0))
         && (not (miss && c.local_accs + 1 >= period))
         && effect ~strict:false fr iregs fregs farrs code fk arrs b
              (Array.unsafe_get ops !i)
      then begin
        (* [spend]: the cycles, then [advance]'s leakage and clock *)
        cycles := !cycles + n;
        if dt > 0.0 then begin
          leak_cat := !leak_cat +. lnj;
          total := !total +. lnj;
          time := !time +. dt;
          busy := !busy +. dt
        end;
        if miss then c.local_accs <- c.local_accs + 1;
        (* [charge_dyn]: category, component, total *)
        dyn_cat := !dyn_cat +. dnj;
        Array.unsafe_set comp ci (Array.unsafe_get comp ci +. dnj);
        total := !total +. dnj;
        incr i
      end
      else lim := !i
    done;
    clk.time <- !time;
    clk.busy_ns <- !busy;
    Array.unsafe_set c.lg_cat 0 !dyn_cat;
    Array.unsafe_set c.lg_cat 1 !leak_cat;
    Array.unsafe_set c.lg_tot 0 !total;
    c.cycles <- c.cycles + !cycles;
    c.instr_count <- c.instr_count + (!i - start);
    !i
  end


(* ------------------------------------------------------------------ *)
(* Block encoding (compiled mode)                                      *)
(* ------------------------------------------------------------------ *)

(* Profiling: a block is shared across cores, so each instruction and
   the terminator get one slot per core, resolved eagerly here;
   {!step_encoded} points the executing core's [prof_cur] at it.  A
   terminator attributes to the line of the last instruction of its
   block (0 for an empty block), as in {!step_interp}.  Never-executed
   instructions leave their eagerly-created slots all-zero;
   {!Profile.collect} drops those, so the merged profile matches the
   interpreter's lazily created slot set exactly. *)
let block_slots t fname (instrs : Predecode.dinstr array) =
  let n = Array.length instrs in
  Array.init (n + 1) (fun i ->
      let line =
        if n = 0 then 0
        else instrs.(if i < n then i else n - 1).Predecode.di_instr.Ir.loc.Ir.line
      in
      Array.map (fun (c : core) -> Profile.slot c.prof fname line) t.cores)

(** Encode every block of [cf]; a label with no block keeps
    {!dummy_cblock}. *)
let compile_cfun t p (cf : cfun) =
  let df = cf.cf_fe.fe_dfunc in
  cf.cf_blocks <-
    Array.map
      (fun (db : Predecode.dblock) ->
        if db == Predecode.dummy_block then dummy_cblock
        else begin
          let instrs = db.Predecode.db_instrs in
          let n = Array.length instrs in
          let code = Array.make ((n + 1) * enc_width) 0 in
          let ops = Array.make (n + 1) Ret in
          for i = 0 to n - 1 do
            ops.(i) <- encode t df p instrs.(i) code (i lsl enc_shift)
          done;
          ops.(n) <- encode_term p df db.Predecode.db_term code (n lsl enc_shift);
          {
            cb_n = n;
            cb_op = ops;
            cb_code = code;
            cb_fk = drain p.fk;
            cb_vals = drain p.vals;
            cb_arrs = drain p.arrs;
            cb_calls = drain p.calls;
            cb_db = db;
            cb_slots =
              (if t.opts.profile then
                 block_slots t cf.cf_fe.fe_func.Prog.fname instrs
               else [||]);
          }
        end)
      df.Predecode.df_blocks

(* ------------------------------------------------------------------ *)
(* Construction (continued): ties decode + compilation together        *)
(* ------------------------------------------------------------------ *)

(* Keyed on the program and its mutation stamp: a pass that rewrites a
   function in place bumps [Prog.prog_version], so re-simulating an
   optimised program never runs its old decode. *)
let decode_cache :
    (Prog.t * int * ((string, Predecode.dfunc) Hashtbl.t * int)) option ref =
  ref None

let decode_prog_cached prog ~version =
  match !decode_cache with
  | Some (p, v, res) when p == prog && v = version -> res
  | _ ->
    let res = Predecode.decode_prog prog in
    decode_cache := Some (prog, version, res);
    res

let create ?(opts = default_options) ~(machine : Machine.t) (prog : Prog.t) : t =
  let entries = Prog.entries prog in
  if List.length entries > Machine.n_cores machine then
    invalid_arg
      (Printf.sprintf "Sim.create: program needs %d cores, machine has %d"
         (List.length entries) (Machine.n_cores machine));
  (* the one gate for faults visible in the IR, run once per program
     version: a program [Compile] produced was verified at its end *)
  let version = Prog.prog_version prog in
  if not (Prog.verified prog ~version) then Verify.verify_prog prog;
  let entry_funcs = List.map (Prog.func_exn prog) entries in
  (* class 0's nominal point is the machine reference clock *)
  let nominal = Power_model.nominal (Machine.ref_power machine) in
  let cores =
    Array.of_list
      (List.mapi
         (fun id _entry ->
           let ledger = Energy_ledger.create () in
           let prof = Profile.create_tab () in
           let cls = Machine.class_index_of_core machine id in
           let cc = machine.Machine.classes.(cls) in
           {
             id;
             cls;
             pm = cc.Machine.cc_power;
             perf_scale = cc.Machine.cc_perf_scale;
             stack = [];
             status = Ready;
             clk =
               {
                 time = 0.0;
                 busy_ns = 0.0;
                 bus_wait_ns = 0.0;
                 leak_mw = 0.0;
                 ns_per_cycle = 0.0;
               };
             (* each core starts at its own class's nominal point *)
             point = Power_model.nominal cc.Machine.cc_power;
             powered = Array.make Component.count true;
             ledger;
             lg_cat = Energy_ledger.raw_by_category ledger;
             lg_comp = Energy_ledger.raw_by_component ledger;
             lg_tot = Energy_ledger.raw_total ledger;
             dyn_row = Array.make Component.count 0.0;
             instr_count = 0;
             implicit_wakeups = 0;
             gate_transitions = 0;
             dvfs_transitions = 0;
             send_blocks = 0;
             recv_blocks = 0;
             cycles = 0;
             bus_txns = 0;
             bus_words = 0;
             local_accs = 0;
             prof_on = opts.profile;
             prof;
             (* nothing charges before the first step repoints this *)
             prof_cur = Profile.slot prof "(idle)" 0;
           })
         entries)
  in
  let (n_channels, n_barriers, cap) =
    match prog.Prog.layout with
    | Prog.Sequential -> (0, 0, 0)
    | Prog.Parallel { n_channels; n_barriers; chan_capacity; _ } ->
      (n_channels, n_barriers, chan_capacity)
  in
  (* decode is likewise a pure function of the program (no machine
     state involved) and its output is immutable, so the same
     single-entry cache applies *)
  let (dfuncs, decoded_blocks) = decode_prog_cached prog ~version in
  let fsyms = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.func) ->
      let df = Hashtbl.find dfuncs f.Prog.fname in
      let regs = df.Predecode.df_regs in
      let zero r =
        if r < Array.length regs && regs.(r) land 1 = Verify.cls_float then
          Value.Vfloat 0.0
        else Value.Vint 0
      in
      Hashtbl.replace fsyms f.Prog.fname
        {
          cf_fe =
            {
              fe_func = f;
              fe_params = Array.of_list (List.map fst f.Prog.params);
              fe_dfunc = df;
              fe_zero =
                (if opts.predecode then [||]
                 else Array.init (max 1 (Array.length regs)) zero);
            };
          cf_blocks = [||];
        })
    (Prog.funcs prog);
  let nominal_ns_of n = Operating_point.ns_of_cycles nominal n in
  let shared = init_shared prog in
  (* place big shared arrays in the far tier (empty table when the
     machine has no far tier, keeping every access on the near path) *)
  let far_syms = Hashtbl.create 8 in
  (match machine.Machine.mem.Machine.far with
  | None -> ()
  | Some _ ->
    Hashtbl.iter
      (fun name arr ->
        if Machine.is_far machine (Array.length arr) then
          Hashtbl.replace far_syms name ())
      shared);
  let (cache_miss_period, cache_miss_penalty, cache_miss_energy_nj) =
    match machine.Machine.mem.Machine.local with
    | Machine.Scratchpad _ -> (0, 0, 0.0)
    | Machine.Cache { miss_period; miss_penalty_cycles; miss_energy_nj; _ } ->
      (miss_period, miss_penalty_cycles, miss_energy_nj)
  in
  let t =
    {
      prog;
      machine;
      opts;
      fsyms;
      decoded_blocks;
      cores;
      shared;
      chans =
        Array.init n_channels (fun _ ->
            { cap; queue = Queue.create (); waiting_senders = Queue.create ();
              total_msgs = 0; last_pop = 0.0 });
      barriers = Array.init n_barriers (fun _ -> { arrived = 0; latest = 0.0 });
      bus_free = Array.make 1 0.0;
      steps = 0;
      trace = [];
      trace_len = 0;
      leak_recomputes = 0;
      sched_event = false;
      batch_other = -1;
      live_cores = Array.length cores;
      unblock_dirty = true;
      faults_armed = Lp_util.Fault.active ();
      bus_txn1_ns =
        nominal_ns_of
          (machine.Machine.bus_latency_cycles + machine.Machine.bus_word_cycles);
      shared_extra_ns =
        nominal_ns_of (Machine.shared_mem_latency_cycles machine);
      bus_word_energy_nj = machine.Machine.bus_energy_per_word_nj;
      far_syms;
      far_extra_ns =
        (match machine.Machine.mem.Machine.far with
        | None -> 0.0
        | Some far ->
          nominal_ns_of
            (Machine.shared_mem_latency_cycles machine
            + far.Machine.tier_latency_cycles));
      far_energy_nj =
        (match machine.Machine.mem.Machine.far with
        | None -> 0.0
        | Some far -> far.Machine.tier_energy_per_access_nj);
      cache_miss_period;
      cache_miss_penalty;
      cache_miss_energy_nj;
    }
  in
  if opts.predecode then begin
    let pool () = { items = []; size = 0 } in
    let p = { fk = pool (); vals = pool (); arrs = pool (); calls = pool () } in
    Hashtbl.iter (fun _ cf -> compile_cfun t p cf) fsyms
  end;
  List.iteri
    (fun i (f : Prog.func) ->
      cores.(i).stack <- [ make_frame cores.(i) (Hashtbl.find fsyms f.Prog.fname) ])
    entry_funcs;
  Array.iter
    (fun c ->
      refresh_point_caches t c;
      recompute_leak t c)
    cores;
  t

(* ------------------------------------------------------------------ *)
(* Scheduler loop                                                      *)
(* ------------------------------------------------------------------ *)

(** Try to unblock blocked cores; true if any progress was made. *)
let unblock_pass t : bool =
  let progress = ref false in
  Array.iter
    (fun c ->
      match c.status with
      | Blocked_recv (chan_id, d) ->
        let ch = t.chans.(chan_id) in
        if not (Queue.is_empty ch.queue) then begin
          let (v, ready) = Queue.pop ch.queue in
          resume_at t c ready;
          ch.last_pop <- fmax ch.last_pop c.clk.time;
          (match c.stack with
          | fr :: _ ->
            if t.opts.predecode then
              store_value fr fr.dfunc.Predecode.df_regs.(d) v
            else setr fr d v
          | [] -> runtime_err "blocked core with empty stack");
          c.status <- Ready;
          progress := true;
          (* a slot freed: complete one waiting sender, FIFO *)
          if not (Queue.is_empty ch.waiting_senders) then begin
            let sid = Queue.pop ch.waiting_senders in
            let s = t.cores.(sid) in
            match s.status with
            | Blocked_send (cid, sv) when cid = chan_id ->
              resume_at t s ch.last_pop;
              complete_send t s chan_id sv;
              s.status <- Ready
            | _ -> runtime_err "inconsistent sender queue on channel %d" chan_id
          end
        end
      | Blocked_send (chan_id, v) ->
        let ch = t.chans.(chan_id) in
        (* possible when capacity grew available without a blocked recv *)
        if Queue.length ch.queue < ch.cap
           && (not (Queue.is_empty ch.waiting_senders))
           && Queue.peek ch.waiting_senders = c.id then begin
          ignore (Queue.pop ch.waiting_senders);
          resume_at t c ch.last_pop;
          complete_send t c chan_id v;
          c.status <- Ready;
          progress := true
        end
      | Ready | Blocked_barrier _ | Halted _ -> ())
    t.cores;
  !progress

let all_halted t = t.live_cores = 0

let describe_blocked t =
  let parts =
    Array.to_list
      (Array.map
         (fun c ->
           let s =
             match c.status with
             | Ready -> "ready"
             | Blocked_send (ch, _) -> Printf.sprintf "send(ch%d)" ch
             | Blocked_recv (ch, _) -> Printf.sprintf "recv(ch%d)" ch
             | Blocked_barrier b -> Printf.sprintf "barrier(%d)" b
             | Halted _ -> "halted"
           in
           Printf.sprintf "core%d:%s" c.id s)
         t.cores)
  in
  String.concat " " parts

(** Batched stepping for the compiled mode: keep stepping [c] while it
    stays [Ready] (blocking or halting hands control back) and no
    {e scheduling event} has fired ([t.sched_event]: a channel push/pop
    or barrier release, which could make a blocked core schedulable or
    move another core's clock).  Each round runs a section of register
    instructions ({!run_section}) up to the block's end or the step
    budget, then the instruction or terminator where it stopped
    ({!step_encoded}), and re-reads the core's frame, which that step
    may have pushed, popped or moved to another block.

    Core-local instructions (registers, frame and ROM memory, power
    state, calls) commute with other cores' work, so the batch runs
    through them regardless of the clock race.  Globally-visible
    instructions run a turn guard ({!visible_turn}) that yields back to
    the scheduler exactly when the per-step reference would have run
    the runner-up ([other_i], -1 when there is none) first: other ready
    cores' clocks only move when they are stepped, so the runner-up
    bound captured at pick time stays valid for the whole batch, and
    shared memory, bus, channel and barrier operations execute in the
    reference (time, id) order.  Skipped [unblock_pass] calls are
    provably no-ops because every state change they react to raises
    [t.sched_event].  A section can neither block, yield, call nor fire
    an event, and it never runs past the step budget, so [t.steps]
    reaches [Step_limit_exceeded] after exactly the same step as the
    one-at-a-time loop.  The one observable batching reorders is the
    interleaving of per-core entries in the event trace, which is why
    {!run_loop} single-steps instead when tracing is on. *)
let run_sched_batch t (c : core) ~other_i =
  let lim = t.opts.max_steps in
  t.batch_other <- other_i;
  while
    (match c.status with
    | Ready -> true
    | Blocked_send _ | Blocked_recv _ | Blocked_barrier _ | Halted _ ->
      false)
    && not t.sched_event
  do
    (* a single-core (or far-ahead) batch can run the whole program
       without yielding to the scheduler, so the cooperative deadline
       must also be checked here — once per round *)
    Lp_util.Deadline.check t.opts.deadline;
    match c.stack with
    | [] -> runtime_err "core %d has empty stack" c.id
    | fr :: _ ->
      let cb = fr.cblk in
      let i = fr.idx in
      (* an int compare: [Stdlib.min] is a polymorphic one, and a call *)
      let room = lim - t.steps in
      let stop = if cb.cb_n - i < room then cb.cb_n else i + room in
      if i < stop && in_section (Array.unsafe_get cb.cb_op i) then begin
        let j = run_section t fr cb i stop in
        t.steps <- t.steps + (j - i);
        fr.idx <- j
      end;
      t.steps <- t.steps + 1;
      if t.steps > lim then raise Step_limit_exceeded;
      step_encoded t fr
  done

let run_loop t =
  let predecode = t.opts.predecode in
  let deadline = t.opts.deadline in
  let continue_ = ref true in
  while !continue_ do
    if all_halted t then continue_ := false
    else begin
      (* cooperative cancellation: one paced check per scheduling
         decision (compiled batches stay uninterrupted, so simulated
         state is never abandoned mid-instruction) *)
      Lp_util.Deadline.check deadline;
      (* unblock eagerly so that cores advance in (approximately) global
         virtual-time order — required for the shared-bus occupancy model
         to see transactions near-chronologically *)
      t.sched_event <- false;
      (* the pass only acts on channel-blocked cores and channel state;
         with [unblock_dirty] clear nothing relevant changed since the
         previous pass, so the compiled mode skips the provable no-op.
         The interpretive reference keeps the pass-every-step seed
         behaviour. *)
      if t.unblock_dirty || not predecode then begin
        t.unblock_dirty <- false;
        ignore (unblock_pass t)
      end;
      (* pick the ready core with the smallest local time (ties to the
         lowest id); also track the runner-up bound that lets the
         compiled mode keep stepping the pick without rescanning.  The
         scan works on array indices (core ids are their indices), so
         it allocates nothing — it runs once per scheduling decision,
         which for tightly interleaved cores means nearly every step *)
      let best_i = ref (-1) in
      let other_i = ref (-1) in
      for i = 0 to Array.length t.cores - 1 do
        let c = t.cores.(i) in
        match c.status with
        | Ready ->
          if !best_i < 0 then best_i := i
          else if c.clk.time < t.cores.(!best_i).clk.time then begin
            (* the old best was the minimum of everything seen so far,
               so it becomes the runner-up outright *)
            other_i := !best_i;
            best_i := i
          end
          else if !other_i < 0 || c.clk.time < t.cores.(!other_i).clk.time then
            other_i := i
        | Blocked_send _ | Blocked_recv _ | Blocked_barrier _ | Halted _ ->
          ()
      done;
      if !best_i < 0 then begin
        if not (unblock_pass t) then
          raise (Deadlock ("no runnable core: " ^ describe_blocked t))
      end
      else begin
        let c = t.cores.(!best_i) in
        if predecode then
          if t.sched_event || t.opts.trace_limit > 0 then begin
            (* single-step like the per-step scheduler: the unblock pass
               itself completed a send (another pass may unblock more),
               or tracing is on and the event trace must interleave the
               cores exactly as the reference does.  [c] won the full
               pick scan, so a visible instruction needs no turn guard
               here *)
            t.batch_other <- -1;
            t.steps <- t.steps + 1;
            if t.steps > t.opts.max_steps then raise Step_limit_exceeded;
            match c.stack with
            | fr :: _ -> step_encoded t fr
            | [] -> runtime_err "core %d has empty stack" c.id
          end
          else run_sched_batch t c ~other_i:!other_i
        else begin
          t.steps <- t.steps + 1;
          if t.steps > t.opts.max_steps then raise Step_limit_exceeded;
          step_interp t c
        end
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ret : Value.t option;             (** return value of core 0 *)
  duration_ns : float;
  energy : Energy_ledger.t;         (** machine-wide, merged *)
  core_ledgers : Energy_ledger.t array;
  class_energy : (string * Energy_ledger.t) list;
      (** per-core-class breakdown, in class order; includes the unused
          cores of each class.  Singleton on homogeneous machines. *)
  shared_final : (string, Value.t array) Hashtbl.t;
  instr_total : int;
  implicit_wakeups : int;
  gate_transitions : int;
  dvfs_transitions : int;
  busy_ns : float array;
  instrs_per_core : int array;
  send_blocks : int array;
  recv_blocks : int array;
  cycles_per_core : int array;   (** compute cycles issued per core *)
  bus_txns_per_core : int array; (** shared-bus transactions per core *)
  bus_words_per_core : int array;
  bus_wait_ns_per_core : float array;  (** contention: time waiting for the bus *)
  channel_msgs : int;
  steps : int;
  events : event list;  (** oldest first; bounded by [options.trace_limit] *)
  decoded_blocks : int;   (** blocks decoded once at construction *)
  leak_recomputes : int;  (** {!recompute_leak} invocations this run *)
  predecode : bool;       (** whether the compiled stepper was active *)
  profile : Profile.t option;
      (** per-(function, line) energy attribution; [Some] exactly when
          [options.profile] was set *)
}

(** Charge leakage of machine cores not used by the program, for the whole
    run duration — each unused core by its own class's power model. *)
let charge_unused_cores t ~duration =
  let used = Array.length t.cores in
  let m = t.machine in
  let ledgers = ref [] in
  for id = used to Machine.n_cores m - 1 do
    let pm = Machine.power_of_core m id in
    let ledger = Energy_ledger.create () in
    List.iter
      (fun comp ->
        let gated = t.opts.gate_unused_cores && Component.gateable comp in
        if not gated then
          Energy_ledger.charge ledger ~category:Energy_ledger.Leakage_idle
            ~component:comp
            (pm.Power_model.leak_power_mw.(Component.index comp)
             *. duration *. 1e-3))
      m.Machine.components;
    if t.opts.gate_unused_cores then
      (* the initial gating transitions of that core *)
      List.iter
        (fun comp ->
          if Component.gateable comp then
            Energy_ledger.charge ledger
              ~category:Energy_ledger.Gating_overhead
              pm.Power_model.gate_energy_nj)
        m.Machine.components;
    ledgers := ledger :: !ledgers
  done;
  List.rev !ledgers

module Obs = Lp_obs.Obs

(** Feed the recorder from a finished simulation: one simulated-time span
    per core (on {!Obs.sim_pid}, so chrome://tracing shows the machine's
    timeline next to the compiler's wall clock) and the per-core
    cycle/bus/instruction counters. *)
let observe_outcome obs t ~duration =
  if Obs.enabled obs then begin
    Array.iter
      (fun (c : core) ->
        Obs.emit_span obs ~cat:"sim-core" ~pid:Obs.sim_pid ~tid:c.id
          ~start_ns:0.0 ~dur_ns:c.clk.time
          ~args:
            [
              ("instrs", Obs.Int c.instr_count);
              ("cycles", Obs.Int c.cycles);
              ("bus_txns", Obs.Int c.bus_txns);
              ("busy_ns", Obs.Float c.clk.busy_ns);
            ]
          (Printf.sprintf "core%d" c.id);
        let ctr fmt = Printf.sprintf fmt c.id in
        Obs.add obs (ctr "sim.core%d.instrs") c.instr_count;
        Obs.add obs (ctr "sim.core%d.cycles") c.cycles;
        Obs.add obs (ctr "sim.core%d.bus_txns") c.bus_txns;
        Obs.add obs (ctr "sim.core%d.bus_words") c.bus_words)
      t.cores;
    Obs.add obs "sim.runs" 1;
    Obs.add obs "sim.steps" t.steps;
    Obs.add obs "sim.channel_msgs"
      (Array.fold_left (fun a ch -> a + ch.total_msgs) 0 t.chans);
    (* an implicit wakeup means an instruction executed on a component
       the compiler had gated off — always a compiler bug, so the count
       is surfaced as a counter even when zero *)
    Obs.add obs "sim.implicit_wakeups"
      (Array.fold_left (fun a (c : core) -> a + c.implicit_wakeups) 0 t.cores);
    Obs.add obs "sim.leak_recomputes" t.leak_recomputes;
    Obs.add obs "sim.predecode.blocks" t.decoded_blocks;
    Obs.add obs "sim.predecode.active" (if t.opts.predecode then 1 else 0);
    Obs.set_gauge obs "sim.last_duration_ns" duration
  end

let run ?(opts = default_options) ?(obs = Obs.disabled) ~machine prog : outcome =
  Lp_util.Fault.check Lp_util.Fault.Pre_simulate ~key:"run";
  let t = create ~opts ~machine prog in
  Obs.span obs ~cat:"sim" "simulate" (fun () -> run_loop t);
  let duration =
    Array.fold_left (fun acc c -> Float.max acc c.clk.time) 0.0 t.cores
  in
  (* cores that halted early leak (idle) until the machine finishes;
     that alignment belongs to no instruction, so it attributes to the
     synthetic "(idle)" row *)
  Array.iter
    (fun c ->
      if c.prof_on then c.prof_cur <- Profile.slot c.prof "(idle)" 0;
      if c.clk.time < duration then resume_at t c duration)
    t.cores;
  let unused = charge_unused_cores t ~duration in
  let profile =
    if not t.opts.profile then None
    else begin
      let extra = Profile.create_tab () in
      (match unused with
      | [] -> ()
      | ledgers ->
        let s = Profile.slot extra "(unused-cores)" 0 in
        List.iter
          (fun l ->
            let cat = Energy_ledger.raw_by_category l in
            for i = 0 to Profile.num_categories - 1 do
              s.Profile.sl_cat.(i) <- s.Profile.sl_cat.(i) +. cat.(i)
            done)
          ledgers);
      Some
        (Profile.collect
           (Array.append
              (Array.map (fun c -> c.prof) t.cores)
              [| extra |]))
    end
  in
  observe_outcome obs t ~duration;
  let energy = Energy_ledger.create () in
  Array.iter (fun c -> Energy_ledger.merge_into ~dst:energy ~src:c.ledger) t.cores;
  List.iter (fun l -> Energy_ledger.merge_into ~dst:energy ~src:l) unused;
  let used = Array.length t.cores in
  let class_energy =
    Array.to_list
      (Array.mapi
         (fun k (cc : Machine.core_class) ->
           let l = Energy_ledger.create () in
           Array.iter
             (fun c ->
               if c.cls = k then Energy_ledger.merge_into ~dst:l ~src:c.ledger)
             t.cores;
           List.iteri
             (fun i ul ->
               if Machine.class_index_of_core t.machine (used + i) = k then
                 Energy_ledger.merge_into ~dst:l ~src:ul)
             unused;
           (cc.Machine.cc_name, l))
         t.machine.Machine.classes)
  in
  let ret =
    match t.cores.(0).status with Halted v -> v | _ -> None
  in
  {
    ret;
    duration_ns = duration;
    energy;
    core_ledgers = Array.map (fun c -> c.ledger) t.cores;
    class_energy;
    shared_final = t.shared;
    instr_total = Array.fold_left (fun a (c : core) -> a + c.instr_count) 0 t.cores;
    implicit_wakeups =
      Array.fold_left (fun a (c : core) -> a + c.implicit_wakeups) 0 t.cores;
    gate_transitions =
      Array.fold_left (fun a (c : core) -> a + c.gate_transitions) 0 t.cores;
    dvfs_transitions =
      Array.fold_left (fun a (c : core) -> a + c.dvfs_transitions) 0 t.cores;
    busy_ns = Array.map (fun (c : core) -> c.clk.busy_ns) t.cores;
    instrs_per_core = Array.map (fun (c : core) -> c.instr_count) t.cores;
    send_blocks = Array.map (fun (c : core) -> c.send_blocks) t.cores;
    recv_blocks = Array.map (fun (c : core) -> c.recv_blocks) t.cores;
    cycles_per_core = Array.map (fun (c : core) -> c.cycles) t.cores;
    bus_txns_per_core = Array.map (fun (c : core) -> c.bus_txns) t.cores;
    bus_words_per_core = Array.map (fun (c : core) -> c.bus_words) t.cores;
    bus_wait_ns_per_core = Array.map (fun (c : core) -> c.clk.bus_wait_ns) t.cores;
    channel_msgs = Array.fold_left (fun a ch -> a + ch.total_msgs) 0 t.chans;
    steps = t.steps;
    events = List.rev t.trace;
    decoded_blocks = t.decoded_blocks;
    leak_recomputes = t.leak_recomputes;
    predecode = t.opts.predecode;
    profile;
  }

(** Map the exceptions a simulation can raise onto structured
    diagnostics; [None] for exceptions the simulator does not own. *)
let diag_of_exn : exn -> Lp_util.Diag.t option =
  let module D = Lp_util.Diag in
  function
  | D.Error d -> Some d
  | Deadlock msg -> Some (D.make D.Simulate ~code:"E_DEADLOCK" msg)
  | Step_limit_exceeded ->
    Some (D.make D.Simulate ~code:"E_STEP_LIMIT" "simulation step limit exceeded")
  | Value.Runtime_error msg -> Some (D.make D.Simulate ~code:"E_RUNTIME" msg)
  | Verify.Invalid msg -> Some (D.make D.Verify ~code:"E_VERIFY" msg)
  | _ -> None

(** Read back a global cell after the run (for correctness checks). *)
let shared_cell (o : outcome) name idx =
  match Hashtbl.find_opt o.shared_final name with
  | Some a when idx >= 0 && idx < Array.length a -> Some a.(idx)
  | Some _ | None -> None

let shared_array (o : outcome) name = Hashtbl.find_opt o.shared_final name

(** Energy-delay product in nJ*ms — the metric of figure F2. *)
let edp (o : outcome) = Energy_ledger.total o.energy *. (o.duration_ns *. 1e-6)
