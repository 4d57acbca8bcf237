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
      {!Predecode}) and compiles each basic block once, with operands,
      memory symbols, call targets and per-point energy/time factors
      resolved up front.  The core-local register instructions —
      [Const], [Move], [Binop], [Unop], [Mac] and loads of frame and ROM
      arrays — are encoded into flat per-block arrays, and each run of
      them executes in one loop that makes no call and keeps the core's
      clock and ledger in registers ({!run_section}).  Every other
      instruction remains an OCaml closure: local stores (they box the
      stored word), [Pg_off], [Pg_on] and [Dvfs], calls, and the
      globally visible instructions (shared loads and stores, [Faa],
      [Send], [Recv], [Barrier]); so do the terminators.  Registers are
      unboxed: each frame holds an [int array] and a [float array], one
      per register class.  [Value.t] boxes remain at the boundaries
      only: memory arrays, channel messages, the value a core halts
      with, and a call argument or return value whose class differs
      from its destination's;
    - the {e interpretive} mode ([predecode = false], reachable through
      [LP_NO_SIM_PREDECODE=1] / [--no-sim-predecode]) keeps the original
      per-instruction match dispatch over [Value.t] registers and serves
      as the reference the compiled mode is checked against.

    Both modes start every register at the zero of its class, and both
    reject at construction a program with a register of two classes
    (the decoder infers the classes, raising [Verify.Invalid]).

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
  | Blocked_recv of int * Ir.reg * Ir.ty
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
  fcore : core;  (** owning core, so compiled closures are arity-1 *)
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

(** One compiled basic block.  Instruction [i] is either encoded
    ([cb_op.(i)] is not [Closure]: its operands and costs are the
    [enc_width] ints of [cb_code] from [i * enc_width], see {!opc}) or
    a closure; [cb_instrs.(i)] is the closure, or the one shared
    out-of-line step of encoded instructions. *)
and cblock = {
  cb_instrs : (frame -> unit) array;
  cb_n : int;
  cb_pure : int array;
      (** [cb_pure.(i)] = length of the maximal run of {e pure}
          instructions starting at [i] (0 when instruction [i] is not
          pure).  Pure = cannot change the core's status, fire a
          scheduling event, or push a frame — so the batch loop
          executes the whole run with no per-instruction checks (see
          {!run_sched_batch}) *)
  cb_term : frame -> unit;
  cb_op : opc array;
  cb_code : int array;
  cb_fk : float array;  (** the float immediates of encoded instructions *)
  cb_roms : Value.t array array;  (** the ROM arrays encoded loads read *)
  cb_db : Predecode.dblock;
      (** the decoded block: an out-of-line step reads an instruction's
          component, and the symbol an error names, from it *)
  cb_slots : Profile.slot array array;
      (** per encoded instruction, its profile slot on each core;
          [[||]] unless profiling *)
}

(** The opcode of an encoded instruction.  Encoded are the core-local
    instructions that touch no memory but a register, a frame array or
    a ROM array: [Const], [Move], [Binop], [Unop], [Mac] and local
    [Load].  Each kind has a generic opcode ([Ibin], [Fbin], [Un],
    [Mac], [Load]) that runs every operand shape, reading from the cost
    word which operands are immediates (and, but for [Mac] and [Load],
    the operator).  The shapes that dominate the executed mix have their
    own opcode, with no such reads: an int binop of two registers
    ([_rr]) or of a register and an immediate ([_ri]), a [Mac] of three
    registers, and an int load from a ROM array at a register index
    (docs/PERF.md, "Opcodes per operand shape", measures the generic
    paths against them).  An operand of the wrong class compiles to
    [Ill_int] or [Ill_float] ([Load_ill] for a load's index), an unknown
    memory symbol to [Load_unknown]: they raise the interpreter's error
    when run. *)
and opc =
  | Closure  (** not encoded: [cb_instrs.(i)] runs it *)
  | Add_rr | Sub_rr | Mul_rr | Div_rr | Mod_rr | Shl_rr | Shr_rr | And_rr
  | Or_rr | Xor_rr | Lt_rr | Le_rr | Gt_rr | Ge_rr | Eq_rr | Ne_rr
  | Add_ri | Sub_ri | Mul_ri | Div_ri | Mod_ri | Shl_ri | Shr_ri | And_ri
  | Or_ri | Xor_ri | Lt_ri | Le_ri | Gt_ri | Ge_ri | Eq_ri | Ne_ri
  | Ibin | Fbin | Un
  | Mac_rrr | Mac
  | Const_i | Const_f | Move_i | Move_f
  | Load_ri  (** a ROM array into an int register, at a register index *)
  | Load
  | Ill_int | Ill_float | Load_ill | Load_unknown

(** A compiled function.  [cf_blocks] is indexed by block label;
    created for every function first, then filled, so call targets
    and branch targets resolve across mutual recursion. *)
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
  mutable leak_dirty : bool;
      (** compiled mode defers {!recompute_leak} to the next clock
          advance; the interpretive mode recomputes eagerly and never
          sets this *)
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

type barrier_state = { mutable arrived : (int * float) list }

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
  mutable frames_dirty : bool;
      (** set by a compiled [Call] when it pushes a frame: the batch
          loop's cached frame/block are stale and must be re-fetched
          (terminators are re-fetched unconditionally) *)
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
  c.clk.leak_mw <- !sum;
  c.leak_dirty <- false

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
  { cb_instrs = [||]; cb_n = 0; cb_pure = [||];
    cb_term = (fun _ -> assert false); cb_op = [||]; cb_code = [||];
    cb_fk = [||]; cb_roms = [||]; cb_db = Predecode.dummy_block;
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

(** Advance a core's clock, charging leakage of powered components.  The
    compiled mode marks leakage dirty on power events instead of
    recomputing eagerly; the value is refreshed here, at the first
    advance that reads it — which is exactly when the eager recompute
    would first be observable. *)
let[@inline always] advance t (c : core) dt ~idle =
  if dt > 0.0 then begin
    if c.leak_dirty then recompute_leak t c;
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

let mem_array t (fr : frame) (s : Ir.sym) : Value.t array =
  match s.Ir.sym_space with
  | Ir.Shared | Ir.Rom -> (
    match Hashtbl.find_opt t.shared s.Ir.sym_name with
    | Some a -> a
    | None -> runtime_err "unknown global %s" s.Ir.sym_name)
  | Ir.Frame -> (
    match Hashtbl.find_opt fr.dfunc.Predecode.df_frame_idx s.Ir.sym_name with
    | Some k -> fr.farrs.(k)
    | None -> runtime_err "unknown frame array %s" s.Ir.sym_name)

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

(** Handle an instruction executing on a gated component: implicit wakeup
    with full penalty.  Correct compiler output never triggers this. *)
let ensure_powered t (c : core) comp =
  let i = Component.index comp in
  if not c.powered.(i) then begin
    let pm = c.pm in
    c.powered.(i) <- true;
    recompute_leak t c;
    c.implicit_wakeups <- c.implicit_wakeups + 1;
    record t c (fun () -> "IMPLICIT WAKEUP of " ^ Component.to_string comp);
    c.gate_transitions <- c.gate_transitions + 1;
    charge c Energy_ledger.Gating_overhead pm.Power_model.gate_energy_nj;
    spend t c pm.Power_model.wake_latency_cycles
  end

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

let release_barrier t bid =
  let b = t.barriers.(bid) in
  if List.length b.arrived = barrier_participants t then begin
    let tmax =
      List.fold_left (fun acc (_, tm) -> Float.max acc tm) 0.0 b.arrived
    in
    let release = tmax +. nominal_ns t t.machine.Machine.bus_latency_cycles in
    List.iter
      (fun (cid, _) ->
        let c = t.cores.(cid) in
        resume_at t c release;
        c.status <- Ready)
      b.arrived;
    b.arrived <- [];
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
    fr.block <- (if Value.is_true (eval fr cond) then l1 else l2);
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
      | (Some _, None) -> runtime_err "void return into a register"
      | (None, _) -> ());
      caller.pending_dst <- None)

let exec_instr t (c : core) (fr : frame) (di : Predecode.dinstr) =
  let comp = di.Predecode.di_comp in
  ensure_powered t c comp;
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
  | Ir.Call (dst, callee, args) -> (
    simple_cost ();
    match Hashtbl.find_opt t.fsyms callee with
    | None -> runtime_err "call to unknown function %s" callee
    | Some cf ->
      let fe = cf.cf_fe in
      let new_fr = make_frame c cf in
      let nparams = Array.length fe.fe_params in
      let bound =
        List.fold_left
          (fun k arg ->
            if k >= nparams then runtime_err "too many arguments to %s" callee;
            new_fr.regs.(fe.fe_params.(k)) <- eval fr arg;
            k + 1)
          0 args
      in
      if bound <> nparams then runtime_err "arity mismatch calling %s" callee;
      fr.pending_dst <- dst;
      c.stack <- new_fr :: c.stack)
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
  | Ir.Recv (d, chan_id, ty) ->
    spend t c t.machine.Machine.channel_setup_cycles;
    charge_dynamic t c comp;
    let ch = t.chans.(chan_id) in
    if Queue.is_empty ch.queue then begin
      c.recv_blocks <- c.recv_blocks + 1;
      record t c (fun () ->
          Printf.sprintf "blocked receiving on ch%d" chan_id);
      c.status <- Blocked_recv (chan_id, d, ty);
      t.unblock_dirty <- true
    end
    else begin
      let (v, ready) = Queue.pop ch.queue in
      resume_at t c ready;
      ch.last_pop <- fmax ch.last_pop c.clk.time;
      (match (ty, v) with
      | (Ir.I, Value.Vint _) | (Ir.F, Value.Vfloat _) -> ()
      | _ -> runtime_err "channel %d type mismatch" chan_id);
      setr fr d v
    end
  | Ir.Barrier bid ->
    spend t c 1;
    charge_dynamic t c comp;
    let b = t.barriers.(bid) in
    record t c (fun () -> Printf.sprintf "arrived at barrier %d" bid);
    b.arrived <- (c.id, c.clk.time) :: b.arrived;
    c.status <- Blocked_barrier bid;
    release_barrier t bid);
  c.instr_count <- c.instr_count + 1;
  if c.prof_on then
    c.prof_cur.Profile.sl_instrs <- c.prof_cur.Profile.sl_instrs + 1

let missing_block_err l fname =
  invalid_arg (Printf.sprintf "Prog.block: no L%d in %s" l fname)

let fetch_dblock (fr : frame) l : Predecode.dblock =
  let blocks = fr.dfunc.Predecode.df_blocks in
  if l < 0 || l >= Array.length blocks then
    missing_block_err l fr.func.Prog.fname
  else
    match blocks.(l) with
    | Some db -> db
    | None -> missing_block_err l fr.func.Prog.fname

(** Execute one step (instruction or terminator) on a ready core —
    interpretive mode. *)
let step_interp t (c : core) =
  match c.stack with
  | [] -> runtime_err "core %d has empty stack" c.id
  | fr :: _ ->
    if fr.dbid <> fr.block then begin
      fr.dblk <- fetch_dblock fr fr.block;
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

(* The compiled stepper executes [cb_instrs.(idx) frame], or a section
   of encoded instructions ({!run_section}).  Each performs the same
   state mutations, in the same order, as one [exec_instr] dispatch —
   with everything that is a pure function of the IR, the machine, or
   the current operating point resolved ahead of time: operand fetches,
   memory symbols, call targets, per-component dynamic energies (no [**]
   per instruction), and cycle→ns factors (no division per
   instruction).  The closures and {!step_encoded} are assembled from
   the [@inline always] helpers below, so every step of the
   per-instruction protocol is written once for them and still compiles
   to straight-line code, with no call per step; {!run_section} is the
   protocol's second compiled definition. *)

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

(** Implicit wakeup, compiled mode: identical to {!ensure_powered}'s slow
    path except leakage refresh is deferred to the wake-stall advance. *)
let wakeup_compiled t (c : core) comp ci =
  let pm = c.pm in
  c.powered.(ci) <- true;
  c.leak_dirty <- true;
  c.implicit_wakeups <- c.implicit_wakeups + 1;
  record t c (fun () -> "IMPLICIT WAKEUP of " ^ Component.to_string comp);
  c.gate_transitions <- c.gate_transitions + 1;
  charge c Energy_ledger.Gating_overhead pm.Power_model.gate_energy_nj;
  spend t c pm.Power_model.wake_latency_cycles

(** The implicit wakeup of the instruction's component, when it is
    gated: on its own for the power-control instructions, which pay no
    dynamic charge, and as the first step of {!issue} for the rest. *)
let[@inline always] wake t (c : core) comp ci =
  if not (Array.unsafe_get c.powered ci) then wakeup_compiled t c comp ci

(* [n] cycles ([nf] is [n] pre-floated; [1.0 *. x] is exactly [x], so one
   cycle needs no special case), then — for a local access on a cache
   machine, when [miss] — the periodic miss, then the dynamic charge *)
let[@inline always] cost t (c : core) ci n nf ~miss =
  spend_nf t c n nf;
  if miss then local_miss t c;
  charge_dyn c ci

let issue_gated t (c : core) comp ci n nf ~miss =
  wake t c comp ci;
  cost t c ci n nf ~miss

(** Issue an instruction: the wakeup, then its cycles, then (see
    [cost]) the dynamic charge — the order {!exec_instr} performs them
    in.  The wakeup path is out of line, so the common path makes no
    call before the cost is paid. *)
let[@inline always] issue_miss t (c : core) comp ci n nf ~miss =
  if Array.unsafe_get c.powered ci then cost t c ci n nf ~miss
  else issue_gated t c comp ci n nf ~miss

let[@inline always] issue t c comp ci n nf =
  issue_miss t c comp ci n nf ~miss:false

(* Registers are unboxed: a frame of the compiled stepper keeps its int
   registers in [iregs] and its float registers in [fregs], each
   register at the slot [Predecode.df_regs] gives it within its class
   ({!Lp_ir.Verify.reg_classes}).  Frames size both arrays from the same
   table, so every compiled register access is in bounds by construction
   and the closures use unchecked accesses.  A closure reads and writes
   raw ints and floats — no box, no tag test, no write barrier — and
   none returns a float, which OCaml would box. *)

let[@inline always] ireg (fr : frame) s = Array.unsafe_get fr.iregs s
let[@inline always] freg (fr : frame) s = Array.unsafe_get fr.fregs s

(** Retire an instruction: its int result register (slot [s]), then
    the instruction count. *)
let[@inline always] retire_i (fr : frame) s n =
  Array.unsafe_set fr.iregs s n;
  bump fr.fcore

(** The slot of register [d] in its class's array; [df_regs.(d)] itself
    ([2 * slot + class]) is the destination code of {!store_value} and
    [frame.ret_dst]. *)
let slot (df : Predecode.dfunc) d = df.Predecode.df_regs.(d) lsr 1

(** Write a boxed value — a loaded word, a received message, a call
    argument or return value of the other class — into the register
    [k] encodes; a value of the wrong class raises [Value.to_int]'s or
    [Value.to_float]'s error, as reading it would in the interpreter. *)
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
    compiled {!shared_access}: [extra_ns] is the off-bus latency of the
    symbol's memory tier, and a far-tier symbol ([far]) also pays the
    tier's per-access energy.  Both are resolved when the closure is
    compiled, so near-only machines never take the far branch. *)
let bus_word t (c : core) extra_ns far =
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
  let finish = start +. t.bus_txn1_ns +. extra_ns in
  advance t c (finish -. c.clk.time) ~idle:false;
  (* hand-inlined [Energy_ledger.charge ~category:Communication] *)
  let nj = t.bus_word_energy_nj in
  if nj < 0.0 then Energy_ledger.negative_energy ();
  Array.unsafe_set c.lg_cat 5 (Array.unsafe_get c.lg_cat 5 +. nj);
  Array.unsafe_set c.lg_tot 0 (Array.unsafe_get c.lg_tot 0 +. nj);
  if far then charge c Energy_ledger.Communication t.far_energy_nj

(** An operand resolved against its function's register classes: the
    slot of an int or a float register, or a constant. *)
type src = Ireg of int | Freg of int | Iimm of int | Fimm of float

(** [df_regs.(r)], or the error of a register [df] never allocated. *)
let reg_code (df : Predecode.dfunc) r =
  let regs = df.Predecode.df_regs in
  if r < 0 || r >= Array.length regs then
    runtime_err "%s reads r%d, which it never allocated"
      df.Predecode.df_func.Prog.fname r
  else regs.(r)

let src (df : Predecode.dfunc) (o : Ir.operand) : src =
  match o with
  | Ir.Reg r ->
    let k = reg_code df r in
    if k land 1 = Verify.cls_float then Freg (k lsr 1) else Ireg (k lsr 1)
  | Ir.Imm (Ir.Cint n) -> Iimm (Value.wrap32 n)
  | Ir.Imm (Ir.Cfloat x) -> Fimm x

(** An int operand's reader.  A float operand raises the interpreter's
    [Value.to_int] error when the closure runs. *)
let int_getter : src -> frame -> int = function
  | Ireg s -> fun fr -> ireg fr s
  | Iimm n -> fun _ -> n
  | Freg _ | Fimm _ -> fun _ -> Value.not_int ()

(** An operand boxed for a boundary: a memory store, a channel send, the
    value a program halts with. *)
let value_getter : src -> frame -> Value.t = function
  | Ireg s -> fun fr -> Value.Vint (ireg fr s)
  | Freg s -> fun fr -> Value.Vfloat (freg fr s)
  | Iimm n -> let v = Value.Vint n in fun _ -> v
  | Fimm x -> let v = Value.Vfloat x in fun _ -> v

(** Copy an operand of frame [fr] into the register [k] encodes in frame
    [into] — unboxed when the classes agree, else through {!store_value}.
    Call arguments and return values cross frames this way. *)
let put : src -> frame -> frame -> int -> unit = function
  | Ireg r ->
    fun fr into k ->
      if k land 1 = Verify.cls_int then
        Array.unsafe_set into.iregs (k lsr 1) (ireg fr r)
      else store_value into k (Value.Vint (ireg fr r))
  | Freg r ->
    fun fr into k ->
      if k land 1 = Verify.cls_float then
        Array.unsafe_set into.fregs (k lsr 1) (freg fr r)
      else store_value into k (Value.Vfloat (freg fr r))
  | (Iimm _ | Fimm _) as s ->
    let g = value_getter s in
    fun fr into k -> store_value into k (g fr)

(** Resolve a memory symbol: shared/rom globals bind to their backing
    array outright; frame symbols bind to a position in the frame's
    array-of-arrays.  Unknown names compile to the interpreter's runtime
    error, raised at the same execution point. *)
let compile_sym t (df : Predecode.dfunc) (s : Ir.sym) : frame -> Value.t array =
  match s.Ir.sym_space with
  | Ir.Shared | Ir.Rom -> (
    match Hashtbl.find_opt t.shared s.Ir.sym_name with
    | Some a -> fun _ -> a
    | None -> fun _ -> runtime_err "unknown global %s" s.Ir.sym_name)
  | Ir.Frame -> (
    match Hashtbl.find_opt df.Predecode.df_frame_idx s.Ir.sym_name with
    | Some k -> fun fr -> fr.farrs.(k)
    | None -> fun _ -> runtime_err "unknown frame array %s" s.Ir.sym_name)

(** A memory operand resolved at compile time: its backing array, its
    printed name (for the out-of-bounds error) and what one access
    costs — the cycles it issues, whether a local access takes the
    cache's periodic miss, and a shared access's tier latency and
    far-tier flag (see {!bus_word}). *)
type mem_op = {
  m_arr : frame -> Value.t array;
  m_sym : string;
  m_cycles : int;
  m_cyclesf : float;
  m_miss : bool;
  m_extra_ns : float;
  m_far : bool;
}

let compile_mem t df (s : Ir.sym) ~cycles =
  let far = Hashtbl.mem t.far_syms s.Ir.sym_name in
  {
    m_arr = compile_sym t df s;
    m_sym = Ir.sym_to_string s;
    m_cycles = cycles;
    m_cyclesf = float_of_int cycles;
    m_miss = t.cache_miss_period > 0;
    m_extra_ns = (if far then t.far_extra_ns else t.shared_extra_ns);
    m_far = far;
  }

(** One memory access, after its operands are read: issue it (a local
    access on a cache machine takes the periodic miss), then a shared
    access's bus transaction, then the bounds check of [idx]
    ([what] names the access in the error).  Returns the array. *)
let[@inline always] access t (fr : frame) comp ci m ~shared what idx =
  let c = fr.fcore in
  if shared then begin
    issue t c comp ci m.m_cycles m.m_cyclesf;
    bus_word t c m.m_extra_ns m.m_far
  end
  else issue_miss t c comp ci m.m_cycles m.m_cyclesf ~miss:m.m_miss;
  let a = m.m_arr fr in
  if idx < 0 || idx >= Array.length a then oob_err what m.m_sym idx a fr;
  a

(** Gate ([on = false]) or ungate every component of [idxs] not already
    in that state, charging each transition with the executing core's
    class energy (closures are shared across cores of different
    classes); true if any component changed. *)
let gate_set (c : core) idxs ~on =
  let any = ref false in
  Array.iter
    (fun k ->
      if c.powered.(k) <> on then begin
        c.powered.(k) <- on;
        any := true;
        c.gate_transitions <- c.gate_transitions + 1;
        charge c Energy_ledger.Gating_overhead c.pm.Power_model.gate_energy_nj
      end)
    idxs;
  !any

(* ------------------------------------------------------------------ *)
(* Encoded instructions and the section loop (compiled mode)           *)
(* ------------------------------------------------------------------ *)

(* Every [Const], [Move], [Binop], [Unop], [Mac] and local [Load] is
   encoded at [create] into its block's flat arrays: an opcode in
   [cb_op], and [enc_width] ints from [i lsl enc_shift] in [cb_code]:
   - [f_cost] packs the component's index (bits 0-3); bit 4, set on a
     local access that takes a cache machine's periodic miss; [cost_x]
     (bits 5-11), which holds a generic opcode's operator code from its
     bit 3 and flags its immediate operands a, b and c in its bits 0-2
     (a generic load's: a ROM array, a float register, an immediate
     index); the cycles the instruction issues (bits 12-23); and a
     [Mac]'s third operand (bits 24 and up);
   - [f_d]: the destination register's slot;
   - [f_a], [f_b]: the operands, each a register's slot, an int
     immediate, or a float immediate's index in [cb_fk]; a load's index,
     then its array: a frame array's position or an index in [cb_roms]. *)
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

(** A block's float immediates and ROM arrays, as its encoder finds
    them (newest first). *)
type pools = {
  mutable fk : float list;
  mutable nfk : int;
  mutable roms : Value.t array list;
  mutable nroms : int;
}

(* An encoded operand: [value lsl 2 lor kind], where the value is a
   register's slot, an int immediate, or a float immediate's index in
   the pool. *)
let k_ireg = 0
let k_iimm = 1
let k_freg = 2
let k_fimm = 3
let[@inline always] opv e = e asr 2
let[@inline always] opk e = e land 3
let[@inline always] is_int e = opk e < k_freg
let[@inline always] is_imm e = e land 1 = 1

(** Operand [o], resolved as {!src} resolves it (with its error for a
    register the function never allocated), without allocating. *)
let operand p (df : Predecode.dfunc) (o : Ir.operand) =
  match o with
  | Ir.Reg r ->
    let k = reg_code df r in
    ((k lsr 1) lsl 2) lor (if k land 1 = Verify.cls_float then k_freg else k_ireg)
  | Ir.Imm (Ir.Cint n) -> (Value.wrap32 n lsl 2) lor k_iimm
  | Ir.Imm (Ir.Cfloat x) ->
    p.fk <- x :: p.fk;
    p.nfk <- p.nfk + 1;
    ((p.nfk - 1) lsl 2) lor k_fimm

let rec find_rom (a : Value.t array) k = function
  | [] -> -1
  | x :: rest -> if x == a then k else find_rom a (k - 1) rest

let enc_rom p (a : Value.t array) =
  match find_rom a (p.nroms - 1) p.roms with
  | -1 ->
    p.roms <- a :: p.roms;
    p.nroms <- p.nroms + 1;
    p.nroms - 1
  | k -> k

(* [Const] and [Move]: a destination always has its source's class
   (Verify.reg_classes). *)
let enc_copy code b d e =
  code.(b + f_d) <- d;
  code.(b + f_a) <- opv e;
  if is_int e then if is_imm e then Const_i else Move_i
  else if is_imm e then Const_f
  else Move_f

(** Encode [di] at [code.(b)], or return [Closure] for an instruction
    that keeps its closure.  Operands resolve in the order the closures
    resolved them, so a program reading a register it never allocated
    fails at [create] with the same message. *)
let encode t (df : Predecode.dfunc) p (di : Predecode.dinstr)
    (code : int array) b : opc =
  let ci = di.Predecode.di_comp_idx and n = di.Predecode.di_latency in
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Const (d, cst) ->
    let e = operand p df (Ir.Imm cst) in
    code.(b + f_cost) <- pack_cost ~ci ~miss:false ~x:0 ~n ~c:0;
    enc_copy code b (slot df d) e
  | Ir.Move (d, a) ->
    let e = operand p df a in
    code.(b + f_cost) <- pack_cost ~ci ~miss:false ~x:0 ~n ~c:0;
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
      if is_int ea || is_int eb then Ill_float else Fbin
    end
    else begin
      let o = index_of op int_binops in
      code.(b + f_cost) <-
        pack_cost ~ci ~miss:false ~x:((o lsl 3) lor flags) ~n ~c:0;
      if not (is_int ea && is_int eb) then Ill_int
      else if flags = 0 then rr_ops.(o)
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
    let wants_int =
      match op with
      | Ir.Neg | Ir.Not | Ir.Bnot | Ir.I2f -> true
      | Ir.Fneg | Ir.F2i -> false
    in
    if wants_int = is_int e then Un
    else if wants_int then Ill_int
    else Ill_float
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
    if not (is_int ea && is_int eb && is_int ec) then Ill_int
    else if flags = 0 then Mac_rrr
    else Mac
  | Ir.Load (d, s, idxo) when s.Ir.sym_space <> Ir.Shared -> (
    let e = operand p df idxo in
    let k = df.Predecode.df_regs.(d) in
    code.(b + f_d) <- k lsr 1;
    code.(b + f_a) <- opv e;
    let rom = s.Ir.sym_space = Ir.Rom in
    (* the array's position, or -1 for an unknown symbol *)
    let pos =
      if rom then
        match Hashtbl.find_opt t.shared s.Ir.sym_name with
        | Some a -> enc_rom p a
        | None -> -1
      else
        match Hashtbl.find_opt df.Predecode.df_frame_idx s.Ir.sym_name with
        | Some pos -> pos
        | None -> -1
    in
    let into_float = k land 1 = Verify.cls_float in
    code.(b + f_b) <- pos;
    code.(b + f_cost) <-
      pack_cost ~ci ~miss:(t.cache_miss_period > 0)
        ~x:
          ((if rom then 1 else 0)
          lor (if into_float then 2 else 0)
          lor ((opk e land 1) lsl 2))
        ~n:(1 + Machine.spm_latency_cycles t.machine) ~c:0;
    if not (is_int e) then Load_ill
    else if pos < 0 then Load_unknown
    else if rom && not (into_float || is_imm e) then Load_ri
    else Load)
  | Ir.Load _ | Ir.Store _ | Ir.Faa _ | Ir.Call _ | Ir.Pg_off _ | Ir.Pg_on _
  | Ir.Dvfs _ | Ir.Send _ | Ir.Recv _ | Ir.Barrier _ ->
    Closure

(* The effect of every opcode, on raw ints and floats.  The int
   operators are [Value]'s, defined again here because the section loop
   below must make no call: dune's default (dev) profile, which builds
   the tests and perfbench, compiles with [-opaque], and there a [Value]
   function is a call through [caml_apply2] even when it is marked
   [@inline always].  [wrap32] is [Int32_sem.wrap32].  test_predecode's
   "every way out of the section loop" pins the two definitions equal
   on edge values, in every operand shape. *)

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
let[@inline always] ilt (a : int) b = Value.b2i (a < b)
let[@inline always] ile (a : int) b = Value.b2i (a <= b)
let[@inline always] igt (a : int) b = Value.b2i (a > b)
let[@inline always] ige (a : int) b = Value.b2i (a >= b)
let[@inline always] ieq (a : int) b = Value.b2i (a = b)
let[@inline always] ine (a : int) b = Value.b2i (a <> b)
let[@inline always] ineg a = wrap32 (-a)
let[@inline always] inot a = Value.b2i (a = 0)
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
    strict && set_i iregs d (if rem then Value.imod a b else Value.idiv a b)
  else set_i iregs d (if rem then imod a b else idiv a b)

let load_sym (fr : frame) b =
  match
    fr.cblk.cb_db.Predecode.db_instrs.(b lsr enc_shift).Predecode.di_instr
      .Ir.idesc
  with
  | Ir.Load (_, s, _) -> s
  | _ -> invalid_arg "Sim.load_sym"

(* Read [arr.(idx)] into an int or float register.  Out of bounds, or a
   word of the other class: [strict] raises the interpreter's error and
   the section loop returns false. *)
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
    when it cannot (a division by zero, an out-of-bounds index, an
    operand or a loaded word of the other class, an unknown symbol),
    [strict] raises the interpreter's error and the section loop, which
    passes [~strict:false], gets false with nothing written.  [Closure]
    gives false. *)
let[@inline always] effect ~strict t (fr : frame) (iregs : int array)
    (fregs : float array) (farrs : Value.t array array) (code : int array)
    (fk : float array) (roms : Value.t array array) b opc =
  let d = Array.unsafe_get code (b + f_d) in
  let a = Array.unsafe_get code (b + f_a) in
  let y = Array.unsafe_get code (b + f_b) in
  match opc with
  | Closure -> false
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
    | Ir.Fadd -> set_f fregs d (Value.fadd va vb)
    | Ir.Fsub -> set_f fregs d (Value.fsub va vb)
    | Ir.Fmul -> set_f fregs d (Value.fmul va vb)
    | Ir.Fdiv -> set_f fregs d (Value.fdiv va vb)
    | Ir.Flt -> set_i iregs d (Value.b2i (Value.flt va vb))
    | Ir.Fle -> set_i iregs d (Value.b2i (Value.fle va vb))
    | Ir.Fgt -> set_i iregs d (Value.b2i (Value.fgt va vb))
    | Ir.Fge -> set_i iregs d (Value.b2i (Value.fge va vb))
    | Ir.Feq -> set_i iregs d (Value.b2i (Value.feq va vb))
    | _ -> set_i iregs d (Value.b2i (Value.fne va vb)))
  | Un -> (
    let x = cost_x (Array.unsafe_get code (b + f_cost)) in
    let imm = x land 1 <> 0 in
    match Array.unsafe_get unops (x lsr 3) with
    | Ir.Neg -> set_i iregs d (ineg (iopnd iregs a imm))
    | Ir.Not -> set_i iregs d (inot (iopnd iregs a imm))
    | Ir.Bnot -> set_i iregs d (ibnot (iopnd iregs a imm))
    | Ir.I2f -> set_f fregs d (Value.i2f (iopnd iregs a imm))
    | Ir.Fneg -> set_f fregs d (Value.fneg (fopnd fregs fk a imm))
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
    load_i ~strict fr b iregs d (Array.unsafe_get roms y) (iget iregs a)
  | Load ->
    let x = cost_x (Array.unsafe_get code (b + f_cost)) in
    let arr = Array.unsafe_get (if x land 1 <> 0 then roms else farrs) y in
    let idx = iopnd iregs a (x land 4 <> 0) in
    if x land 2 <> 0 then load_f ~strict fr b fregs d arr idx
    else load_i ~strict fr b iregs d arr idx
  | Ill_int | Load_ill -> strict && Value.not_int ()
  | Ill_float -> strict && Value.not_float ()
  | Load_unknown ->
    (* [mem_array] raises the interpreter's unknown-symbol error *)
    strict && Array.length (mem_array t fr (load_sym fr b)) < 0

(** An encoded instruction on its own, through the issue helpers and
    {!effect}: the instruction that ends a section, every encoded
    instruction while profiling or single-stepping, and any whose effect
    fails — [~strict:true] raises the interpreter's error, after the
    instruction issues as the closures did (a load's index is read
    first: a float index raises before the load issues). *)
let step_encoded t (fr : frame) i =
  let c = fr.fcore in
  let cb = fr.cblk in
  if c.prof_on then
    c.prof_cur <- Array.unsafe_get (Array.unsafe_get cb.cb_slots i) c.id;
  let opc = cb.cb_op.(i) in
  (match opc with Load_ill -> Value.not_int () | _ -> ());
  let code = cb.cb_code in
  let b = i lsl enc_shift in
  let k = code.(b + f_cost) in
  let n = cost_n k in
  issue_miss t c cb.cb_db.Predecode.db_instrs.(i).Predecode.di_comp
    (cost_ci k) n (float_of_int n) ~miss:(cost_miss k);
  ignore
    (effect ~strict:true t fr fr.iregs fr.fregs fr.farrs code cb.cb_fk
       cb.cb_roms b opc);
  bump c

(** Run the encoded instructions of [cb] from [start], at most up to
    [stop], and return the index of the first one not run: [stop], a
    [Closure], or the instruction that needs a call — an implicit
    wakeup, the leakage refresh of [leak_dirty], a negative charge, a
    cache machine's periodic miss, or an effect that fails.  Profiling
    runs none ({!step_encoded} attributes each instruction).

    The core's time, busy time, dynamic and active-leakage category
    cells, ledger total and cycle count live in locals for the section:
    each instruction makes exactly the checks and float additions of
    {!issue} then {!bump}, in the same order, so every accumulator sums
    the same terms in the same order as one closure per instruction
    did.  The checks come first and the effect next, so an instruction
    that leaves the section has changed nothing.  The loop makes no
    call on any path: OCaml keeps a float local in a register only
    where no call follows, and spills every one around a call. *)
let run_section t (fr : frame) (cb : cblock) start stop =
  let c = fr.fcore in
  if c.prof_on then start
  else begin
    let clk = c.clk in
    let ops = cb.cb_op and code = cb.cb_code in
    let fk = cb.cb_fk and roms = cb.cb_roms in
    let iregs = fr.iregs and fregs = fr.fregs and farrs = fr.farrs in
    let powered = c.powered and dyn = c.dyn_row and comp = c.lg_comp in
    let npc = clk.ns_per_cycle and leak = clk.leak_mw in
    let dirty = c.leak_dirty and period = t.cache_miss_period in
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
         && (not (dt > 0.0 && (dirty || lnj < 0.0)))
         && (not (dnj < 0.0))
         && (not (miss && c.local_accs + 1 >= period))
         && effect ~strict:false t fr iregs fregs farrs code fk roms b
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
(* Closures (compiled mode)                                            *)
(* ------------------------------------------------------------------ *)

(** The closure of an instruction that is not encoded. *)
let compile_instr t (df : Predecode.dfunc) (di : Predecode.dinstr) :
    frame -> unit =
  let comp = di.Predecode.di_comp in
  let ci = di.Predecode.di_comp_idx in
  let lat = di.Predecode.di_latency in
  let latf = float_of_int lat in
  let local_cycles = 1 + Machine.spm_latency_cycles t.machine in
  (* no local closures here: this runs once per instruction of every
     simulated program, and each would be allocated on every call *)
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Const _ | Ir.Move _ | Ir.Binop _ | Ir.Unop _ | Ir.Mac _ ->
    invalid_arg "Sim.compile_instr: an encoded instruction"
  (* Memory operands are read before the access is issued: a read is
     pure, and one that raises aborts the run, so the order is
     unobservable. *)
  | Ir.Load (d, s, idxo) -> (
    let geti = int_getter (src df idxo) in
    let k = df.Predecode.df_regs.(d) in
    match s.Ir.sym_space with
    | Ir.Shared ->
      let m = compile_mem t df s ~cycles:1 in
      fun fr ->
        if visible_turn t fr then begin
          let idx = geti fr in
          let a = access t fr comp ci m ~shared:true "read" idx in
          store_value fr k (Array.unsafe_get a idx);
          bump fr.fcore
        end
    | Ir.Rom | Ir.Frame ->
      invalid_arg "Sim.compile_instr: an encoded instruction")
  | Ir.Store (s, idxo, vo) -> (
    let geti = int_getter (src df idxo) in
    let getv = value_getter (src df vo) in
    match s.Ir.sym_space with
    | Ir.Shared ->
      let m = compile_mem t df s ~cycles:1 in
      fun fr ->
        if visible_turn t fr then begin
          let idx = geti fr in
          let v = getv fr in
          Array.unsafe_set (access t fr comp ci m ~shared:true "write" idx) idx v;
          bump fr.fcore
        end
    | Ir.Rom | Ir.Frame ->
      let m = compile_mem t df s ~cycles:local_cycles in
      fun fr ->
        let idx = geti fr in
        let v = getv fr in
        Array.unsafe_set (access t fr comp ci m ~shared:false "write" idx) idx v;
        bump fr.fcore)
  | Ir.Faa (d, s, amt) ->
    let geta = int_getter (src df amt) in
    let sd = slot df d in
    let m = compile_mem t df s ~cycles:lat in
    fun fr ->
      if visible_turn t fr then begin
        let amount = geta fr in
        let a = access t fr comp ci m ~shared:true "read" 0 in
        let old = Value.to_int a.(0) in
        a.(0) <- Value.Vint (Value.iadd old amount);
        retire_i fr sd old
      end
  | Ir.Call (dst, callee, args) -> (
    match Hashtbl.find_opt t.fsyms callee with
    | None ->
      fun fr -> issue t fr.fcore comp ci lat latf;
        runtime_err "call to unknown function %s" callee
    | Some target_cf ->
      let params = target_cf.cf_fe.fe_params in
      let nparams = Array.length params in
      let nargs = List.length args in
      let nbind = min nargs nparams in
      (* each argument goes into its parameter's register, by class *)
      let puts =
        Array.of_list
          (List.filteri (fun k _ -> k < nbind)
             (List.map (fun a -> put (src df a)) args))
      in
      let pcodes =
        let tregs = target_cf.cf_fe.fe_dfunc.Predecode.df_regs in
        Array.init nbind (fun k -> tregs.(params.(k)))
      in
      let k = match dst with Some d -> df.Predecode.df_regs.(d) | None -> -1 in
      fun fr -> let c = fr.fcore in
        issue t c comp ci lat latf;
        let new_fr = make_frame c target_cf in
        for j = 0 to nbind - 1 do
          (Array.unsafe_get puts j) fr new_fr (Array.unsafe_get pcodes j)
        done;
        if nargs > nparams then runtime_err "too many arguments to %s" callee;
        if nbind <> nparams then runtime_err "arity mismatch calling %s" callee;
        fr.ret_dst <- k;
        c.stack <- new_fr :: c.stack;
        t.frames_dirty <- true;
        bump c)
  | Ir.Pg_off comps ->
    let setstr = Component.Set.to_string comps in
    let idxs =
      Array.of_list (List.map Component.index (Component.Set.elements comps))
    in
    fun fr -> let c = fr.fcore in
      wake t c comp ci;
      spend t c 1;
      record t c (fun () -> "pg_off " ^ setstr);
      if gate_set c idxs ~on:false then c.leak_dirty <- true;
      bump c
  | Ir.Pg_on comps ->
    let setstr = Component.Set.to_string comps in
    let idxs =
      Array.of_list (List.map Component.index (Component.Set.elements comps))
    in
    fun fr -> let c = fr.fcore in
      wake t c comp ci;
      record t c (fun () -> "pg_on " ^ setstr);
      if gate_set c idxs ~on:true then begin
        c.leak_dirty <- true;
        (* components wake in parallel: one wake latency (this class's) *)
        spend t c (1 + c.pm.Power_model.wake_latency_cycles)
      end
      else spend t c 1;
      bump c
  | Ir.Dvfs level ->
    (* the ladder belongs to the executing core's class, and the closure
       is shared across cores — resolve the level per execution; an
       absent level raises [Power_model.point]'s error exactly where the
       interpreter raises it.  Dvfs instructions are region boundaries,
       not loop bodies, so the lookup is off the hot path. *)
    fun fr -> let c = fr.fcore in
      wake t c comp ci;
      let pm = c.pm in
      let target = Power_model.point pm level in
      if target.Operating_point.level <> c.point.Operating_point.level
      then begin
        spend t c pm.Power_model.dvfs_latency_cycles;
        charge c Energy_ledger.Dvfs_overhead pm.Power_model.dvfs_energy_nj;
        c.point <- target;
        refresh_point_caches t c;
        c.leak_dirty <- true;
        c.dvfs_transitions <- c.dvfs_transitions + 1;
        record t c (fun () -> "dvfs -> " ^ Operating_point.to_string target)
      end
      else spend t c 1;
      bump c
  | Ir.Send (chan_id, vo) ->
    let getv = value_getter (src df vo) in
    let setup = t.machine.Machine.channel_setup_cycles in
    let setupf = float_of_int setup in
    fun fr ->
      if visible_turn t fr then begin
        let c = fr.fcore in
        issue t c comp ci setup setupf;
        let v = getv fr in
        let ch = t.chans.(chan_id) in
        if Queue.length ch.queue >= ch.cap then begin
          c.send_blocks <- c.send_blocks + 1;
          record t c (fun () ->
              Printf.sprintf "blocked sending on ch%d" chan_id);
          Queue.push c.id ch.waiting_senders;
          c.status <- Blocked_send (chan_id, v);
          t.unblock_dirty <- true
        end
        else complete_send t c chan_id v;
        bump c
      end
  | Ir.Recv (d, chan_id, ty) ->
    let k = df.Predecode.df_regs.(d) in
    let setup = t.machine.Machine.channel_setup_cycles in
    let setupf = float_of_int setup in
    fun fr ->
      if visible_turn t fr then begin
        let c = fr.fcore in
        issue t c comp ci setup setupf;
        let ch = t.chans.(chan_id) in
        if Queue.is_empty ch.queue then begin
          c.recv_blocks <- c.recv_blocks + 1;
          record t c (fun () ->
              Printf.sprintf "blocked receiving on ch%d" chan_id);
          c.status <- Blocked_recv (chan_id, d, ty);
          t.unblock_dirty <- true;
          bump c
        end
        else begin
          let (v, ready) = Queue.pop ch.queue in
          (* a slot freed: a blocked sender may now complete *)
          t.sched_event <- true;
          t.unblock_dirty <- true;
          resume_at t c ready;
          ch.last_pop <- fmax ch.last_pop c.clk.time;
          (match (ty, v) with
          | (Ir.I, Value.Vint _) | (Ir.F, Value.Vfloat _) -> ()
          | _ -> runtime_err "channel %d type mismatch" chan_id);
          store_value fr k v;
          bump c
        end
      end
  | Ir.Barrier bid ->
    fun fr ->
      if visible_turn t fr then begin
        let c = fr.fcore in
        issue t c comp ci 1 1.0;
        let b = t.barriers.(bid) in
        record t c (fun () ->
            Printf.sprintf "arrived at barrier %d" bid);
        b.arrived <- (c.id, c.clk.time) :: b.arrived;
        c.status <- Blocked_barrier bid;
        release_barrier t bid;
        bump c
      end

(** A block that raises the [Prog.block] error when entered — holes in
    the label space behave exactly like the undecoded interpreter. *)
let poison_block l fname =
  { dummy_cblock with cb_term = (fun _ -> missing_block_err l fname) }

(** Compile a branch target.  Captures the (stable) per-function block
    array, so filling order does not matter. *)
let compile_goto (cf : cfun) l : frame -> unit =
  let blocks = cf.cf_blocks in
  if l >= 0 && l < Array.length blocks then begin
    fun fr ->
      fr.block <- l;
      fr.idx <- 0;
      fr.cblk <- blocks.(l)
  end
  else begin
    let pb = poison_block l cf.cf_fe.fe_func.Prog.fname in
    fun fr ->
      fr.block <- l;
      fr.idx <- 0;
      fr.cblk <- pb
  end

(** A terminator's share of the protocol: one cycle and the branch
    unit's dynamic charge (terminators never wake a gated unit, as in
    {!exec_term}). *)
let[@inline always] branch t (c : core) =
  spend_nf t c 1 1.0;
  charge_dyn c branch_idx

let compile_term t (cf : cfun) (term : Ir.term) : frame -> unit =
  let df = cf.cf_fe.fe_dfunc in
  match term with
  | Ir.Jmp l ->
    let go = compile_goto cf l in
    fun fr -> branch t fr.fcore; go fr
  | Ir.Br (cond, l1, l2) -> (
    let go1 = compile_goto cf l1 and go2 = compile_goto cf l2 in
    match src df cond with
    | Ireg r ->
      fun fr -> branch t fr.fcore;
        if ireg fr r <> 0 then go1 fr else go2 fr
    | Iimm n ->
      let go = if n <> 0 then go1 else go2 in
      fun fr -> branch t fr.fcore; go fr
    | Freg _ | Fimm _ ->
      fun fr -> branch t fr.fcore; runtime_err "float condition")
  | Ir.Ret v_opt ->
    let s = Option.map (src df) v_opt in
    (* the value a core halts with is boxed; one returned to a caller
       goes straight into the caller's register *)
    let getv = Option.map value_getter s in
    let put_ret = Option.map put s in
    fun fr -> let c = fr.fcore in
      branch t c;
      (match c.stack with
      | [] -> runtime_err "return with empty stack"
      | _ :: [] ->
        let v = match getv with Some g -> Some (g fr) | None -> None in
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
        (match put_ret with
        | Some p -> if k >= 0 then p fr caller k
        | None -> if k >= 0 then runtime_err "void return into a register");
        caller.ret_dst <- -1)

(** Is [di]'s compiled code {e pure} for the batch loop — unable to
    change the core's status, raise [t.sched_event], or push a frame?
    Register/frame/ROM work, power gating and DVFS are core-local;
    anything touching shared memory, the bus, channels, barriers or the
    call stack is not.  (Pure closures may still abort the simulation
    with a runtime error; that path never reports an outcome, so the
    batched step accounting is unobservable there.) *)
let pure_instr (di : Predecode.dinstr) =
  match di.Predecode.di_instr.Ir.idesc with
  | Ir.Const _ | Ir.Move _ | Ir.Binop _ | Ir.Unop _ | Ir.Mac _
  | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _ -> true
  | Ir.Load (_, s, _) -> (
    match s.Ir.sym_space with Ir.Rom | Ir.Frame -> true | Ir.Shared -> false)
  | Ir.Store (s, _, _) -> (
    match s.Ir.sym_space with Ir.Rom | Ir.Frame -> true | Ir.Shared -> false)
  | Ir.Call _ | Ir.Send _ | Ir.Recv _ | Ir.Barrier _ | Ir.Faa _ -> false

let pure_runs (db : Predecode.dblock) =
  let instrs = db.Predecode.db_instrs in
  let n = Array.length instrs in
  let runs = Array.make n 0 in
  for i = n - 1 downto 0 do
    if pure_instr instrs.(i) then
      runs.(i) <- (1 + if i + 1 < n then runs.(i + 1) else 0)
  done;
  runs

let line (instrs : Predecode.dinstr array) i =
  instrs.(i).Predecode.di_instr.Ir.loc.Ir.line

(** Fill [cf]'s block array with compiled blocks, and a label with no
    block with a poison block.  [cf_blocks] must already be allocated
    (phase 1) so targets across functions resolve. *)
let compile_cfun t enc_step (cf : cfun) =
  let df = cf.cf_fe.fe_dfunc in
  let fname = cf.cf_fe.fe_func.Prog.fname in
  (* Profiling: compiled code is shared across cores, so each
     instruction gets one slot per core, resolved eagerly here; the
     executing core's [prof_cur] is retargeted before the instruction
     runs — by a wrapper around a closure, by {!step_encoded} for an
     encoded instruction.  Never-executed instructions leave their
     eagerly-created slots all-zero; {!Profile.collect} drops those, so
     the merged profile matches the interpreter's lazily created slot
     set exactly. *)
  let slots line =
    Array.map (fun (c : core) -> Profile.slot c.prof fname line) t.cores
  in
  let wrap line (g : frame -> unit) : frame -> unit =
    if not t.opts.profile then g
    else begin
      let slots = slots line in
      fun fr ->
        let c = fr.fcore in
        c.prof_cur <- Array.unsafe_get slots c.id;
        g fr
    end
  in
  let p = { fk = []; nfk = 0; roms = []; nroms = 0 } in
  Array.iteri
    (fun l dbo ->
      match dbo with
      | None -> cf.cf_blocks.(l) <- poison_block l fname
      | Some (db : Predecode.dblock) ->
        let instrs = db.Predecode.db_instrs in
        let n = Array.length instrs in
        let code = Array.make (n * enc_width) 0 in
        p.fk <- [];
        p.nfk <- 0;
        p.roms <- [];
        p.nroms <- 0;
        let cb_op = Array.make n Closure in
        let cb_instrs = Array.make n enc_step in
        for i = 0 to n - 1 do
          let di = instrs.(i) in
          cb_op.(i) <- encode t df p di code (i lsl enc_shift);
          match cb_op.(i) with
          | Closure ->
            cb_instrs.(i) <- wrap (line instrs i) (compile_instr t df di)
          | _ -> ()
        done;
        let term_line = if n = 0 then 0 else line instrs (n - 1) in
        cf.cf_blocks.(l) <-
          {
            cb_instrs;
            cb_n = n;
            cb_pure = pure_runs db;
            cb_term = wrap term_line (compile_term t cf db.Predecode.db_term);
            cb_op;
            cb_code = code;
            cb_fk = Array.of_list (List.rev p.fk);
            cb_roms = Array.of_list (List.rev p.roms);
            cb_db = db;
            cb_slots =
              (if t.opts.profile then
                 Array.mapi
                   (fun i opc ->
                     match opc with
                     | Closure -> [||]
                     | _ -> slots (line instrs i))
                   cb_op
               else [||]);
          })
    df.Predecode.df_blocks

(** Execute one step (instruction or terminator) — compiled mode. *)
let step_compiled (c : core) =
  match c.stack with
  | [] -> runtime_err "core %d has empty stack" c.id
  | fr :: _ ->
    let cb = fr.cblk in
    if fr.idx < cb.cb_n then begin
      let f = cb.cb_instrs.(fr.idx) in
      fr.idx <- fr.idx + 1;
      f fr
    end
    else cb.cb_term fr

(* ------------------------------------------------------------------ *)
(* Construction (continued): ties decode + compilation together        *)
(* ------------------------------------------------------------------ *)

(* Keyed on the program and its mutation stamp: a pass that rewrites a
   function in place bumps [Prog.prog_version], so re-simulating an
   optimised program never runs its old decode. *)
let decode_cache :
    (Prog.t * int * ((string, Predecode.dfunc) Hashtbl.t * int)) option ref =
  ref None

let decode_prog_cached prog =
  let version = Prog.prog_version prog in
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
             leak_dirty = false;
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
  let (dfuncs, decoded_blocks) = decode_prog_cached prog in
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
      barriers = Array.init n_barriers (fun _ -> { arrived = [] });
      bus_free = Array.make 1 0.0;
      steps = 0;
      trace = [];
      trace_len = 0;
      leak_recomputes = 0;
      sched_event = false;
      batch_other = -1;
      frames_dirty = false;
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
    (* phase 1: allocate every function's block array so calls and
       branches can capture targets across mutual recursion *)
    Hashtbl.iter
      (fun _ cf ->
        cf.cf_blocks <-
          Array.make
            (Array.length cf.cf_fe.fe_dfunc.Predecode.df_blocks)
            dummy_cblock)
      fsyms;
    (* phase 2: compile blocks in place; one closure serves every
       encoded instruction *)
    let enc_step fr = step_encoded t fr (fr.idx - 1) in
    Hashtbl.iter (fun _ cf -> compile_cfun t enc_step cf) fsyms
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
      | Blocked_recv (chan_id, d, ty) ->
        let ch = t.chans.(chan_id) in
        if not (Queue.is_empty ch.queue) then begin
          let (v, ready) = Queue.pop ch.queue in
          resume_at t c ready;
          ch.last_pop <- fmax ch.last_pop c.clk.time;
          (match (ty, v) with
          | (Ir.I, Value.Vint _) | (Ir.F, Value.Vfloat _) -> ()
          | _ -> runtime_err "channel %d type mismatch" chan_id);
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
             | Blocked_recv (ch, _, _) -> Printf.sprintf "recv(ch%d)" ch
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
    move another core's clock).

    Core-local instructions (registers, frame and ROM memory, power
    state, calls) commute with other cores' work, so the batch runs
    through them regardless of the clock race.  Globally-visible
    instructions carry a compiled-in turn guard ({!visible_turn}) that
    yields back to the scheduler exactly when the per-step reference
    would have run the runner-up ([other_i], -1 when there is none)
    first: other ready cores' clocks only move when they are stepped, so
    the runner-up bound captured at pick time stays valid for the whole
    batch, and shared memory, bus, channel and barrier operations
    execute in the reference (time, id) order.  Skipped [unblock_pass]
    calls are provably no-ops because every state change they react to
    raises [t.sched_event].  [t.steps] is maintained per instruction so
    [Step_limit_exceeded] fires after exactly the same step as the
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
       must also be checked here — once per straight-line segment *)
    Lp_util.Deadline.check t.opts.deadline;
    match c.stack with
    | [] -> runtime_err "core %d has empty stack" c.id
    | fr :: _ ->
      (* Straight-line segment: the frame and block stay current until a
         terminator runs (re-fetched unconditionally after) or a [Call]
         pushes a frame ([frames_dirty]), so the head of the stack and
         the block arrays load once per segment, not once per
         instruction. *)
      let cb = fr.cblk in
      let instrs = cb.cb_instrs in
      let ops = cb.cb_op in
      let pure = cb.cb_pure in
      let n = cb.cb_n in
      t.frames_dirty <- false;
      while
        fr.idx < n
        && (not t.frames_dirty)
        && (match c.status with
           | Ready -> true
           | Blocked_send _ | Blocked_recv _ | Blocked_barrier _
           | Halted _ -> false)
        && not t.sched_event
      do
        (* a run of pure instructions can neither invalidate any of the
           loop conditions above nor hit the step limit (checked up
           front), so it executes with no per-instruction checks: its
           encoded instructions in sections of {!run_section}, and the
           instruction that ends a section, or a closure, on its own *)
        let run = Array.unsafe_get pure fr.idx in
        if run > 0 && t.steps + run <= lim then begin
          t.steps <- t.steps + run;
          let stop = fr.idx + run in
          while fr.idx < stop do
            (* safe: [cb_n = Array.length cb_instrs = Array.length
               cb_op] by construction *)
            let i = fr.idx in
            let j =
              match Array.unsafe_get ops i with
              | Closure -> i
              | _ -> run_section t fr cb i stop
            in
            if j < stop then begin
              fr.idx <- j + 1;
              (Array.unsafe_get instrs j) fr
            end
            else fr.idx <- j
          done
        end
        else begin
          t.steps <- t.steps + 1;
          if t.steps > lim then raise Step_limit_exceeded;
          let f = Array.unsafe_get instrs fr.idx in
          fr.idx <- fr.idx + 1;
          f fr
        end
      done;
      if
        fr.idx >= n
        && (not t.frames_dirty)
        && (match c.status with
           | Ready -> true
           | Blocked_send _ | Blocked_recv _ | Blocked_barrier _
           | Halted _ -> false)
        && not t.sched_event
      then begin
        t.steps <- t.steps + 1;
        if t.steps > lim then raise Step_limit_exceeded;
        cb.cb_term fr
      end
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
            step_compiled c
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
