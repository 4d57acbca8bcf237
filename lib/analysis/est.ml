(** Static time estimation.

    Estimates the nominal-frequency cycle count of blocks, loops and whole
    functions, and the fraction of that time spent waiting on shared
    memory.  The estimates drive three compiler decisions: the gating
    break-even test, DVFS level selection for memory-bound regions, and
    pipeline stage balancing.  They do not need to be exact — only to
    rank regions and to be within a small factor of simulated time. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Machine = Lp_machine.Machine

type instr_cost = { cycles : int; mem_cycles : int }
(** [cycles] includes [mem_cycles]; the latter is the part spent on the
    bus / shared memory and is frequency-independent in the simulator. *)

let instr_cost (m : Machine.t) (i : Ir.instr) : instr_cost =
  let base = Ir.base_latency i in
  let shared_cost =
    m.Machine.bus_latency_cycles + Machine.shared_mem_latency_cycles m
  in
  match i.Ir.idesc with
  | Ir.Load (_, s, _) | Ir.Store (s, _, _) -> (
    match s.Ir.sym_space with
    | Ir.Shared -> { cycles = base + shared_cost; mem_cycles = shared_cost }
    | Ir.Frame | Ir.Rom ->
      { cycles = base + Machine.spm_latency_cycles m; mem_cycles = 0 })
  | Ir.Faa _ -> { cycles = base + shared_cost; mem_cycles = shared_cost }
  | Ir.Send _ | Ir.Recv _ ->
    let c = base + m.Machine.channel_setup_cycles + m.Machine.bus_latency_cycles in
    { cycles = c; mem_cycles = c - base }
  | Ir.Barrier _ ->
    { cycles = base + m.Machine.bus_latency_cycles;
      mem_cycles = m.Machine.bus_latency_cycles }
  | _ -> { cycles = base; mem_cycles = 0 }

let block_cost m (b : Ir.block) : instr_cost =
  List.fold_left
    (fun acc i ->
      let c = instr_cost m i in
      { cycles = acc.cycles + c.cycles; mem_cycles = acc.mem_cycles + c.mem_cycles })
    { cycles = 1 (* terminator *); mem_cycles = 0 }
    b.Ir.instrs

type func_est = {
  total_cycles : float;
  mem_fraction : float;  (** share of cycles that are bus/shared-memory *)
}

(** Estimate [f], or only the blocks of [scope] when given.  Each block
    is weighted by the product of the trip estimates of the loops
    containing it (for a scope, only the loops nested in it), and each
    call site adds the callee's whole-function estimate; a callee
    already on the [visiting] chain is skipped, so recursion falls back
    to a single-level estimate.  [find_loops] serves the loop forests:
    the analysis manager passes its cached ones. *)
let rec estimate ~find_loops ~visiting (m : Machine.t) (prog : Prog.t)
    (f : Prog.func) (scope : Loops.loop option) : func_est =
  let loops = find_loops f in
  let (weighting, iter_blocks) =
    match scope with
    | None -> (loops, Prog.iter_blocks f)
    | Some l ->
      ( List.filter
          (fun l' -> Loops.LS.subset l'.Loops.blocks l.Loops.blocks)
          loops,
        fun k -> Loops.LS.iter (fun bid -> k (Prog.block f bid)) l.Loops.blocks
      )
  in
  let weight_of_block bid =
    List.fold_left
      (fun w l ->
        if Loops.contains l bid then
          w *. float_of_int (max 1 (Loops.trip_estimate f l))
        else w)
      1.0 weighting
  in
  let total = ref 0.0 and mem = ref 0.0 in
  iter_blocks (fun b ->
      let w = weight_of_block b.Ir.bid in
      let c = block_cost m b in
      total := !total +. (w *. float_of_int c.cycles);
      mem := !mem +. (w *. float_of_int c.mem_cycles);
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | Ir.Call (_, callee, _) when not (List.mem callee visiting) -> (
            match Prog.find_func prog callee with
            | Some cf ->
              let ce =
                estimate ~find_loops ~visiting:(f.Prog.fname :: visiting) m
                  prog cf None
              in
              total := !total +. (w *. ce.total_cycles);
              mem := !mem +. (w *. ce.total_cycles *. ce.mem_fraction)
            | None -> ())
          | _ -> ())
        b.Ir.instrs);
  let total_cycles = max 1.0 !total in
  { total_cycles; mem_fraction = !mem /. total_cycles }

(** Estimated cycles of a whole function, callee costs included. *)
let func_estimate ~find_loops m prog f =
  estimate ~find_loops ~visiting:[] m prog f None

(** Estimated cycles of one loop (body blocks weighted by trips of the
    loop itself and any nested loops), callee costs included. *)
let loop_estimate ~find_loops m prog f l =
  estimate ~find_loops ~visiting:[] m prog f (Some l)
