(** Static pre-decode of IR functions for the simulator.

    The interpretive stepper used to re-derive, on every executed
    instruction, facts that are a pure function of the IR: the component
    an instruction occupies, its base latency, and (once per block
    entry) an [Array.of_list] copy of the block's instruction list.
    This module computes all of that exactly once per function, before
    simulation starts, so both simulator modes (compiled and
    interpretive) fetch instructions from immutable arrays.

    Everything here is a pure function of the IR — no simulator state —
    which keeps the decode tables shareable between the two execution
    modes and trivially correct with respect to byte-identical output. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Verify = Lp_ir.Verify
module Component = Lp_power.Component

(** One decoded instruction: the original plus the per-opcode facts the
    stepper needs on every execution. *)
type dinstr = {
  di_instr : Ir.instr;
  di_comp : Component.t;   (** [Ir.component_of], precomputed *)
  di_comp_idx : int;       (** [Component.index di_comp] *)
  di_latency : int;        (** [Ir.base_latency], precomputed *)
}

type dblock = {
  db_label : Ir.label;
  db_instrs : dinstr array;
  db_term : Ir.term;
}

(** A decoded function.  [df_blocks] is indexed directly by block label
    (labels are dense, from the function's block id generator); a label
    with no block holds {!dummy_block}, which no run reaches: the
    decoder rejects a branch to it, and a function whose entry is one.

    Every register belongs to one class ({!Lp_ir.Verify.reg_classes}):
    the compiled stepper keeps a frame's int registers in an [int array]
    and its float registers in a [float array], and [df_regs] places
    each register in its class's array. *)
type dfunc = {
  df_func : Prog.func;
  df_blocks : dblock array;
  df_frame_idx : (string, int) Hashtbl.t;
      (** frame-array name -> position in [Prog.frame_arrays] order *)
  df_nblocks : int;  (** number of decoded blocks (array holes excluded) *)
  df_regs : int array;
      (** register -> [2 * slot + class]: its class ([Verify.cls_int] or
          [Verify.cls_float]) and its index in that class's array *)
  df_nints : int;       (** int registers *)
  df_nfloats : int;     (** float registers *)
}

(** Placeholder for block caches and label holes; never executed. *)
let dummy_block = { db_label = -1; db_instrs = [||]; db_term = Ir.Ret None }

let decode_instr (i : Ir.instr) : dinstr =
  let comp = Ir.component_of i in
  {
    di_instr = i;
    di_comp = comp;
    di_comp_idx = Component.index comp;
    di_latency = Ir.base_latency i;
  }

(* [visit] sees each instruction as it is decoded: the register-class
   inference rides on this traversal, as do its checks of a block's
   terminator *)
let rec decode_instrs visit = function
  | [] -> []
  | i :: rest ->
    visit i;
    let di = decode_instr i in
    di :: decode_instrs visit rest

let decode_block visit visit_term (b : Ir.block) : dblock =
  let db_instrs = Array.of_list (decode_instrs visit b.Ir.instrs) in
  visit_term b.Ir.term;
  { db_label = b.Ir.bid; db_instrs; db_term = b.Ir.term }

(** Decode [f]; the register classes are inferred in the same traversal.
    Raises [Verify.Invalid] where {!Verify.reg_classes} does (a register
    of two classes, a call argument or a returned value of the wrong
    class), and for a branch to, or an entry at, a label with no
    block. *)
let decode_func (prog : Prog.t) (f : Prog.func) : dfunc =
  (* labels come from the function's block generator, so [peek] bounds
     them; tolerate foreign labels by sizing to the largest key seen *)
  let max_label =
    Hashtbl.fold (fun l _ acc -> max l acc) f.Prog.blocks
      (Lp_util.Id_gen.peek f.Prog.block_gen - 1)
  in
  let df_blocks = Array.make (max 1 (max_label + 1)) dummy_block in
  let count = ref 0 in
  let has l = l >= 0 && Hashtbl.mem f.Prog.blocks l in
  if not (has f.Prog.entry) then
    Verify.fail "%s: entry L%d has no block" f.Prog.fname f.Prog.entry;
  let df_regs =
    Verify.reg_classes prog f ~iter:(fun visit visit_term ->
        Hashtbl.iter
          (fun l b ->
            if l >= 0 then begin
              Verify.check_targets f ~has b;
              df_blocks.(l) <- decode_block visit visit_term b;
              incr count
            end)
          f.Prog.blocks)
  in
  (* number each class's registers, in place *)
  let nints = ref 0 and nfloats = ref 0 in
  for r = 0 to Array.length df_regs - 1 do
    let c = df_regs.(r) in
    let k = if c = Verify.cls_float then nfloats else nints in
    df_regs.(r) <- (2 * !k) + c;
    incr k
  done;
  let df_frame_idx = Hashtbl.create 4 in
  List.iteri
    (fun k (name, _, _) -> Hashtbl.replace df_frame_idx name k)
    f.Prog.frame_arrays;
  { df_func = f; df_blocks; df_frame_idx; df_nblocks = !count; df_regs;
    df_nints = !nints; df_nfloats = !nfloats }

(** Decode every function of a program; returns the table (by function
    name) and the total number of decoded blocks — which tests compare
    against the program's block count to prove decode work is
    per-function, not per-block-entry. *)
let decode_prog (prog : Prog.t) : (string, dfunc) Hashtbl.t * int =
  let table = Hashtbl.create 16 in
  let total = ref 0 in
  List.iter
    (fun (f : Prog.func) ->
      let df = decode_func prog f in
      total := !total + df.df_nblocks;
      Hashtbl.replace table f.Prog.fname df)
    (Prog.funcs prog);
  (table, !total)
