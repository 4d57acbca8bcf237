(** Register liveness, block level, via the generic dataflow framework. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Flow = Dataflow.Make (Dataflow.Bitset_lattice)

type t = {
  cfg : Cfg.t;
  result : Flow.result;
  use_def : (Ir.label, Bitset.t * Bitset.t) Hashtbl.t;
      (** per-block (use, def) *)
}

(** Capacity of the register sets of [f]: registers come out of its
    [reg_gen]. *)
let n_regs (f : Prog.func) = Lp_util.Id_gen.peek f.Prog.reg_gen

let block_use_def nregs (b : Ir.block) : Bitset.t * Bitset.t =
  (* scan forward: a use counts only if not previously defined in block *)
  let use = Bitset.create nregs in
  let def = Bitset.create nregs in
  let see_use r = if not (Bitset.mem r def) then Bitset.set use r in
  List.iter
    (fun i ->
      List.iter see_use (Ir.uses i);
      match Ir.def i with Some d -> Bitset.set def d | None -> ())
    b.Ir.instrs;
  List.iter see_use (Ir.term_uses b.Ir.term);
  (use, def)

(** Compute liveness over an already-built CFG (shared with other
    analyses via the manager); [compute] builds a fresh one. *)
let compute_of_cfg (cfg : Cfg.t) : t =
  let f = cfg.Cfg.func in
  let nregs = n_regs f in
  let use_def = Hashtbl.create 16 in
  List.iter
    (fun b -> Hashtbl.replace use_def b.Ir.bid (block_use_def nregs b))
    (Prog.blocks_in_order f);
  let transfer l out_set =
    match Hashtbl.find_opt use_def l with
    | Some (use, def) -> Bitset.transfer ~use ~def out_set
    | None -> out_set
  in
  let result =
    Flow.run ~direction:Dataflow.Backward ~cfg ~init:Bitset.empty ~transfer
  in
  { cfg; result; use_def }

let compute (f : Prog.func) : t = compute_of_cfg (Cfg.build f)

(** Registers live at block exit. *)
let live_out t l =
  List.fold_left
    (fun acc s -> Bitset.union acc (Flow.output t.result s))
    Bitset.empty
    (Cfg.succs t.cfg l)

(** Registers live at block entry. *)
let live_in t l = Flow.output t.result l

(** Count of registers live across any block boundary — a rough register
    pressure indicator reported in compile statistics. *)
let max_pressure t =
  List.fold_left
    (fun acc l -> max acc (Bitset.cardinal (live_in t l)))
    0 t.cfg.Cfg.rpo
