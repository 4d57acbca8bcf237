(** Dead-code elimination, driven by register liveness.

    Removes side-effect-free instructions whose result is dead.  Loads
    count as side-effect-free (removing a dead load never changes program
    state, only timing), calls are conservatively kept. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Cfg = Lp_analysis.Cfg
module Liveness = Lp_analysis.Liveness
module Manager = Lp_analysis.Manager
module Bitset = Lp_analysis.Bitset

let pure (i : Ir.instr) : bool =
  match i.Ir.idesc with
  | Ir.Const _ | Ir.Move _ | Ir.Binop _ | Ir.Unop _ | Ir.Mac _ | Ir.Load _ ->
    true
  | Ir.Store _ | Ir.Call _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _ | Ir.Send _
  | Ir.Recv _ | Ir.Barrier _ | Ir.Faa _ -> false

let run_func (am : Manager.t) (f : Prog.func) : int =
  (* Unreachable blocks are dead code too, and must go first: liveness
     never marks their uses live, so removing a def whose only remaining
     use sits in an unreachable block would leave the IR rejecting the
     verifier's every-use-has-a-def invariant until the next
     simplify-cfg. *)
  let pruned = Cfg.prune_unreachable_of (Manager.cfg am f) in
  let live = Manager.liveness am f in
  let removed = ref pruned in
  let nregs = Liveness.n_regs f in
  Prog.iter_blocks f (fun b ->
      (* one mutable set per block, walked backwards from the exit *)
      let live_set = Bitset.extend (Liveness.live_out live b.Ir.bid) nregs in
      List.iter (Bitset.set live_set) (Ir.term_uses b.Ir.term);
      let keep =
        List.fold_left
          (fun kept (i : Ir.instr) ->
            let dead =
              pure i
              &&
              match Ir.def i with
              | Some d -> not (Bitset.mem d live_set)
              | None -> true (* a pure instruction with no def is a no-op *)
            in
            if dead then begin
              incr removed;
              kept
            end
            else begin
              (match Ir.def i with
              | Some d -> Bitset.clear live_set d
              | None -> ());
              List.iter (Bitset.set live_set) (Ir.uses i);
              i :: kept
            end)
          [] (List.rev b.Ir.instrs)
      in
      b.Ir.instrs <- keep);
  if !removed > pruned then Prog.touch f;
  !removed

let pass : Pass.func_pass =
  {
    Pass.name = "dce";
    preserves = [];
    local = true;
    run = (fun am _ f -> run_func am f);
  }
