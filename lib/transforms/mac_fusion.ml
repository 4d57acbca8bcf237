(** MAC fusion: rewrite [t := mul a, b; ...; d := add x, t] into
    [d := mac x, a, b] when [t] has no other use, moving multiply-add
    chains onto the MAC unit.

    Besides the latency win, fusion concentrates work on one wide unit so
    that the multiplier can be power-gated in MAC-heavy kernels — the
    interplay the evaluation's ablation (F6/T5) quantifies. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog

(** Count uses of each register across the whole function. *)
let use_counts (f : Prog.func) : (Ir.reg, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let bump r = Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)) in
  Prog.iter_blocks f (fun b ->
      List.iter (fun i -> List.iter bump (Ir.uses i)) b.Ir.instrs;
      List.iter bump (Ir.term_uses b.Ir.term));
  tbl

let run_func (f : Prog.func) : int =
  let uses = use_counts f in
  let fused = ref 0 in
  Prog.iter_blocks f (fun b ->
      (* map from reg -> (a, b) for single-use muls defined in this block
         and not yet invalidated *)
      let muls : (Ir.reg, Ir.operand * Ir.operand) Hashtbl.t = Hashtbl.create 8 in
      let invalidate_reg r =
        (* a redefinition of r kills any pending mul reading or producing r *)
        Hashtbl.remove muls r;
        Hashtbl.iter
          (fun d (a, b2) ->
            let mentions = function Ir.Reg x -> x = r | Ir.Imm _ -> false in
            if mentions a || mentions b2 then Hashtbl.remove muls d)
          (Hashtbl.copy muls)
      in
      let keep =
        List.filter_map
          (fun (i : Ir.instr) ->
            match i.Ir.idesc with
            | Ir.Binop (Ir.Mul, d, a, b2)
              when Hashtbl.find_opt uses d = Some 1 ->
              Option.iter (fun r -> invalidate_reg r) (Ir.def i);
              Hashtbl.replace muls d (a, b2);
              Some i
            | Ir.Binop (Ir.Add, d, Ir.Reg t, x)
              when Hashtbl.mem muls t && (match x with Ir.Reg r -> r <> t | Ir.Imm _ -> true) -> (
              match Hashtbl.find_opt muls t with
              | Some (a, b2) ->
                incr fused;
                Hashtbl.remove muls t;
                i.Ir.idesc <- Ir.Mac (d, x, a, b2);
                Option.iter invalidate_reg (Ir.def i);
                Some i
              | None -> Some i)
            | Ir.Binop (Ir.Add, d, x, Ir.Reg t) when Hashtbl.mem muls t -> (
              match Hashtbl.find_opt muls t with
              | Some (a, b2) ->
                incr fused;
                Hashtbl.remove muls t;
                i.Ir.idesc <- Ir.Mac (d, x, a, b2);
                Option.iter invalidate_reg (Ir.def i);
                Some i
              | None -> Some i)
            | _ ->
              Option.iter invalidate_reg (Ir.def i);
              Some i)
          b.Ir.instrs
      in
      b.Ir.instrs <- keep);
  (* the fused muls are now dead (their single use was replaced); a DCE
     round removes them *)
  if !fused > 0 then Prog.touch f;
  !fused

let pass : Pass.func_pass =
  {
    Pass.name = "mac-fusion";
    (* rewrites instructions in place without touching terminators, but
       register uses move (the mul's temporary dies), so liveness falls *)
    preserves = Lp_analysis.Manager.[ Cfg; Dominators; Loops ];
    local = true;
    run = (fun _ _ f -> run_func f);
  }
