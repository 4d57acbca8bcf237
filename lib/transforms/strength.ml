(** Strength reduction: integer multiplications by power-of-two constants
    become shifts.

    Besides the latency win (shifter: 1 cycle vs multiplier: 2), this
    moves work from the leaky multiplier onto the cheap shifter, which can
    turn the multiplier idle for whole regions and hand the gating pass a
    new candidate — one of the interactions the ablation quantifies.

    Division/modulo are deliberately not reduced: an arithmetic shift
    right floors, while C division truncates toward zero, so they disagree
    on negative operands. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog

let log2_exact n =
  if n <= 0 then None
  else begin
    let rec go k v = if v = 1 then Some k else if v land 1 = 1 then None else go (k + 1) (v lsr 1) in
    go 0 n
  end

let run_func (f : Prog.func) : int =
  let changed = ref 0 in
  Prog.iter_instrs f (fun _ i ->
      match i.Ir.idesc with
      | Ir.Binop (Ir.Mul, d, a, Ir.Imm (Ir.Cint n))
      | Ir.Binop (Ir.Mul, d, Ir.Imm (Ir.Cint n), a) -> (
        match log2_exact n with
        | Some k ->
          incr changed;
          i.Ir.idesc <- Ir.Binop (Ir.Shl, d, a, Ir.Imm (Ir.Cint k))
        | None -> ())
      | _ -> ());
  if !changed > 0 then Prog.touch f;
  !changed

let pass : Pass.func_pass =
  {
    Pass.name = "strength-reduce";
    (* a Mul becomes a Shl with the same def and the same register
       uses, so even liveness survives *)
    preserves =
      Lp_analysis.Manager.[ Cfg; Dominators; Loops; Liveness ];
    local = true;
    run = (fun _ _ f -> run_func f);
  }
