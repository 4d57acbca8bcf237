(** Constant promotion: globals that no instruction in the whole program
    ever writes (no [Store], no [Faa]) are placed in on-chip ROM/SPM.
    Loads from them then bypass the shared bus — the standard treatment of
    coefficient tables on embedded DSPs, and a prerequisite for kernels to
    scale past the bus. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module SS = Set.Make (String)

let written_globals (prog : Prog.t) : SS.t =
  List.fold_left
    (fun acc f ->
      Prog.fold_instrs f
        (fun acc _ i ->
          match i.Ir.idesc with
          | Ir.Store (s, _, _) | Ir.Faa (_, s, _) -> (
            match s.Ir.sym_space with
            | Ir.Shared | Ir.Rom -> SS.add s.Ir.sym_name acc
            | Ir.Frame -> acc)
          | _ -> acc)
        acc)
    SS.empty (Prog.funcs prog)

(** Promote loads of never-written globals in one function, given the
    program's written set. *)
let promote_func written (f : Prog.func) : int =
  let promoted = ref 0 in
  Prog.iter_instrs f (fun _ i ->
      match i.Ir.idesc with
      | Ir.Load (d, s, idx)
        when s.Ir.sym_space = Ir.Shared && not (SS.mem s.Ir.sym_name written)
        ->
        incr promoted;
        i.Ir.idesc <- Ir.Load (d, { s with Ir.sym_space = Ir.Rom }, idx)
      | _ -> ());
  if !promoted > 0 then Prog.touch f;
  !promoted

(** Rewrite loads of never-written globals to [Rom] space; returns the
    number of load sites rewritten. *)
let run (prog : Prog.t) : int =
  let written = written_globals prog in
  List.fold_left (fun acc f -> acc + promote_func written f) 0
    (Prog.funcs prog)

let pass : Pass.func_pass =
  {
    Pass.name = "const-promote";
    (* rewrites only the address space of a load: same defs, same uses,
       same shape — every registered analysis survives (Est does not,
       but that is program-stamped and expires on the touch) *)
    preserves =
      Lp_analysis.Manager.[ Cfg; Dominators; Loops; Liveness ];
    (* program-scoped analysis; running it per function would be wrong,
       so the pass recomputes the written set but only rewrites [f].  The
       set depends on every function, so an unchanged [f] may still need
       promoting: not [local] *)
    local = false;
    run = (fun _ prog f -> promote_func (written_globals prog) f);
  }
