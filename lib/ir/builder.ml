(** Imperative builder used by the lowering pass and by tests to construct
    IR functions block by block. *)

type t = {
  func : Prog.func;
  mutable current : Ir.block;
  mutable sealed : bool;
  mutable cur_loc : Ir.loc;
      (** provenance stamped onto every emitted instruction; the lowering
          pass updates it as it walks statements and expressions *)
}

let create func =
  { func; current = Prog.block func func.Prog.entry; sealed = false;
    cur_loc = Ir.no_loc }

let func t = t.func

let set_loc t loc = t.cur_loc <- loc

let cur_loc t = t.cur_loc

(** Append an instruction to the current block and return it. *)
let emit t idesc : Ir.instr =
  if t.sealed then invalid_arg "Builder.emit: current block already terminated";
  let i = Prog.new_instr ~loc:t.cur_loc t.func idesc in
  t.current.Ir.instrs <- t.current.Ir.instrs @ [ i ];
  i

(** Emit an instruction producing a fresh register; return the register. *)
let emit_reg t mk : Ir.reg =
  let d = Prog.new_reg t.func in
  ignore (emit t (mk d));
  d

let const t c = emit_reg t (fun d -> Ir.Const (d, c))
let int_const t n = const t (Ir.Cint n)

let binop t op a b = emit_reg t (fun d -> Ir.Binop (op, d, a, b))
let unop t op a = emit_reg t (fun d -> Ir.Unop (op, d, a))
let load t sym idx = emit_reg t (fun d -> Ir.Load (d, sym, idx))
let store t sym idx v = ignore (emit t (Ir.Store (sym, idx, v)))
let move t d a = ignore (emit t (Ir.Move (d, a)))

let call t ~dst fname args = ignore (emit t (Ir.Call (dst, fname, args)))

let call_reg t fname args =
  let d = Prog.new_reg t.func in
  call t ~dst:(Some d) fname args;
  d

(** Terminate the current block. *)
let set_term t term =
  if t.sealed then invalid_arg "Builder.set_term: already terminated";
  t.current.Ir.term <- term;
  t.sealed <- true

(** Start (or continue) emitting into [b]. *)
let switch_to t (b : Ir.block) =
  t.current <- b;
  t.sealed <- false

let new_block t = Prog.new_block t.func
