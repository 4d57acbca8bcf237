(** Local constant propagation, folding and algebraic simplification.

    Operates within basic blocks (the IR is not SSA, so cross-block
    propagation would require a reaching-definitions proof; block scope
    captures nearly everything the lowering emits, because every literal
    becomes an [Imm] already and most temporaries are single-use). *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog

(* The operators are {!Ir}'s, which the simulator's interpreter also
   runs; int operands wrap to 32 bits first, as its [Value.of_const]
   does, so the two agree bitwise.  A division by zero is left
   unfolded: it fails when it runs. *)
let fold_binop op (a : Ir.const) (b : Ir.const) : Ir.const option =
  match (a, b) with
  | (Ir.Cint x, Ir.Cint y) -> (
    let x = Ir.wrap32 x and y = Ir.wrap32 y in
    match op with
    | (Ir.Div | Ir.Mod) when y = 0 -> None
    | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Shl | Ir.Shr | Ir.And
    | Ir.Or | Ir.Xor | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne ->
      Some (Ir.Cint (Ir.int_binop op x y))
    | _ -> None)
  | (Ir.Cfloat x, Ir.Cfloat y) -> (
    match op with
    | Ir.Fadd -> Some (Ir.Cfloat (Ir.fadd x y))
    | Ir.Fsub -> Some (Ir.Cfloat (Ir.fsub x y))
    | Ir.Fmul -> Some (Ir.Cfloat (Ir.fmul x y))
    | Ir.Fdiv -> Some (Ir.Cfloat (Ir.fdiv x y))
    | Ir.Flt -> Some (Ir.Cint (Ir.b2i (Ir.flt x y)))
    | Ir.Fle -> Some (Ir.Cint (Ir.b2i (Ir.fle x y)))
    | Ir.Fgt -> Some (Ir.Cint (Ir.b2i (Ir.fgt x y)))
    | Ir.Fge -> Some (Ir.Cint (Ir.b2i (Ir.fge x y)))
    | Ir.Feq -> Some (Ir.Cint (Ir.b2i (Ir.feq x y)))
    | Ir.Fne -> Some (Ir.Cint (Ir.b2i (Ir.fne x y)))
    | _ -> None)
  | (Ir.Cint _, Ir.Cfloat _) | (Ir.Cfloat _, Ir.Cint _) -> None

(** Algebraic identities yielding a move. *)
let simplify_binop op a b : Ir.operand option =
  let zero = Ir.Imm (Ir.Cint 0) in
  match (op, a, b) with
  | (Ir.Add, x, Ir.Imm (Ir.Cint 0)) | (Ir.Add, Ir.Imm (Ir.Cint 0), x) -> Some x
  | (Ir.Sub, x, Ir.Imm (Ir.Cint 0)) -> Some x
  | (Ir.Mul, x, Ir.Imm (Ir.Cint 1)) | (Ir.Mul, Ir.Imm (Ir.Cint 1), x) -> Some x
  | (Ir.Mul, _, Ir.Imm (Ir.Cint 0)) | (Ir.Mul, Ir.Imm (Ir.Cint 0), _) ->
    Some zero
  | (Ir.Div, x, Ir.Imm (Ir.Cint 1)) -> Some x
  | ((Ir.Shl | Ir.Shr), x, Ir.Imm (Ir.Cint 0)) -> Some x
  | (Ir.And, _, Ir.Imm (Ir.Cint 0)) | (Ir.And, Ir.Imm (Ir.Cint 0), _) ->
    Some zero
  | (Ir.Or, x, Ir.Imm (Ir.Cint 0)) | (Ir.Or, Ir.Imm (Ir.Cint 0), x) -> Some x
  | (Ir.Xor, x, Ir.Imm (Ir.Cint 0)) | (Ir.Xor, Ir.Imm (Ir.Cint 0), x) -> Some x
  | _ -> None

let fold_unop op (c : Ir.const) : Ir.const option =
  match (op, c) with
  | ((Ir.Neg | Ir.Not | Ir.Bnot), Ir.Cint x) ->
    Some (Ir.Cint (Ir.int_unop op (Ir.wrap32 x)))
  | (Ir.Fneg, Ir.Cfloat x) -> Some (Ir.Cfloat (Ir.fneg x))
  | (Ir.I2f, Ir.Cint x) -> Some (Ir.Cfloat (Ir.i2f (Ir.wrap32 x)))
  | (Ir.F2i, Ir.Cfloat x) -> Some (Ir.Cint (Ir.f2i x))
  | _ -> None

(** One block: propagate register constants forward, substitute, fold. *)
let fold_block (b : Ir.block) : int =
  let changes = ref 0 in
  let consts : (Ir.reg, Ir.const) Hashtbl.t = Hashtbl.create 16 in
  let subst op =
    match op with
    | Ir.Reg r -> (
      match Hashtbl.find_opt consts r with
      | Some c ->
        incr changes;
        Ir.Imm c
      | None -> op)
    | Ir.Imm _ -> op
  in
  let kill_def i =
    match Ir.def i with Some d -> Hashtbl.remove consts d | None -> ()
  in
  List.iter
    (fun (i : Ir.instr) ->
      (* substitute known constants into operands *)
      (match i.Ir.idesc with
      | Ir.Move (d, a) -> i.Ir.idesc <- Ir.Move (d, subst a)
      | Ir.Binop (op, d, a, b2) -> i.Ir.idesc <- Ir.Binop (op, d, subst a, subst b2)
      | Ir.Unop (op, d, a) -> i.Ir.idesc <- Ir.Unop (op, d, subst a)
      | Ir.Mac (d, a, b2, c) -> i.Ir.idesc <- Ir.Mac (d, subst a, subst b2, subst c)
      | Ir.Load (d, s, idx) -> i.Ir.idesc <- Ir.Load (d, s, subst idx)
      | Ir.Store (s, idx, v) -> i.Ir.idesc <- Ir.Store (s, subst idx, subst v)
      | Ir.Call (d, f, args) -> i.Ir.idesc <- Ir.Call (d, f, List.map subst args)
      | Ir.Send (ch, v) -> i.Ir.idesc <- Ir.Send (ch, subst v)
      | Ir.Faa (d, s, v) -> i.Ir.idesc <- Ir.Faa (d, s, subst v)
      | Ir.Const _ | Ir.Recv _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _
      | Ir.Barrier _ -> ());
      (* fold *)
      (match i.Ir.idesc with
      | Ir.Binop (op, d, Ir.Imm a, Ir.Imm b2) -> (
        match fold_binop op a b2 with
        | Some c ->
          incr changes;
          i.Ir.idesc <- Ir.Move (d, Ir.Imm c)
        | None -> ())
      | Ir.Binop (op, d, a, b2) -> (
        match simplify_binop op a b2 with
        | Some res ->
          incr changes;
          i.Ir.idesc <- Ir.Move (d, res)
        | None -> ())
      | Ir.Unop (op, d, Ir.Imm a) -> (
        match fold_unop op a with
        | Some c ->
          incr changes;
          i.Ir.idesc <- Ir.Move (d, Ir.Imm c)
        | None -> ())
      | _ -> ());
      (* update the constant environment *)
      kill_def i;
      match i.Ir.idesc with
      | Ir.Const (d, c) | Ir.Move (d, Ir.Imm c) -> Hashtbl.replace consts d c
      | _ -> ())
    b.Ir.instrs;
  (* substitute into the terminator, fold a constant branch *)
  (match b.Ir.term with
  | Ir.Ret (Some (Ir.Reg r)) -> (
    match Hashtbl.find_opt consts r with
    | Some c ->
      incr changes;
      b.Ir.term <- Ir.Ret (Some (Ir.Imm c))
    | None -> ())
  | _ -> ());
  (match b.Ir.term with
  | Ir.Br (Ir.Imm (Ir.Cint n), l1, l2) ->
    incr changes;
    b.Ir.term <- Ir.Jmp (if n <> 0 then l1 else l2)
  | Ir.Br (Ir.Reg r, l1, l2) -> (
    match Hashtbl.find_opt consts r with
    | Some (Ir.Cint n) ->
      incr changes;
      b.Ir.term <- Ir.Jmp (if n <> 0 then l1 else l2)
    | Some (Ir.Cfloat _) | None -> ())
  | Ir.Br _ | Ir.Jmp _ | Ir.Ret _ -> ());
  !changes

let pass : Pass.func_pass =
  {
    Pass.name = "constfold";
    (* folding a constant branch rewrites terminators, so nothing
       CFG-derived survives *)
    preserves = [];
    local = true;
    run =
      (fun _am _prog f ->
        let n =
          List.fold_left (fun acc b -> acc + fold_block b) 0
            (Prog.blocks_in_order f)
        in
        if n > 0 then Prog.touch f;
        n);
  }
