(** Local constant propagation, folding and algebraic simplification.

    Operates within basic blocks (the IR is not SSA, so cross-block
    propagation would require a reaching-definitions proof; block scope
    captures nearly everything the lowering emits, because every literal
    becomes an [Imm] already and most temporaries are single-use). *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog

let fold_binop op (a : Ir.const) (b : Ir.const) : Ir.const option =
  match (a, b) with
  | (Ir.Cint x, Ir.Cint y) -> (
    (* operands wrap to 32 bits before the operation, exactly as the
       simulator's [Value.of_const] does — the two must agree bitwise *)
    let x = Lp_util.Int32_sem.wrap32 x and y = Lp_util.Int32_sem.wrap32 y in
    let wrap v = Ir.Cint (Lp_util.Int32_sem.wrap32 v) in
    match op with
    | Ir.Add -> Some (wrap (x + y))
    | Ir.Sub -> Some (wrap (x - y))
    | Ir.Mul -> Some (wrap (x * y))
    | Ir.Div -> if y = 0 then None else Some (wrap (x / y))
    | Ir.Mod -> if y = 0 then None else Some (wrap (x mod y))
    | Ir.Shl -> Some (wrap (x lsl (y land 31)))
    | Ir.Shr -> Some (wrap (x asr (y land 31)))
    | Ir.And -> Some (wrap (x land y))
    | Ir.Or -> Some (wrap (x lor y))
    | Ir.Xor -> Some (wrap (x lxor y))
    | Ir.Lt -> Some (Ir.Cint (if x < y then 1 else 0))
    | Ir.Le -> Some (Ir.Cint (if x <= y then 1 else 0))
    | Ir.Gt -> Some (Ir.Cint (if x > y then 1 else 0))
    | Ir.Ge -> Some (Ir.Cint (if x >= y then 1 else 0))
    | Ir.Eq -> Some (Ir.Cint (if x = y then 1 else 0))
    | Ir.Ne -> Some (Ir.Cint (if x <> y then 1 else 0))
    | _ -> None)
  | (Ir.Cfloat x, Ir.Cfloat y) -> (
    match op with
    | Ir.Fadd -> Some (Ir.Cfloat (x +. y))
    | Ir.Fsub -> Some (Ir.Cfloat (x -. y))
    | Ir.Fmul -> Some (Ir.Cfloat (x *. y))
    | Ir.Fdiv -> Some (Ir.Cfloat (x /. y))
    | Ir.Flt -> Some (Ir.Cint (if x < y then 1 else 0))
    | Ir.Fle -> Some (Ir.Cint (if x <= y then 1 else 0))
    | Ir.Fgt -> Some (Ir.Cint (if x > y then 1 else 0))
    | Ir.Fge -> Some (Ir.Cint (if x >= y then 1 else 0))
    | Ir.Feq -> Some (Ir.Cint (if x = y then 1 else 0))
    | Ir.Fne -> Some (Ir.Cint (if x <> y then 1 else 0))
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
  let c = match c with
    | Ir.Cint x -> Ir.Cint (Lp_util.Int32_sem.wrap32 x)
    | Ir.Cfloat _ -> c
  in
  match (op, c) with
  | (Ir.Neg, Ir.Cint x) -> Some (Ir.Cint (Lp_util.Int32_sem.wrap32 (-x)))
  | (Ir.Not, Ir.Cint x) -> Some (Ir.Cint (if x = 0 then 1 else 0))
  | (Ir.Bnot, Ir.Cint x) -> Some (Ir.Cint (Lp_util.Int32_sem.wrap32 (lnot x)))
  | (Ir.Fneg, Ir.Cfloat x) -> Some (Ir.Cfloat (-.x))
  | (Ir.I2f, Ir.Cint x) -> Some (Ir.Cfloat (float_of_int x))
  | (Ir.F2i, Ir.Cfloat x) -> Some (Ir.Cint (Lp_util.Int32_sem.wrap32 (int_of_float x)))
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
