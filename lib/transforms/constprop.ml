(** Global (cross-block) constant propagation.

    The local folder only sees constants within one basic block; this
    pass runs a forward dataflow over the whole CFG with the classic
    per-register constant lattice (unknown ⊑ constant ⊑ varying) and
    replaces uses whose every reaching definition agrees on one constant.
    A practical payoff beyond folding: loop bounds held in registers
    become immediates, which lets the trip-count estimator (and therefore
    the gating/DVFS/unrolling decisions) see through them. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Cfg = Lp_analysis.Cfg
module Manager = Lp_analysis.Manager

(* lattice per register *)
type cell =
  | Unknown          (** no definition seen yet (bottom) *)
  | Const of Ir.const
  | Varying          (** conflicting or non-constant definitions (top) *)

(** Float constants compare by bit pattern: under polymorphic equality a
    NaN constant never equals itself (so the fixpoint never settles) and
    [0.0] equals [-0.0] (so the join would silently keep one sign). *)
let equal_const (a : Ir.const) (b : Ir.const) =
  match (a, b) with
  | (Ir.Cint x, Ir.Cint y) -> Int.equal x y
  | (Ir.Cfloat x, Ir.Cfloat y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (Ir.Cint _, Ir.Cfloat _) | (Ir.Cfloat _, Ir.Cint _) -> false

let equal_cell a b =
  a == b
  ||
  match (a, b) with
  | (Const c1, Const c2) -> equal_const c1 c2
  | (Unknown | Const _ | Varying), _ -> false

let join_cell a b =
  match (a, b) with
  | (Unknown, x) | (x, Unknown) -> x
  | (Const c1, Const c2) when equal_const c1 c2 -> a
  | (Const _, Const _) | (Varying, _) | (_, Varying) -> Varying

type state = cell array

let equal_state (a : state) (b : state) =
  let n = Array.length a in
  let rec go i = i >= n || (equal_cell a.(i) b.(i) && go (i + 1)) in
  n = Array.length b && go 0

(** [acc := acc ⊔ s], cell by cell. *)
let join_into (acc : state) (s : state) =
  for i = 0 to Array.length acc - 1 do
    let a = acc.(i) and b = s.(i) in
    if a != b then acc.(i) <- join_cell a b
  done

(** Transfer one instruction over the state. *)
let transfer_instr (st : state) (i : Ir.instr) : unit =
  let lookup = function
    | Ir.Imm c -> Const c
    | Ir.Reg r -> st.(r)
  in
  match Ir.def i with
  | None -> ()
  | Some d ->
    st.(d) <-
      (match i.Ir.idesc with
      | Ir.Const (_, c) -> Const c
      | Ir.Move (_, a) -> lookup a
      | Ir.Binop (op, _, a, b) -> (
        match (lookup a, lookup b) with
        | (Const ca, Const cb) -> (
          match Constfold.fold_binop op ca cb with
          | Some c -> Const c
          | None -> Varying)
        | _ -> Varying)
      | Ir.Unop (op, _, a) -> (
        match lookup a with
        | Const ca -> (
          match Constfold.fold_unop op ca with
          | Some c -> Const c
          | None -> Varying)
        | _ -> Varying)
      | Ir.Mac _ | Ir.Load _ | Ir.Call _ | Ir.Recv _ | Ir.Faa _
      | Ir.Store _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _ | Ir.Send _
      | Ir.Barrier _ -> Varying)

(** Block-entry states, indexed by label ([[||]] for unreachable
    blocks), by iteration to fixpoint.

    The sweeps visit the blocks in reverse postorder, each seeing the
    entry states already updated earlier in the same sweep, until a sweep
    changes nothing.  The order matters: the transfer maps an [Unknown]
    operand to [Varying], so it is not monotone, and another visiting
    order can settle on another fixpoint.  Within that order nothing is
    recomputed that cannot have changed: each block's exit state is
    cached until its entry state changes, and a block is re-joined only
    after the exit state of one of its predecessors changed. *)
let analyse (cfg : Cfg.t) : state array =
  let f = cfg.Cfg.func in
  let nregs = max 1 (Lp_util.Id_gen.peek f.Prog.reg_gen) in
  let nlabels = Lp_util.Id_gen.peek f.Prog.block_gen in
  let absent : state = [||] in
  let entry = Array.make nlabels absent in
  let exit = Array.make nlabels absent in
  (* every block joins in the first sweep *)
  let stale = Array.make nlabels true in
  (* parameters vary (set by the caller) *)
  let initial = Array.make nregs Unknown in
  List.iter (fun (r, _) -> initial.(r) <- Varying) f.Prog.params;
  (* spare join and exit buffers: arrays change hands instead of being
     reallocated *)
  let join_buf = ref (Array.make nregs Unknown) in
  let exit_buf = ref (Array.make nregs Unknown) in
  let set_entry l st =
    entry.(l) <- st;
    let out = !exit_buf in
    Array.blit st 0 out 0 nregs;
    List.iter (transfer_instr out) (Prog.block f l).Ir.instrs;
    let old = exit.(l) in
    if old == absent || not (equal_state old out) then begin
      exit.(l) <- out;
      exit_buf := if old == absent then Array.make nregs Unknown else old;
      List.iter (fun s -> stale.(s) <- true) (Cfg.succs cfg l)
    end
  in
  set_entry f.Prog.entry (Array.copy initial);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        if stale.(bid) then begin
          stale.(bid) <- false;
          match Cfg.preds cfg bid with
          | [] ->
            (* the entry, set above: every other reachable block has a
               predecessor *)
            ()
          | preds ->
            let acc = !join_buf in
            if bid = f.Prog.entry then Array.blit initial 0 acc 0 nregs
            else Array.fill acc 0 nregs Unknown;
            List.iter
              (fun p -> if entry.(p) != absent then join_into acc exit.(p))
              preds;
            let old = entry.(bid) in
            if old == absent || not (equal_state old acc) then begin
              join_buf := if old == absent then Array.make nregs Unknown else old;
              set_entry bid acc;
              changed := true
            end
        end)
      cfg.Cfg.rpo
  done;
  entry

(** Substitute proven constants into operands; returns rewrites done. *)
let run_func am (f : Prog.func) : int =
  let entry_states = analyse (Manager.cfg am f) in
  let changes = ref 0 in
  Prog.iter_blocks f (fun b ->
      let entry = entry_states.(b.Ir.bid) in
      if Array.length entry > 0 then begin
        let st = Array.copy entry in
        let subst op =
          match op with
          | Ir.Reg r -> (
            match st.(r) with
            | Const c ->
              incr changes;
              Ir.Imm c
            | Unknown | Varying -> op)
          | Ir.Imm _ -> op
        in
        (* store a rebuilt operation only when an operand changed: an
           unchanged one is left alone rather than reallocated *)
        List.iter
          (fun (i : Ir.instr) ->
            let before = !changes in
            let idesc =
              match i.Ir.idesc with
              | Ir.Move (d, a) -> Ir.Move (d, subst a)
              | Ir.Binop (op, d, a, b2) -> Ir.Binop (op, d, subst a, subst b2)
              | Ir.Unop (op, d, a) -> Ir.Unop (op, d, subst a)
              | Ir.Mac (d, a, b2, c) -> Ir.Mac (d, subst a, subst b2, subst c)
              | Ir.Load (d, s, idx) -> Ir.Load (d, s, subst idx)
              | Ir.Store (s, idx, v) -> Ir.Store (s, subst idx, subst v)
              | Ir.Call (d, callee, args) ->
                Ir.Call (d, callee, List.map subst args)
              | Ir.Send (ch, v) -> Ir.Send (ch, subst v)
              | Ir.Faa (d, s, v) -> Ir.Faa (d, s, subst v)
              | ( Ir.Const _ | Ir.Recv _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _
                | Ir.Barrier _ ) as desc -> desc
            in
            if !changes > before then i.Ir.idesc <- idesc;
            transfer_instr st i)
          b.Ir.instrs;
        (* terminators too *)
        let before = !changes in
        let term =
          match b.Ir.term with
          | Ir.Br (op, l1, l2) -> Ir.Br (subst op, l1, l2)
          | Ir.Ret (Some op) -> Ir.Ret (Some (subst op))
          | (Ir.Ret None | Ir.Jmp _) as t -> t
        in
        if !changes > before then b.Ir.term <- term
      end);
  if !changes > 0 then Prog.touch f;
  !changes

let pass : Pass.func_pass =
  {
    Pass.name = "constprop";
    (* substitutes operands only, never branch targets: the CFG and
       everything derived from its shape survive; liveness does not
       (register uses disappear) *)
    preserves = [ Manager.Cfg; Manager.Dominators; Manager.Loops ];
    local = true;
    run = (fun am _ f -> run_func am f);
  }
