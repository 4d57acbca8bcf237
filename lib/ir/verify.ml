(** IR structural verifier.

    Checks that transformations preserve the structural invariants the
    simulator and analyses rely on.  Run after every pass in tests. *)

exception Invalid of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

(* ------------------------------------------------------------------ *)
(* Register classes                                                    *)
(* ------------------------------------------------------------------ *)

(** Register classes, int-coded: every register of a function holds
    only int values or only float values. *)
let cls_int = 0
let cls_float = 1

let cls_of_ty = function Ir.I -> cls_int | Ir.F -> cls_float

let const_cls = function Ir.Cint _ -> cls_int | Ir.Cfloat _ -> cls_float

(* element type of a memory symbol; an unknown symbol is left to the
   check (or the run-time error) that reports it *)
let rec frame_cls name = function
  | [] -> cls_int
  | (n, ty, _) :: rest ->
    if String.equal n name then cls_of_ty ty else frame_cls name rest

let rec global_cls name = function
  | [] -> cls_int
  | (g : Prog.global) :: rest ->
    if String.equal g.Prog.gsym name then cls_of_ty g.Prog.gty
    else global_cls name rest

let sym_cls (prog : Prog.t) (f : Prog.func) (s : Ir.sym) =
  match s.Ir.sym_space with
  | Ir.Frame -> frame_cls s.Ir.sym_name f.Prog.frame_arrays
  | Ir.Shared | Ir.Rom -> global_cls s.Ir.sym_name prog.Prog.globals

(* give register [r] class [c]; -1 marks a register with no class yet *)
let set_cls (f : Prog.func) cls r c =
  if r < 0 || r >= Array.length cls then
    fail "%s: register r%d is outside the function's registers" f.Prog.fname r;
  let old = Array.unsafe_get cls r in
  if old < 0 then Array.unsafe_set cls r c
  else if old <> c then
    fail "%s: register r%d holds both int and float values" f.Prog.fname r

(* a register out of range is never written, so it reads as int *)
let src_cls cls r =
  if r < 0 || r >= Array.length cls then cls_int else Array.unsafe_get cls r

(* Settle the moves whose source had no class when they were visited, in
   rounds; when none is ready, the rest copy (through moves only) from
   registers nothing else writes, which are int. *)
let rec settle f cls = function
  | [] -> ()
  | moves ->
    let (ready, wait) = List.partition (fun (_, s) -> src_cls cls s >= 0) moves in
    (match ready with
    | [] -> List.iter (fun (_, s) -> cls.(s) <- cls_int) wait
    | _ -> List.iter (fun (d, s) -> set_cls f cls d (src_cls cls s)) ready);
    settle f cls wait

(* the class of a call's result register: the callee's declared type,
   int for a void or unknown callee *)
let ret_cls (f : Prog.func) =
  match f.Prog.ret with Some ty -> cls_of_ty ty | None -> cls_int

let operand_cls cls = function
  | Ir.Reg r -> src_cls cls r
  | Ir.Imm c -> const_cls c

let cls_name c = if c = cls_float then "float" else "int"

(** The class of every register of [f], indexed by register and sized
    by [f]'s register generator, inferred in one pass over the
    instructions and terminators that [iter] feeds it ([iter visit
    visit_term] calls [visit] once on each instruction and [visit_term]
    once on each terminator, in any order):
    - a parameter takes its declared type;
    - an instruction's result takes the type it produces: a float add,
      sub, mul or div, a float negation or an int-to-float conversion
      gives a float, every compare gives an int, a load takes the
      symbol's element type, a receive its declared type and a call the
      callee's return type;
    - a move copies its source's class (a move whose source has no class
      yet when it is visited is settled after the pass);
    - a register that is never written is int.

    Raises [Invalid] when a register would need both classes, when an
    instruction writes a register the generator never handed out, or
    when a value crosses a call in the wrong class: a call argument of
    another class than its parameter's declared type, or a returned
    value of another class than a call's result register takes.  The
    simulator's decoder runs this inside its own traversal, so a
    simulated program costs no extra pass. *)
let reg_classes (prog : Prog.t) (f : Prog.func)
    ~(iter : (Ir.instr -> unit) -> (Ir.term -> unit) -> unit) : int array =
  let cls = Array.make (Lp_util.Id_gen.peek f.Prog.reg_gen) (-1) in
  List.iter (fun (r, ty) -> set_cls f cls r (cls_of_ty ty)) f.Prog.params;
  let pending = ref [] and calls = ref [] and rets = ref [] in
  iter
    (fun (i : Ir.instr) ->
      match i.Ir.idesc with
      | Ir.Const (d, c) | Ir.Move (d, Ir.Imm c) -> set_cls f cls d (const_cls c)
      | Ir.Move (d, Ir.Reg s) ->
        let c = src_cls cls s in
        if c >= 0 then set_cls f cls d c else pending := (d, s) :: !pending
      | Ir.Binop ((Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv), d, _, _)
      | Ir.Unop ((Ir.Fneg | Ir.I2f), d, _) ->
        set_cls f cls d cls_float
      | Ir.Binop (_, d, _, _) | Ir.Unop (_, d, _) | Ir.Mac (d, _, _, _)
      | Ir.Faa (d, _, _) ->
        set_cls f cls d cls_int
      | Ir.Load (d, s, _) -> set_cls f cls d (sym_cls prog f s)
      | Ir.Recv (d, _, ty) -> set_cls f cls d (cls_of_ty ty)
      | Ir.Call (d, callee, args) -> (
        match Prog.find_func prog callee with
        | Some g ->
          Option.iter (fun d -> set_cls f cls d (ret_cls g)) d;
          calls := (g, args) :: !calls
        | None -> Option.iter (fun d -> set_cls f cls d cls_int) d)
      | Ir.Store _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _ | Ir.Send _
      | Ir.Barrier _ -> ())
    (function
      | Ir.Ret (Some v) -> rets := v :: !rets
      | Ir.Ret None | Ir.Jmp _ | Ir.Br _ -> ());
  settle f cls !pending;
  for r = 0 to Array.length cls - 1 do
    if Array.unsafe_get cls r < 0 then Array.unsafe_set cls r cls_int
  done;
  List.iter
    (fun ((g : Prog.func), args) ->
      List.iteri
        (fun k a ->
          match List.nth_opt g.Prog.params k with
          | Some (_, ty) when operand_cls cls a <> cls_of_ty ty ->
            fail "%s: call to %s passes %s argument %d to its %s parameter"
              f.Prog.fname g.Prog.fname (cls_name (operand_cls cls a)) (k + 1)
              (cls_name (cls_of_ty ty))
          | Some _ | None -> ())
        args)
    !calls;
  List.iter
    (fun v ->
      if operand_cls cls v <> ret_cls f then
        fail "%s: returns a %s where its callers take %s" f.Prog.fname
          (cls_name (operand_cls cls v)) (cls_name (ret_cls f)))
    !rets;
  cls

(** Fail unless every branch target of [b] satisfies [has]. *)
let check_targets (f : Prog.func) ~has (b : Ir.block) =
  List.iter
    (fun l ->
      if not (has l) then
        fail "%s: L%d branches to unknown L%d" f.Prog.fname b.Ir.bid l)
    (Ir.term_succs b.Ir.term)

let verify_func (prog : Prog.t) (f : Prog.func) : unit =
  (* block_order is consistent with the table and has no duplicates *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then fail "%s: block L%d listed twice" f.Prog.fname l;
      Hashtbl.replace seen l ();
      if not (Hashtbl.mem f.Prog.blocks l) then
        fail "%s: block L%d in order but not in table" f.Prog.fname l)
    f.Prog.block_order;
  (match f.Prog.block_order with
  | entry :: _ when entry = f.Prog.entry -> ()
  | _ -> fail "%s: entry block must be first in layout" f.Prog.fname);
  (* all branch targets exist *)
  Prog.iter_blocks f (check_targets f ~has:(Hashtbl.mem seen));
  (* return arity matches signature *)
  Prog.iter_blocks f (fun b ->
      match (b.Ir.term, f.Prog.ret) with
      | (Ir.Ret (Some _), None) ->
        fail "%s: L%d returns a value from a void function" f.Prog.fname b.Ir.bid
      | (Ir.Ret None, Some _) ->
        fail "%s: L%d returns no value from a non-void function" f.Prog.fname
          b.Ir.bid
      | (Ir.Ret _, _) | (Ir.Jmp _, _) | (Ir.Br _, _) -> ());
  (* every used register is defined somewhere (params count as defs);
     a full path-sensitive check is overkill for this IR because locals
     are zero-initialised at declaration. *)
  let defined = Hashtbl.create 64 in
  List.iter (fun (r, _) -> Hashtbl.replace defined r ()) f.Prog.params;
  Prog.iter_instrs f (fun _ i ->
      match Ir.def i with
      | Some d -> Hashtbl.replace defined d ()
      | None -> ());
  Prog.iter_blocks f (fun b ->
      let check_use r =
        if not (Hashtbl.mem defined r) then
          fail "%s: L%d uses undefined register r%d" f.Prog.fname b.Ir.bid r
      in
      List.iter (fun i -> List.iter check_use (Ir.uses i)) b.Ir.instrs;
      List.iter check_use (Ir.term_uses b.Ir.term));
  (* every register holds one class of value *)
  ignore
    (reg_classes prog f ~iter:(fun visit visit_term ->
         Prog.iter_blocks f (fun b ->
             List.iter visit b.Ir.instrs;
             visit_term b.Ir.term)));
  (* memory symbols resolve *)
  let frame_ok name = List.exists (fun (n, _, _) -> n = name) f.Prog.frame_arrays in
  let shared_ok name = Prog.global prog name <> None in
  let check_sym b (s : Ir.sym) =
    match s.Ir.sym_space with
    | Ir.Frame ->
      if not (frame_ok s.Ir.sym_name) then
        fail "%s: L%d references unknown frame array %s" f.Prog.fname b.Ir.bid
          s.Ir.sym_name
    | Ir.Shared | Ir.Rom ->
      if not (shared_ok s.Ir.sym_name) then
        fail "%s: L%d references unknown global %s" f.Prog.fname b.Ir.bid
          s.Ir.sym_name
  in
  (* provenance sanity: locs are never negative (line 0 = synthesised);
     a negative coordinate means a transform fabricated one *)
  Prog.iter_blocks f (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          if i.Ir.loc.Ir.line < 0 || i.Ir.loc.Ir.col < 0 then
            fail "%s: L%d instruction %d has negative source loc %d:%d"
              f.Prog.fname b.Ir.bid i.Ir.iid i.Ir.loc.Ir.line i.Ir.loc.Ir.col)
        b.Ir.instrs);
  Prog.iter_blocks f (fun b ->
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | (Ir.Store (s, _, _) | Ir.Faa (_, s, _))
            when s.Ir.sym_space = Ir.Rom ->
            fail "%s: write to read-only symbol %s" f.Prog.fname s.Ir.sym_name
          | Ir.Load (_, s, _) | Ir.Store (s, _, _) | Ir.Faa (_, s, _) ->
            check_sym b s
          | Ir.Call (_, callee, _)
            when not (Hashtbl.mem prog.Prog.funcs callee) ->
            fail "%s: call to unknown function %s" f.Prog.fname callee
          | _ -> ())
        b.Ir.instrs)

let verify_prog (prog : Prog.t) : unit =
  List.iter (fun f -> verify_func prog f) (Prog.funcs prog);
  (* entry functions exist and take no parameters *)
  List.iter
    (fun entry ->
      match Prog.find_func prog entry with
      | None -> fail "entry function %s missing" entry
      | Some f ->
        if f.Prog.params <> [] then fail "entry %s must take no parameters" entry)
    (Prog.entries prog);
  (* channel and barrier ids are within bounds *)
  match prog.Prog.layout with
  | Prog.Sequential ->
    List.iter
      (fun f ->
        Prog.iter_instrs f (fun _ i ->
            match i.Ir.idesc with
            | Ir.Send _ | Ir.Recv _ | Ir.Barrier _ ->
              fail "%s: runtime intrinsic in a sequential program" f.Prog.fname
            | _ -> ()))
      (Prog.funcs prog)
  | Prog.Parallel { n_channels; n_barriers; _ } ->
    List.iter
      (fun f ->
        Prog.iter_instrs f (fun _ i ->
            match i.Ir.idesc with
            | Ir.Send (ch, _) | Ir.Recv (_, ch, _) ->
              if ch < 0 || ch >= n_channels then
                fail "%s: channel id %d out of range" f.Prog.fname ch
            | Ir.Barrier bid ->
              if bid < 0 || bid >= n_barriers then
                fail "%s: barrier id %d out of range" f.Prog.fname bid
            | _ -> ()))
      (Prog.funcs prog)
