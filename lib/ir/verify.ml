(** IR structural verifier: the one gate for every fault visible in the
    IR alone.

    Checks that transformations preserve the structural invariants the
    simulator and analyses rely on.  Run after every pass in tests, at
    the end of every compile, and by [Sim.create] on a program it did not
    accept since its last change ({!Prog.verified}): both simulator
    steppers rest on it, the compiled one for its unchecked register and
    memory accesses.  What only a run can tell, a division by zero or an
    index out of bounds, stays a run-time fault. *)

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

(* element class of a memory symbol, -1 for a name with no array *)
let rec frame_cls name = function
  | [] -> -1
  | (n, ty, _) :: rest ->
    if String.equal n name then cls_of_ty ty else frame_cls name rest

let rec global_cls name = function
  | [] -> -1
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

let operand_cls cls = function
  | Ir.Reg r -> src_cls cls r
  | Ir.Imm c -> const_cls c

let cls_name c = if c = cls_float then "float" else "int"

(** The class of every register of [f], indexed by register and sized
    by [f]'s register generator, inferred in one pass over the
    instructions that [iter] feeds it ([iter visit] calls [visit] once on
    each instruction, in any order):
    - a parameter takes its declared type;
    - an instruction's result takes the type it produces: a float add,
      sub, mul or div, a float negation or an int-to-float conversion
      gives a float, every compare gives an int, a load takes the
      symbol's element type, a receive its declared type and a call the
      callee's return type;
    - a move copies its source's class (a move whose source has no class
      yet when it is visited is settled after the pass);
    - a register that is never written is int.

    Raises [Invalid] when a register would need both classes, or when an
    instruction writes a register the generator never handed out.  The
    simulator's decoder runs this inside its own traversal, to number
    the registers of each class; {!verify_func} checks every operand
    against the classes it returns. *)
let reg_classes (prog : Prog.t) (f : Prog.func)
    ~(iter : (Ir.instr -> unit) -> unit) : int array =
  let cls = Array.make (Lp_util.Id_gen.peek f.Prog.reg_gen) (-1) in
  List.iter (fun (r, ty) -> set_cls f cls r (cls_of_ty ty)) f.Prog.params;
  let pending = ref [] in
  iter (fun (i : Ir.instr) ->
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
      (* an unknown symbol, which the check rejects, loads as int *)
      | Ir.Load (d, s, _) -> set_cls f cls d (max cls_int (sym_cls prog f s))
      | Ir.Recv (d, _, ty) -> set_cls f cls d (cls_of_ty ty)
      | Ir.Call (Some d, callee, _) ->
        (* the callee's return type; int for a void or unknown callee,
           which the check rejects *)
        set_cls f cls d
          (match Prog.find_func prog callee with
          | Some { Prog.ret = Some ty; _ } -> cls_of_ty ty
          | Some _ | None -> cls_int)
      | Ir.Call (None, _, _) | Ir.Store _ | Ir.Pg_off _ | Ir.Pg_on _
      | Ir.Dvfs _ | Ir.Send _ | Ir.Barrier _ -> ());
  settle f cls !pending;
  for r = 0 to Array.length cls - 1 do
    if Array.unsafe_get cls r < 0 then Array.unsafe_set cls r cls_int
  done;
  cls

(** The class check of [f], on the classes [cls] of its registers, and
    every instruction's source location:
    - every operand has the class its position takes: int for the int
      operators, [Mac], indices, fetch-add amounts and branch
      conditions, float for the float operators;
    - every memory symbol and callee exists, and no instruction writes a
      ROM symbol;
    - a stored value has its symbol's element type, and a fetch-add's
      symbol is int, so every word of memory has its array's class;
    - a call passes as many arguments as its callee has parameters, each
      of its parameter's type, and takes no result from a void callee;
      a function returns a value exactly when it has a return type, and
      of that type;
    - channels and barriers exist only in a parallel program, within its
      counts, and each channel carries one class: [chans] holds the
      class of each channel's first send or receive (-1 before), across
      the functions of the program. *)
let check_classes (prog : Prog.t) (f : Prog.func) cls chans =
  let n_barriers =
    match prog.Prog.layout with
    | Prog.Sequential -> -1
    | Prog.Parallel { n_barriers; _ } -> n_barriers
  in
  let opnd = operand_cls cls in
  Prog.iter_blocks f (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          let bad fmt =
            Format.kasprintf
              (fun s ->
                fail "%s: L%d `%s`: %s" f.Prog.fname b.Ir.bid
                  (Ir.idesc_to_string i.Ir.idesc) s)
              fmt
          in
          let want c o =
            if opnd o <> c then
              bad "%s operand where %s is expected" (cls_name (opnd o))
                (cls_name c)
          in
          let sym (s : Ir.sym) =
            let c = sym_cls prog f s in
            if c < 0 then
              bad "unknown %s %s"
                (if s.Ir.sym_space = Ir.Frame then "frame array" else "global")
                s.Ir.sym_name;
            c
          in
          let write (s : Ir.sym) =
            if s.Ir.sym_space = Ir.Rom then
              bad "write to read-only symbol %s" s.Ir.sym_name;
            sym s
          in
          let parallel () =
            if n_barriers < 0 then
              bad "runtime intrinsic in a sequential program"
          in
          let channel ch c =
            parallel ();
            if ch < 0 || ch >= Array.length chans then
              bad "channel id %d out of range" ch;
            if chans.(ch) < 0 then chans.(ch) <- c
            else if chans.(ch) <> c then
              bad "channel %d carries %s values elsewhere" ch
                (cls_name chans.(ch))
          in
          (* provenance: line 0 is synthesised, and a negative coordinate
             means a transform fabricated one *)
          if i.Ir.loc.Ir.line < 0 || i.Ir.loc.Ir.col < 0 then
            bad "negative source loc %d:%d" i.Ir.loc.Ir.line i.Ir.loc.Ir.col;
          match i.Ir.idesc with
          | Ir.Const _ | Ir.Move _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _ -> ()
          | Ir.Binop (op, _, x, y) ->
            let c =
              if Ir.binop_component op = Lp_power.Component.Fpu then cls_float
              else cls_int
            in
            want c x;
            want c y
          | Ir.Unop (op, _, x) ->
            want
              (match op with
              | Ir.Fneg | Ir.F2i -> cls_float
              | Ir.Neg | Ir.Not | Ir.Bnot | Ir.I2f -> cls_int)
              x
          | Ir.Mac (_, x, y, z) ->
            want cls_int x;
            want cls_int y;
            want cls_int z
          | Ir.Load (_, s, idx) ->
            ignore (sym s);
            want cls_int idx
          | Ir.Store (s, idx, v) ->
            want cls_int idx;
            want (write s) v
          | Ir.Faa (_, s, v) ->
            if write s <> cls_int then
              bad "fetch-add on float symbol %s" s.Ir.sym_name;
            want cls_int v
          | Ir.Call (d, callee, args) -> (
            match Prog.find_func prog callee with
            | None -> bad "call to unknown function %s" callee
            | Some g ->
              if List.compare_lengths args g.Prog.params <> 0 then
                bad "passes %d argument(s) to %s, which takes %d"
                  (List.length args) callee (List.length g.Prog.params);
              List.iter2 (fun a (_, ty) -> want (cls_of_ty ty) a) args
                g.Prog.params;
              if d <> None && g.Prog.ret = None then
                bad "takes a result from %s, which returns none" callee)
          | Ir.Send (ch, v) -> channel ch (opnd v)
          | Ir.Recv (_, ch, ty) -> channel ch (cls_of_ty ty)
          | Ir.Barrier bid ->
            parallel ();
            if bid < 0 || bid >= n_barriers then
              bad "barrier id %d out of range" bid)
        b.Ir.instrs;
      let want what c o =
        if opnd o <> c then
          fail "%s: L%d %s a %s where %s is expected" f.Prog.fname b.Ir.bid
            what (cls_name (opnd o)) (cls_name c)
      in
      match (b.Ir.term, f.Prog.ret) with
      | (Ir.Br (cond, _, _), _) -> want "branches on" cls_int cond
      | (Ir.Ret (Some v), Some ty) -> want "returns" (cls_of_ty ty) v
      | (Ir.Ret (Some _), None) ->
        fail "%s: L%d returns a value from a void function" f.Prog.fname
          b.Ir.bid
      | (Ir.Ret None, Some _) ->
        fail "%s: L%d returns no value from a non-void function" f.Prog.fname
          b.Ir.bid
      | (Ir.Ret None, None) | (Ir.Jmp _, _) -> ())

(* one class per channel of [prog], -1 until a send or receive sets it *)
let channel_classes (prog : Prog.t) =
  match prog.Prog.layout with
  | Prog.Sequential -> [||]
  | Prog.Parallel { n_channels; _ } -> Array.make (max 0 n_channels) (-1)

let verify_func ?chans (prog : Prog.t) (f : Prog.func) : unit =
  (* block_order lists the table's blocks, each once *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then fail "%s: block L%d listed twice" f.Prog.fname l;
      Hashtbl.replace seen l ();
      if not (Hashtbl.mem f.Prog.blocks l) then
        fail "%s: block L%d in order but not in table" f.Prog.fname l)
    f.Prog.block_order;
  if Hashtbl.length seen <> Hashtbl.length f.Prog.blocks then
    fail "%s: a block of the table is not in the layout" f.Prog.fname;
  (match f.Prog.block_order with
  | entry :: _ when entry = f.Prog.entry -> ()
  | _ -> fail "%s: entry block must be first in layout" f.Prog.fname);
  (* all branch targets exist *)
  Prog.iter_blocks f (fun b ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem seen l) then
            fail "%s: L%d branches to unknown L%d" f.Prog.fname b.Ir.bid l)
        (Ir.term_succs b.Ir.term));
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
  (* every register holds one class of value, every operand has the
     class its position takes, returns match the signature, and no
     location is negative *)
  let cls =
    reg_classes prog f ~iter:(fun visit ->
        Prog.iter_blocks f (fun b -> List.iter visit b.Ir.instrs))
  in
  check_classes prog f cls
    (match chans with Some c -> c | None -> channel_classes prog)

(** Verify every function of [prog] and its entries, and record it as
    accepted at its current version, layout and globals
    ({!Prog.verified}). *)
let verify_prog (prog : Prog.t) : unit =
  let chans = channel_classes prog in
  List.iter (fun f -> verify_func ~chans prog f) (Prog.funcs prog);
  (* entry functions exist and take no parameters *)
  List.iter
    (fun entry ->
      match Prog.find_func prog entry with
      | None -> fail "entry function %s missing" entry
      | Some f ->
        if f.Prog.params <> [] then fail "entry %s must take no parameters" entry)
    (Prog.entries prog);
  prog.Prog.verified <-
    (Prog.prog_version prog, prog.Prog.layout, prog.Prog.globals)
