(** Three-address intermediate representation.

    The IR is a conventional virtual-register CFG form (not SSA): each
    function is a set of basic blocks ending in a terminator.  Scalar
    MiniC variables are lowered to dedicated virtual registers; arrays
    live in named memory symbols (shared memory for globals, per-frame
    local memory for locals).

    Two instruction families distinguish this IR from a vanilla compiler
    IR and carry the paper's contribution:

    - {e power-management pseudo-instructions}: [Pg_off]/[Pg_on] gate a set
      of datapath components, [Dvfs] switches the core's operating point;
    - {e multicore runtime intrinsics}: blocking channel [Send]/[Recv],
      [Barrier], and [Faa] (fetch-and-add on a shared cell) which the
      pattern-driven parallelizer emits. *)

module Component = Lp_power.Component

type reg = int
type label = int

type ty = I | F

let ty_to_string = function I -> "i" | F -> "f"

type const = Cint of int | Cfloat of float

type operand = Reg of reg | Imm of const

(** Integer and float binary operators.  Comparison operators produce an
    integer 0/1 in both families. *)
type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | And | Or | Xor
  | Lt | Le | Gt | Ge | Eq | Ne
  | Fadd | Fsub | Fmul | Fdiv
  | Flt | Fle | Fgt | Fge | Feq | Fne

type unop = Neg | Not | Bnot | Fneg | I2f | F2i

(** Memory symbols name arrays (or shared scalar cells, size 1).
    [Rom] marks read-only globals that the constant-promotion pass has
    proven are never written: the tooling places them in on-chip
    ROM/scratchpad, so loads bypass the shared bus. *)
type space = Shared | Frame | Rom

type sym = { sym_name : string; sym_space : space }

let sym_to_string s =
  (match s.sym_space with Shared -> "@" | Frame -> "%%" | Rom -> "@ro:")
  ^ s.sym_name

type idesc =
  | Const of reg * const
  | Move of reg * operand
  | Binop of binop * reg * operand * operand
  | Unop of unop * reg * operand
  | Mac of reg * operand * operand * operand
      (** [Mac (d, a, b, c)]: d := a + b * c on the MAC unit *)
  | Load of reg * sym * operand           (** d := sym[idx] *)
  | Store of sym * operand * operand      (** sym[idx] := v *)
  | Call of reg option * string * operand list
  | Pg_off of Component.Set.t
  | Pg_on of Component.Set.t
  | Dvfs of int                           (** switch to operating level *)
  | Send of int * operand                 (** channel id, value *)
  | Recv of reg * int * ty                (** d := recv(chan) *)
  | Barrier of int                        (** barrier id *)
  | Faa of reg * sym * operand            (** d := fetch_add(sym[0], v) *)

(** Source provenance: the MiniC position an instruction was lowered
    from.  [no_loc] (line 0) marks compiler-synthesised instructions with
    no source counterpart (runtime glue, some power pseudo-instructions).
    Transforms must preserve provenance: a cloned/fused/hoisted
    instruction keeps the [loc] of the instruction it came from, and
    instructions inserted next to existing code inherit a neighbour's
    [loc] (see [Region.append]/[prepend]).  The energy profiler keys its
    per-line attribution on this field. *)
type loc = { line : int; col : int }

let no_loc = { line = 0; col = 0 }

type instr = { iid : int; mutable idesc : idesc; loc : loc }

type term =
  | Jmp of label
  | Br of operand * label * label  (** if cond <> 0 then l1 else l2 *)
  | Ret of operand option

type block = {
  bid : label;
  mutable instrs : instr list;
  mutable term : term;
}

(* ------------------------------------------------------------------ *)
(* Operand / register helpers                                          *)
(* ------------------------------------------------------------------ *)

let operand_regs = function Reg r -> [ r ] | Imm _ -> []

(** Virtual registers read by an instruction. *)
let uses (i : instr) : reg list =
  match i.idesc with
  | Const _ -> []
  | Move (_, a) | Unop (_, _, a) -> operand_regs a
  | Binop (_, _, a, b) -> operand_regs a @ operand_regs b
  | Mac (_, a, b, c) -> operand_regs a @ operand_regs b @ operand_regs c
  | Load (_, _, idx) -> operand_regs idx
  | Store (_, idx, v) -> operand_regs idx @ operand_regs v
  | Call (_, _, args) -> List.concat_map operand_regs args
  | Pg_off _ | Pg_on _ | Dvfs _ | Barrier _ -> []
  | Send (_, v) -> operand_regs v
  | Recv _ -> []
  | Faa (_, _, v) -> operand_regs v

(** Virtual register written by an instruction, if any. *)
let def (i : instr) : reg option =
  match i.idesc with
  | Const (d, _) | Move (d, _) | Unop (_, d, _) | Binop (_, d, _, _)
  | Mac (d, _, _, _) | Load (d, _, _) | Recv (d, _, _) | Faa (d, _, _) ->
    Some d
  | Call (d, _, _) -> d
  | Store _ | Pg_off _ | Pg_on _ | Dvfs _ | Send _ | Barrier _ -> None

let term_uses = function
  | Jmp _ -> []
  | Br (c, _, _) -> operand_regs c
  | Ret (Some v) -> operand_regs v
  | Ret None -> []

let term_succs = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Ret _ -> []

(* ------------------------------------------------------------------ *)
(* Component usage: which function unit executes each instruction      *)
(* ------------------------------------------------------------------ *)

let binop_component = function
  | Add | Sub | And | Or | Xor | Lt | Le | Gt | Ge | Eq | Ne -> Component.Alu
  | Mul -> Component.Multiplier
  | Div | Mod -> Component.Divider
  | Shl | Shr -> Component.Shifter
  | Fadd | Fsub | Fmul | Fdiv | Flt | Fle | Fgt | Fge | Feq | Fne ->
    Component.Fpu

let unop_component = function
  | Neg | Not | Bnot -> Component.Alu
  | Fneg | I2f | F2i -> Component.Fpu

(** The component an instruction occupies.  Power-management
    pseudo-instructions execute on the ALU (they write control registers);
    runtime intrinsics go through the memory port. *)
let component_of (i : instr) : Component.t =
  match i.idesc with
  | Const _ | Move _ -> Component.Alu
  | Binop (op, _, _, _) -> binop_component op
  | Unop (op, _, _) -> unop_component op
  | Mac _ -> Component.Mac
  | Load _ | Store _ | Faa _ -> Component.Load_store
  | Call _ -> Component.Branch_unit
  | Pg_off _ | Pg_on _ | Dvfs _ -> Component.Alu
  | Send _ | Recv _ | Barrier _ -> Component.Load_store

(** Nominal latency of the instruction in core cycles, excluding memory
    and communication time which the simulator charges separately. *)
let base_latency (i : instr) : int =
  match i.idesc with
  | Const _ | Move _ -> 1
  | Binop (op, _, _, _) -> (
    match binop_component op with
    | Component.Alu -> 1
    | Component.Shifter -> 1
    | Component.Multiplier -> 2
    | Component.Divider -> 10
    | Component.Fpu -> 4
    | Component.Mac | Component.Load_store | Component.Branch_unit -> 1)
  | Unop (op, _, _) -> (
    match unop_component op with Component.Fpu -> 4 | _ -> 1)
  | Mac _ -> 2
  | Load _ | Store _ -> 1 (* plus memory latency in the simulator *)
  | Faa _ -> 2
  | Call _ -> 2
  | Pg_off _ | Pg_on _ -> 1
  | Dvfs _ -> 1
  | Send _ | Recv _ -> 1
  | Barrier _ -> 1

(* ------------------------------------------------------------------ *)
(* Pretty strings                                                      *)
(* ------------------------------------------------------------------ *)

let binop_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Shl -> "shl" | Shr -> "shr" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Flt -> "flt" | Fle -> "fle" | Fgt -> "fgt" | Fge -> "fge"
  | Feq -> "feq" | Fne -> "fne"

let unop_to_string = function
  | Neg -> "neg" | Not -> "not" | Bnot -> "bnot" | Fneg -> "fneg"
  | I2f -> "i2f" | F2i -> "f2i"

let const_to_string = function
  | Cint n -> string_of_int n
  | Cfloat f -> Printf.sprintf "%g" f

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm c -> const_to_string c

let idesc_to_string = function
  | Const (d, c) -> Printf.sprintf "r%d = const %s" d (const_to_string c)
  | Move (d, a) -> Printf.sprintf "r%d = %s" d (operand_to_string a)
  | Binop (op, d, a, b) ->
    Printf.sprintf "r%d = %s %s, %s" d (binop_to_string op)
      (operand_to_string a) (operand_to_string b)
  | Unop (op, d, a) ->
    Printf.sprintf "r%d = %s %s" d (unop_to_string op) (operand_to_string a)
  | Mac (d, a, b, c) ->
    Printf.sprintf "r%d = mac %s, %s, %s" d (operand_to_string a)
      (operand_to_string b) (operand_to_string c)
  | Load (d, s, idx) ->
    Printf.sprintf "r%d = load %s[%s]" d (sym_to_string s)
      (operand_to_string idx)
  | Store (s, idx, v) ->
    Printf.sprintf "store %s[%s] = %s" (sym_to_string s)
      (operand_to_string idx) (operand_to_string v)
  | Call (Some d, f, args) ->
    Printf.sprintf "r%d = call %s(%s)" d f
      (String.concat ", " (List.map operand_to_string args))
  | Call (None, f, args) ->
    Printf.sprintf "call %s(%s)" f
      (String.concat ", " (List.map operand_to_string args))
  | Pg_off cs -> Printf.sprintf "pg_off %s" (Component.Set.to_string cs)
  | Pg_on cs -> Printf.sprintf "pg_on %s" (Component.Set.to_string cs)
  | Dvfs l -> Printf.sprintf "dvfs %d" l
  | Send (ch, v) -> Printf.sprintf "send ch%d, %s" ch (operand_to_string v)
  | Recv (d, ch, ty) ->
    Printf.sprintf "r%d = recv.%s ch%d" d (ty_to_string ty) ch
  | Barrier b -> Printf.sprintf "barrier %d" b
  | Faa (d, s, v) ->
    Printf.sprintf "r%d = faa %s, %s" d (sym_to_string s)
      (operand_to_string v)

let term_to_string = function
  | Jmp l -> Printf.sprintf "jmp L%d" l
  | Br (c, l1, l2) ->
    Printf.sprintf "br %s, L%d, L%d" (operand_to_string c) l1 l2
  | Ret (Some v) -> Printf.sprintf "ret %s" (operand_to_string v)
  | Ret None -> "ret"
