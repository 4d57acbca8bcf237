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
(* Operator semantics                                                  *)
(* ------------------------------------------------------------------ *)

(* Every operator on raw ints and floats, defined once for the
   simulator's interpretive stepper ([Lp_sim.Value]) and the constant
   folder.  Ints are 32-bit two's complement with C-style truncating
   division; floats are host doubles.  A division or remainder by zero
   is the caller's to check: the simulator raises, the folder declines.
   Compares yield a [bool] that [b2i] turns into the IR's 0/1.  The
   compares and the float operators are primitives: an [external] is
   expanded at every use, in any module, so a float on its way through
   one is never boxed. *)

external b2i : bool -> int = "%identity"

let wrap32 = Lp_util.Int32_sem.wrap32
let iadd a b = wrap32 (a + b)
let isub a b = wrap32 (a - b)
let imul a b = wrap32 (a * b)
let idiv a b = wrap32 (a / b)
let imod a b = wrap32 (a mod b)
let ishl a b = wrap32 (a lsl (b land 31))
let ishr a b = wrap32 (a asr (b land 31))
let iand a b = wrap32 (a land b)
let ior a b = wrap32 (a lor b)
let ixor a b = wrap32 (a lxor b)

external ilt : int -> int -> bool = "%lessthan"
external ile : int -> int -> bool = "%lessequal"
external igt : int -> int -> bool = "%greaterthan"
external ige : int -> int -> bool = "%greaterequal"
external ieq : int -> int -> bool = "%equal"
external ine : int -> int -> bool = "%notequal"

external fadd : float -> float -> float = "%addfloat"
external fsub : float -> float -> float = "%subfloat"
external fmul : float -> float -> float = "%mulfloat"
external fdiv : float -> float -> float = "%divfloat"
external flt : float -> float -> bool = "%lessthan"
external fle : float -> float -> bool = "%lessequal"
external fgt : float -> float -> bool = "%greaterthan"
external fge : float -> float -> bool = "%greaterequal"
external feq : float -> float -> bool = "%equal"
external fne : float -> float -> bool = "%notequal"

let ineg a = wrap32 (-a)
let inot a = b2i (a = 0)
let ibnot a = wrap32 (lnot a)

external fneg : float -> float = "%negfloat"
external i2f : int -> float = "%floatofint"

let f2i x = wrap32 (int_of_float x)

(** d = a + b * c: integer MAC on the MAC unit. *)
let imac a b c = wrap32 (a + wrap32 (b * c))

(** The int operator of [op], an int binop or compare. *)
let int_binop (op : binop) : int -> int -> int =
  match op with
  | Add -> iadd
  | Sub -> isub
  | Mul -> imul
  | Div -> idiv
  | Mod -> imod
  | Shl -> ishl
  | Shr -> ishr
  | And -> iand
  | Or -> ior
  | Xor -> ixor
  | Lt -> fun a b -> b2i (ilt a b)
  | Le -> fun a b -> b2i (ile a b)
  | Gt -> fun a b -> b2i (igt a b)
  | Ge -> fun a b -> b2i (ige a b)
  | Eq -> fun a b -> b2i (ieq a b)
  | Ne -> fun a b -> b2i (ine a b)
  | Fadd | Fsub | Fmul | Fdiv | Flt | Fle | Fgt | Fge | Feq | Fne ->
    invalid_arg "Ir.int_binop: float operator"

(** The int operator of [op], an int unop. *)
let int_unop (op : unop) : int -> int =
  match op with
  | Neg -> ineg
  | Not -> inot
  | Bnot -> ibnot
  | Fneg | I2f | F2i -> invalid_arg "Ir.int_unop: float operator"

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
