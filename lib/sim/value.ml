(** Runtime values and arithmetic of the simulated cores.

    Integers follow 32-bit two's-complement semantics (the target is an
    embedded 32-bit machine), with C-style truncating division.  Floats
    use the host double precision, standing in for the target's single
    precision — acceptable because no experiment depends on rounding. *)

module Ir = Lp_ir.Ir

type t = Vint of int | Vfloat of float

exception Runtime_error of string

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(** Wrap to signed 32-bit. *)
let[@inline always] wrap32 n = Lp_util.Int32_sem.wrap32 n

let not_int () = err "expected int value, got float"
let not_float () = err "expected float value, got int"

let[@inline always] to_int = function Vint n -> n | Vfloat _ -> not_int ()

let[@inline always] to_float = function Vfloat f -> f | Vint _ -> not_float ()

let of_const = function
  | Ir.Cint n -> Vint (wrap32 n)
  | Ir.Cfloat f -> Vfloat f

let[@inline always] is_true = function Vint 0 -> false | Vint _ -> true | Vfloat _ -> err "float condition"

(* ------------------------------------------------------------------ *)
(* Typed operators                                                     *)
(* ------------------------------------------------------------------ *)

(* The one definition of every IR operator, on raw ints and floats.
   The closure-compiled stepper keeps registers unboxed and calls these
   directly; {!binop}, {!unop} and {!mac} box around them for the
   interpretive stepper.  Compares yield a [bool] that [b2i] turns into
   the IR's 0/1.  The compares and the float operators are primitives:
   an [external] is expanded at every use, in any module, so a float on
   its way through one is never boxed (a call would box its arguments
   and its result). *)

external b2i : bool -> int = "%identity"

let iadd a b = wrap32 (a + b)
let isub a b = wrap32 (a - b)
let imul a b = wrap32 (a * b)

let idiv a b =
  if b = 0 then err "integer division by zero";
  wrap32 (a / b)

let imod a b =
  if b = 0 then err "integer modulo by zero";
  wrap32 (a mod b)

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
let int_binop (op : Ir.binop) : int -> int -> int =
  match op with
  | Ir.Add -> iadd
  | Ir.Sub -> isub
  | Ir.Mul -> imul
  | Ir.Div -> idiv
  | Ir.Mod -> imod
  | Ir.Shl -> ishl
  | Ir.Shr -> ishr
  | Ir.And -> iand
  | Ir.Or -> ior
  | Ir.Xor -> ixor
  | Ir.Lt -> fun a b -> b2i (ilt a b)
  | Ir.Le -> fun a b -> b2i (ile a b)
  | Ir.Gt -> fun a b -> b2i (igt a b)
  | Ir.Ge -> fun a b -> b2i (ige a b)
  | Ir.Eq -> fun a b -> b2i (ieq a b)
  | Ir.Ne -> fun a b -> b2i (ine a b)
  | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv | Ir.Flt | Ir.Fle | Ir.Fgt
  | Ir.Fge | Ir.Feq | Ir.Fne ->
    invalid_arg "Value.int_binop: float operator"

(** The int operator of [op], an int unop. *)
let int_unop (op : Ir.unop) : int -> int =
  match op with
  | Ir.Neg -> ineg
  | Ir.Not -> inot
  | Ir.Bnot -> ibnot
  | Ir.Fneg | Ir.I2f | Ir.F2i -> invalid_arg "Value.int_unop: float operator"

(* The boxed operators of the interpretive stepper.  The right operand
   is read first, as the compiled closures read it. *)

let binop (op : Ir.binop) (a : t) (b : t) : t =
  match op with
  | Ir.Fadd -> Vfloat (fadd (to_float a) (to_float b))
  | Ir.Fsub -> Vfloat (fsub (to_float a) (to_float b))
  | Ir.Fmul -> Vfloat (fmul (to_float a) (to_float b))
  | Ir.Fdiv -> Vfloat (fdiv (to_float a) (to_float b))
  | Ir.Flt -> Vint (b2i (flt (to_float a) (to_float b)))
  | Ir.Fle -> Vint (b2i (fle (to_float a) (to_float b)))
  | Ir.Fgt -> Vint (b2i (fgt (to_float a) (to_float b)))
  | Ir.Fge -> Vint (b2i (fge (to_float a) (to_float b)))
  | Ir.Feq -> Vint (b2i (feq (to_float a) (to_float b)))
  | Ir.Fne -> Vint (b2i (fne (to_float a) (to_float b)))
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Shl | Ir.Shr | Ir.And
  | Ir.Or | Ir.Xor | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne ->
    let y = to_int b in
    Vint (int_binop op (to_int a) y)

let unop (op : Ir.unop) (a : t) : t =
  match op with
  | Ir.Neg | Ir.Not | Ir.Bnot -> Vint (int_unop op (to_int a))
  | Ir.Fneg -> Vfloat (fneg (to_float a))
  | Ir.I2f -> Vfloat (i2f (to_int a))
  | Ir.F2i -> Vint (f2i (to_float a))

let mac a b c =
  let z = to_int c in
  let y = to_int b in
  Vint (imac (to_int a) y z)

let zero_of_ty = function Ir.I -> Vint 0 | Ir.F -> Vfloat 0.0

let to_string = function
  | Vint n -> string_of_int n
  | Vfloat f -> Printf.sprintf "%g" f

let equal a b =
  match (a, b) with
  | (Vint x, Vint y) -> x = y
  | (Vfloat x, Vfloat y) -> x = y || (Float.is_nan x && Float.is_nan y)
  | (Vint _, Vfloat _) | (Vfloat _, Vint _) -> false
