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


(* ------------------------------------------------------------------ *)
(* Boxed operators                                                     *)
(* ------------------------------------------------------------------ *)

(* The interpretive stepper's operators box around the raw ones of
   {!Lp_ir.Ir} (the operator semantics, shared with the constant
   folder), and check a division's divisor first.  The compiled
   stepper's encoded instructions run [Sim.effect], which holds its own
   copy of the int operators: dune's default (dev) profile compiles with
   [-opaque], so a function of another module is a call from [Sim], and
   the section loop must make none.  test_predecode pins the copy equal
   to these.  The right operand is read first, in the order
   [Sim.encode] resolves operands. *)

let div_by_zero (op : Ir.binop) =
  err "integer %s by zero" (match op with Ir.Mod -> "modulo" | _ -> "division")

let binop (op : Ir.binop) (a : t) (b : t) : t =
  match op with
  | Ir.Fadd -> Vfloat (Ir.fadd (to_float a) (to_float b))
  | Ir.Fsub -> Vfloat (Ir.fsub (to_float a) (to_float b))
  | Ir.Fmul -> Vfloat (Ir.fmul (to_float a) (to_float b))
  | Ir.Fdiv -> Vfloat (Ir.fdiv (to_float a) (to_float b))
  | Ir.Flt -> Vint (Ir.b2i (Ir.flt (to_float a) (to_float b)))
  | Ir.Fle -> Vint (Ir.b2i (Ir.fle (to_float a) (to_float b)))
  | Ir.Fgt -> Vint (Ir.b2i (Ir.fgt (to_float a) (to_float b)))
  | Ir.Fge -> Vint (Ir.b2i (Ir.fge (to_float a) (to_float b)))
  | Ir.Feq -> Vint (Ir.b2i (Ir.feq (to_float a) (to_float b)))
  | Ir.Fne -> Vint (Ir.b2i (Ir.fne (to_float a) (to_float b)))
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Shl | Ir.Shr | Ir.And
  | Ir.Or | Ir.Xor | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne ->
    let y = to_int b in
    let x = to_int a in
    (match op with (Ir.Div | Ir.Mod) when y = 0 -> div_by_zero op | _ -> ());
    Vint (Ir.int_binop op x y)

let unop (op : Ir.unop) (a : t) : t =
  match op with
  | Ir.Neg | Ir.Not | Ir.Bnot -> Vint (Ir.int_unop op (to_int a))
  | Ir.Fneg -> Vfloat (Ir.fneg (to_float a))
  | Ir.I2f -> Vfloat (Ir.i2f (to_int a))
  | Ir.F2i -> Vint (Ir.f2i (to_float a))

let mac a b c =
  let z = to_int c in
  let y = to_int b in
  Vint (Ir.imac (to_int a) y z)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(** A memory array (shared, ROM or frame) in the unboxed representation
    of its element type: a global's [gty], or a frame array's declared
    type, picks the constructor.  A store writes the raw word, so it
    allocates no box and makes no [caml_modify]. *)
type mem = Ints of int array | Floats of Float.Array.t

let mem_make (ty : Ir.ty) len =
  match ty with
  | Ir.I -> Ints (Array.make len 0)
  | Ir.F -> Floats (Float.Array.make len 0.0)

let mem_length = function
  | Ints a -> Array.length a
  | Floats a -> Float.Array.length a

let mem_copy = function
  | Ints a -> Ints (Array.copy a)
  | Floats a -> Floats (Float.Array.copy a)

(** The word at [i], boxed; [i] must be in bounds. *)
let mem_get m i =
  match m with
  | Ints a -> Vint a.(i)
  | Floats a -> Vfloat (Float.Array.get a i)

(** Store [v] at [i], unboxed; the verifier makes every stored value its
    array's class. *)
let mem_set m i v =
  match m with
  | Ints a -> a.(i) <- to_int v
  | Floats a -> Float.Array.set a i (to_float v)

(** Every word, boxed. *)
let mem_values m = Array.init (mem_length m) (mem_get m)

let to_string = function
  | Vint n -> string_of_int n
  | Vfloat f -> Printf.sprintf "%g" f

let equal a b =
  match (a, b) with
  | (Vint x, Vint y) -> x = y
  | (Vfloat x, Vfloat y) -> x = y || (Float.is_nan x && Float.is_nan y)
  | (Vint _, Vfloat _) | (Vfloat _, Vint _) -> false
