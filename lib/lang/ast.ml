(** Abstract syntax of MiniC, the C-subset front-end language.

    MiniC is deliberately small: enough C to write DSP/embedded kernels
    (integer and float scalars, fixed-size global/local arrays, loops,
    functions) plus [#pragma lp ...] annotations with which the programmer
    can name the design pattern of a loop nest.  The pattern detectors can
    also infer patterns without annotations; the pragma is the
    "programmer writes the design pattern" interface that the paper's
    title refers to. *)

type position = { line : int; col : int }

let dummy_pos = { line = 0; col = 0 }

type ty =
  | Tint
  | Tfloat
  | Tvoid
  | Tarray of ty * int  (** element type (scalar) and static length *)

let rec ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tvoid -> "void"
  | Tarray (t, n) -> Printf.sprintf "%s[%d]" (ty_to_string t) n

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | Band | Bor | Bxor
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>" | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Land -> "&&" | Lor -> "||"

type unop = Neg | Not | Bnot

let unop_to_string = function Neg -> "-" | Not -> "!" | Bnot -> "~"

type expr = { edesc : edesc; epos : position }

and edesc =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr            (** a[i] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Cast of ty * expr                 (** int(e) / float(e) *)

(** A pragma directive: [#pragma lp key(arg1, arg2, ...)]. *)
type pragma = { pkey : string; pargs : string list; ppos : position }

type stmt = { sdesc : sdesc; spos : position; pragmas : pragma list }

and sdesc =
  | Decl of ty * string * expr option
  | Assign of string * expr                 (** x = e *)
  | Store of string * expr * expr           (** a[i] = e *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
      (** for (init; cond; step) body — init/step restricted to
          assign/decl by the parser *)
  | Return of expr option
  | Expr of expr                            (** expression statement (calls) *)
  | Block of stmt list

type func = {
  fname : string;
  fret : ty;
  fparams : (ty * string) list;
  fbody : stmt list;
  fpragmas : pragma list;
  fpos : position;
}

type global = {
  gname : string;
  gty : ty;
  ginit : int list option;  (** optional initialiser list for int arrays *)
  gpos : position;
}

type program = { globals : global list; funcs : func list }

(* ------------------------------------------------------------------ *)
(* Constructors used by tests and generated workloads.                 *)
(* ------------------------------------------------------------------ *)

let mk_expr ?(pos = dummy_pos) edesc = { edesc; epos = pos }
let mk_stmt ?(pos = dummy_pos) ?(pragmas = []) sdesc =
  { sdesc; spos = pos; pragmas }

let var x = mk_expr (Var x)
let binop op a b = mk_expr (Binop (op, a, b))

(* ------------------------------------------------------------------ *)
(* Utility traversals.                                                 *)
(* ------------------------------------------------------------------ *)

(** Fold over every statement in a list, descending into nested bodies. *)
let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s.sdesc with
      | If (_, a, b) -> fold_stmts f (fold_stmts f acc a) b
      | While (_, body) -> fold_stmts f acc body
      | For (init, _, step, body) ->
        fold_stmts f (fold_stmts f acc [ init; step ]) body
      | Block body -> fold_stmts f acc body
      | Decl _ | Assign _ | Store _ | Return _ | Expr _ -> acc)
    acc stmts

(** Number of loop statements (while/for) in a function body. *)
let count_loops stmts =
  fold_stmts
    (fun acc s ->
      match s.sdesc with While _ | For _ -> acc + 1 | _ -> acc)
    0 stmts

let find_pragma ~key pragmas =
  List.find_opt (fun p -> p.pkey = key) pragmas
