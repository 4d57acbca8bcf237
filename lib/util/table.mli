(** Aligned plain-text table rendering; every reproduced table/figure is
    printed through this module so runs can be diffed textually. *)

type align = Left | Right

type t

(** [create ~title ~header ?aligns ()] starts an empty table.  [aligns]
    defaults to all-[Left] and must match [header] in length. *)
val create : title:string -> header:string list -> ?aligns:align list -> unit -> t

(** Append a row; raises [Invalid_argument] on length mismatch. *)
val add_row : t -> string list -> unit

(** Rows in insertion order. *)
val rows : t -> string list list

(** Cell formatting helpers. *)
val fmt_float : ?digits:int -> float -> string

(** Render with aligned columns, markdown-flavoured separators. *)
val render : t -> string

(** [render] to stdout followed by a newline. *)
val print : t -> unit
