(** Monotonic integer id generator; each compiler entity family (virtual
    registers, blocks, instructions) owns one. *)

type t

val create : unit -> t

(** Return the next id and advance. *)
val fresh : t -> int

(** Next id that [fresh] would return (= count issued so far when
    starting from 0). *)
val peek : t -> int

val reset : t -> unit
