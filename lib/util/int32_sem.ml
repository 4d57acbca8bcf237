(** 32-bit two's-complement integer semantics shared by the simulator and
    the constant folder — they must agree bit-for-bit, otherwise folding
    would change observable program results. *)

(** Wrap a host integer to signed 32-bit. *)
let[@inline always] wrap32 x =
  (* bit 31 moves to the top of the 63-bit int, and back: the low 32 bits,
     sign-extended, with no branch *)
  (x lsl 31) asr 31
