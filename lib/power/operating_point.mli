(** Voltage/frequency operating points for compiler-directed DVFS. *)

type t = {
  level : int;       (** 0 = slowest/lowest voltage *)
  freq_mhz : float;
  voltage : float;
}

(** Raises [Invalid_argument] on non-positive frequency or voltage. *)
val make : level:int -> freq_mhz:float -> voltage:float -> t

(** Nanoseconds taken by a cycle count at this point. *)
val ns_of_cycles : t -> int -> float

(** Dynamic-energy scale relative to [nominal]: [(v/v_nom)^2]. *)
val dynamic_scale : nominal:t -> t -> float

(** Leakage-power scale relative to [nominal]: [v/v_nom]. *)
val leakage_scale : nominal:t -> t -> float

(** The compiler's one run-time model: [slowdown ~nominal ~mu p] is
    [(1 - mu) * f_nom/f + mu], the factor by which a region whose
    nominal time is a fraction [mu] memory-bound stretches at [p].  It
    prices no leakage.  Loop DVFS and pipeline balancing both use it. *)
val slowdown : nominal:t -> mu:float -> t -> float

val to_string : t -> string

(** [ladder ~n ~fmin ~fmax ~vmin ~vmax] builds [n] evenly spaced points,
    level [n-1] being the fastest (nominal). *)
val ladder :
  n:int -> fmin:float -> fmax:float -> vmin:float -> vmax:float -> t list
