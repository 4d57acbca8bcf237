(** Analytic power/energy model of one embedded core.

    Energies in nanojoules, powers in milliwatts, times in nanoseconds.
    The model charges dynamic energy per executed operation (scaled by
    voltage squared), leakage power per powered component (gated
    components leak nothing), and fixed penalties for gating and DVFS
    transitions.  Plain data, with no closure, so [=] and [Marshal]
    apply to it. *)

type t = {
  points : Operating_point.t list;  (** available V/f points, ascending *)
  nominal : Operating_point.t;      (** highest point, scaling reference *)
  dyn_energy_nj : float array;
      (** per-operation dynamic energy at nominal V, by {!Component.index} *)
  leak_power_mw : float array;
      (** powered leakage at nominal V, by {!Component.index} *)
  gate_energy_nj : float;
  wake_latency_cycles : int;
  dvfs_energy_nj : float;
  dvfs_latency_cycles : int;
}

val points : t -> Operating_point.t list
val nominal : t -> Operating_point.t

(** Operating point by level; [None] if absent. *)
val find_point : t -> int -> Operating_point.t option

(** Level of the nominal (fastest) point. *)
val max_level : t -> int

(** Energy of [ops] operations on [comp] at point [point]. *)
val dynamic_energy :
  t -> comp:Component.t -> point:Operating_point.t -> ops:int -> float

(** Leakage energy of [comp] powered for [ns] nanoseconds at [point]. *)
val leakage_energy :
  t -> comp:Component.t -> point:Operating_point.t -> ns:float -> float

(** Idle time above which gating [comp] saves energy (two transitions
    amortised against saved leakage), in ns / in cycles at [point]. *)
val break_even_ns : t -> comp:Component.t -> point:Operating_point.t -> float

val break_even_cycles :
  t -> comp:Component.t -> point:Operating_point.t -> int

(** Default parameterisation (90nm-flavoured embedded DSP), [n_levels]
    operating points between 100MHz/0.8V and 400MHz/1.2V. *)
val default : ?n_levels:int -> unit -> t

(** Leakage-heavy variant (3x leakage), for sensitivity experiments. *)
val leaky : ?n_levels:int -> unit -> t

(** In-order efficiency core for big.LITTLE machines: a coarser
    3-point 50-200MHz / 0.70-0.95V ladder (a different shape from the
    big ladder), half dynamic energy, 40% leakage, cheaper gating/DVFS
    transitions. *)
val little : ?n_levels:int -> unit -> t

(** Whether two models expose byte-for-byte the same DVFS ladder; a raw
    [dvfs] level is portable between core classes exactly when true. *)
val same_ladder : t -> t -> bool

(** Compact one-line ladder description, for reports and listings. *)
val describe_ladder : t -> string

(** Override the gating transition energy (break-even sweep). *)
val with_gate_energy : t -> float -> t

(** Replace the operating-point ladder; the last point becomes nominal. *)
val with_points : t -> Operating_point.t list -> t
