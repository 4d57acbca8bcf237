(** Voltage/frequency operating points for compiler-directed DVFS.

    Each core of the machine can run at one of a small number of discrete
    operating points (as on embedded SoCs of the PAC Duo era).  Dynamic
    energy per operation scales with [v^2]; leakage power scales roughly
    linearly with [v]; execution time of a fixed cycle count scales with
    [1 / freq]. *)

type t = {
  level : int;          (** 0 = slowest/lowest voltage *)
  freq_mhz : float;     (** core clock *)
  voltage : float;      (** supply voltage in volts *)
}

let make ~level ~freq_mhz ~voltage =
  if freq_mhz <= 0.0 then invalid_arg "Operating_point.make: freq";
  if voltage <= 0.0 then invalid_arg "Operating_point.make: voltage";
  { level; freq_mhz; voltage }

(** Nanoseconds taken by [cycles] clock cycles at this point. *)
let ns_of_cycles t cycles = float_of_int cycles *. (1000.0 /. t.freq_mhz)

(** Dynamic-energy scale factor relative to a nominal point: [v^2] ratio.
    Frequency does not appear because we charge energy per executed
    operation, not power over time. *)
let dynamic_scale ~nominal t =
  (t.voltage /. nominal.voltage) ** 2.0

(** Leakage-power scale factor relative to nominal: linear in voltage. *)
let leakage_scale ~nominal t = t.voltage /. nominal.voltage

(** Run-time stretch of a region at this point relative to nominal, when
    a fraction [mu] of its nominal time waits on the fixed-frequency bus
    and memory: only the compute fraction scales with [f_nom / f]. *)
let slowdown ~nominal ~mu t =
  ((1.0 -. mu) *. (nominal.freq_mhz /. t.freq_mhz)) +. mu

let to_string t =
  Printf.sprintf "L%d(%.0fMHz,%.2fV)" t.level t.freq_mhz t.voltage

(** Build a ladder of [n] operating points between [fmin,vmin] and
    [fmax,vmax] with evenly spaced frequency and voltage.  Level [n-1] is
    the nominal (fastest) point. *)
let ladder ~n ~fmin ~fmax ~vmin ~vmax =
  if n < 1 then invalid_arg "Operating_point.ladder: n";
  if n = 1 then [ make ~level:0 ~freq_mhz:fmax ~voltage:vmax ]
  else
    List.init n (fun i ->
        let frac = float_of_int i /. float_of_int (n - 1) in
        make ~level:i
          ~freq_mhz:(fmin +. (frac *. (fmax -. fmin)))
          ~voltage:(vmin +. (frac *. (vmax -. vmin))))
