(** Analytic power/energy model of one embedded core.

    The model charges:
    - dynamic energy per executed operation, per component, scaled by the
      square of the operating voltage;
    - leakage power per component while the component is powered
      (gated-off components leak nothing), scaled linearly by voltage;
    - fixed energy and latency penalties for power-gating transitions and
      for DVFS transitions.

    All energies are in nanojoules (nJ), powers in milliwatts (mW), times
    in nanoseconds (ns).  Note 1 mW * 1 ns = 1e-3 nJ. *)

type t = {
  points : Operating_point.t list;  (** available V/f points, ascending *)
  nominal : Operating_point.t;      (** highest point; reference for scaling *)
  dyn_energy_nj : float array;
      (** dynamic energy of one operation on each component, by
          {!Component.index}, at nominal V *)
  leak_power_mw : float array;
      (** leakage power of each component while powered, by
          {!Component.index}, at nominal V *)
  gate_energy_nj : float;      (** energy of one pg_off or pg_on transition *)
  wake_latency_cycles : int;   (** stall cycles for pg_on before first use *)
  dvfs_energy_nj : float;      (** energy of one DVFS transition *)
  dvfs_latency_cycles : int;   (** stall cycles for a DVFS transition *)
}

let points t = t.points
let nominal t = t.nominal

let find_point t level =
  List.find_opt (fun (p : Operating_point.t) -> p.level = level) t.points

let max_level t = (nominal t).level

(** Energy of [n] operations on [comp] executed at point [p]. *)
let dynamic_energy t ~comp ~point:p ~ops =
  float_of_int ops *. t.dyn_energy_nj.(Component.index comp)
  *. Operating_point.dynamic_scale ~nominal:t.nominal p

(** Leakage energy of [comp] powered for [ns] nanoseconds at point [p]. *)
let leakage_energy t ~comp ~point:p ~ns =
  t.leak_power_mw.(Component.index comp)
  *. Operating_point.leakage_scale ~nominal:t.nominal p
  *. ns *. 1e-3

(** Break-even idle time (ns, at point [p]) above which gating a component
    saves energy: two transitions must be amortised by saved leakage. *)
let break_even_ns t ~comp ~point:p =
  let leak_mw =
    t.leak_power_mw.(Component.index comp)
    *. Operating_point.leakage_scale ~nominal:t.nominal p
  in
  if leak_mw <= 0.0 then infinity
  else 2.0 *. t.gate_energy_nj /. (leak_mw *. 1e-3)

(** Same threshold expressed in cycles at point [p]; this is the number the
    compiler's gating pass compares idle-window lengths against. *)
let break_even_cycles t ~comp ~point:p =
  let ns = break_even_ns t ~comp ~point:p in
  if ns = infinity then max_int
  else int_of_float (ceil (ns /. (1000.0 /. p.Operating_point.freq_mhz)))

(* ------------------------------------------------------------------ *)
(* Default parameterisation.                                          *)
(* ------------------------------------------------------------------ *)

(* Per-operation dynamic energies, loosely calibrated to a 90nm embedded
   DSP: wide units (divider, FPU, MAC) cost several times an ALU op. *)
let default_dyn_energy : Component.t -> float = function
  | Component.Alu -> 0.08
  | Component.Shifter -> 0.06
  | Component.Branch_unit -> 0.05
  | Component.Multiplier -> 0.35
  | Component.Mac -> 0.42
  | Component.Divider -> 1.10
  | Component.Load_store -> 0.30
  | Component.Fpu -> 0.90

(* Leakage power in mW per component: wide units leak the most, which is
   exactly why component-level gating pays off on leakage-dominated
   technology nodes. *)
let default_leak_power : Component.t -> float = function
  | Component.Alu -> 0.60
  | Component.Shifter -> 0.35
  | Component.Branch_unit -> 0.25
  | Component.Multiplier -> 1.80
  | Component.Mac -> 2.20
  | Component.Divider -> 2.60
  | Component.Load_store -> 1.20
  | Component.Fpu -> 3.00

(* [f] over every component, by [Component.index] *)
let table f = Array.init Component.count (fun i -> f (Component.of_index i))

(** Default model: [n_levels] operating points between 100 MHz / 0.8 V and
    400 MHz / 1.2 V, PAC-Duo-flavoured gating costs. *)
let default ?(n_levels = 4) () =
  let points =
    Operating_point.ladder ~n:n_levels ~fmin:100.0 ~fmax:400.0 ~vmin:0.8
      ~vmax:1.2
  in
  let nominal = List.nth points (List.length points - 1) in
  {
    points;
    nominal;
    dyn_energy_nj = table default_dyn_energy;
    leak_power_mw = table default_leak_power;
    gate_energy_nj = 2.0;
    wake_latency_cycles = 3;
    dvfs_energy_nj = 60.0;
    dvfs_latency_cycles = 150;
  }

(** A leakage-heavy variant (smaller technology node): leakage tripled.
    Used by the sensitivity experiments. *)
let leaky ?(n_levels = 4) () =
  let base = default ~n_levels () in
  { base with leak_power_mw = table (fun c -> 3.0 *. default_leak_power c) }

(** An in-order efficiency core for big.LITTLE machines: a slower,
    coarser ladder (3 points over 50-200 MHz at 0.70-0.95 V — a
    different shape from the big ladder, so the same slowdown bound
    lands on a different level), roughly half the per-op dynamic
    energy, 40% of the leakage, and cheaper gating/DVFS transitions.
    Its lower IPC is modelled by the machine's per-class perf scale,
    not here. *)
let little ?(n_levels = 3) () =
  let points =
    Operating_point.ladder ~n:n_levels ~fmin:50.0 ~fmax:200.0 ~vmin:0.7
      ~vmax:0.95
  in
  let nominal = List.nth points (List.length points - 1) in
  {
    points;
    nominal;
    dyn_energy_nj = table (fun c -> 0.5 *. default_dyn_energy c);
    leak_power_mw = table (fun c -> 0.4 *. default_leak_power c);
    gate_energy_nj = 1.2;
    wake_latency_cycles = 2;
    dvfs_energy_nj = 40.0;
    dvfs_latency_cycles = 120;
  }

(** Do two models expose the same DVFS ladder (level, frequency and
    voltage of every point)?  A [dvfs] instruction carries a raw level
    number, so it is portable between two core classes exactly when
    their ladders agree. *)
let same_ladder a b = a.points = b.points

(** Compact one-line ladder description for reports and listings,
    e.g. ["L0@100MHz/0.80V,...,L3@400MHz/1.20V"]. *)
let describe_ladder t =
  String.concat ","
    (List.map
       (fun (p : Operating_point.t) ->
         Printf.sprintf "L%d@%.0fMHz/%.2fV" p.Operating_point.level
           p.Operating_point.freq_mhz p.Operating_point.voltage)
       t.points)

(** A variant with custom gating transition cost, for the break-even
    sweep (experiment F4). *)
let with_gate_energy t e = { t with gate_energy_nj = e }

let with_points t points =
  match List.rev points with
  | [] -> invalid_arg "Power_model.with_points: empty"
  | nominal :: _ -> { t with points; nominal }
