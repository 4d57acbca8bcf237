(** The benchmark regression baseline — the [--check-baseline] gate.

    A committed snapshot ([bench/baselines/eval.json], schema
    [lowpower-bench-baseline/1]) of the two simulated metrics every
    evaluation cell produces: total compute cycles and energy in
    nanojoules, per (workload, config, machine) cell and aggregated per
    experiment.  Simulation is fully deterministic, so tolerances are
    effectively zero and any drift is semantic: a transform change that
    costs cycles or energy fails CI until either the change is fixed or
    the new numbers are deliberately committed with
    [--write-baseline]. *)

type cell_row = {
  c_workload : string;
  c_config : string;
  c_machine : string;
  c_cycles : float;
  c_energy_nj : float;
}

type exp_row = {
  e_id : string;          (** experiment id, e.g. ["t1"] *)
  e_cycles : float;
  e_energy_nj : float;
  e_cells : int;          (** cells first evaluated by this experiment *)
}

type t = {
  cycles_tol : float;     (** allowed relative increase in cycles *)
  energy_tol : float;     (** allowed relative increase in energy *)
  exps : exp_row list;
  cells : cell_row list;
}

(** Rows from an {!Exp_common.cell_metrics} snapshot. *)
val cell_rows_of_metrics :
  ((string * string * string) * float * float) list -> cell_row list

(** A baseline at the default tolerances. *)
val make : exps:exp_row list -> cells:cell_row list -> t

val to_json : t -> Lp_util.Json.t
val of_json : Lp_util.Json.t -> (t, string) result

(** Pretty-printed JSON, written atomically
    ({!Lp_util.Json.write_file}). *)
val write : t -> path:string -> unit

val load : path:string -> (t, string) result

(** One metric that moved: [d_rel] is the relative change against the
    baseline ([> 0] = worse, i.e. more cycles / more energy). *)
type delta = {
  d_what : string;        (** cell key or experiment id *)
  d_metric : string;      (** ["cycles"] or ["energy_nj"] *)
  d_base : float;
  d_cur : float;
  d_rel : float;
}

type verdict = {
  regressions : delta list;   (** increases beyond tolerance — gate fails *)
  improvements : delta list;  (** decreases beyond tolerance — pass *)
  notes : string list;        (** coverage differences *)
}

(** Compare a finished run against the baseline.  Cell rows are always
    compared; per-experiment totals only when the run evaluated exactly
    the baseline's experiment set (the memo cache attributes shared
    cells to whichever experiment ran first, so totals shift under
    subset runs). *)
val check : t -> exps:exp_row list -> cells:cell_row list -> verdict

val passed : verdict -> bool

(** The regression table the gate prints. *)
val verdict_to_string : verdict -> string
