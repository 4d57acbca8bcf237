(** Design-space sweep: workload suite × compiler configs × machine zoo,
    over the shared evaluation matrix.  Output is deterministic and
    byte-identical whatever the [Domain_pool] size: the matrix fans out
    in parallel, but the JSON and crossover table render sequentially
    from the memo cache. *)

module Machine = Lp_machine.Machine
module Table = Lp_util.Table

type cell = {
  s_workload : string;
  s_config : string;
  s_machine : string;
  s_cycles : float;
  s_energy_nj : float;
  s_duration_ns : float;
  s_status : string option;  (** diagnostic code when the cell failed *)
}

type winner = {
  w_workload : string;
  w_machine : string;
  w_config : string;
  w_energy_nj : float;
  w_saving_pct : float;
}

type t = {
  sw_machines : string list;
  sw_workloads : string list;
  sw_configs : string list;
  sw_cells : cell list;
  sw_winners : winner list;
}

(** Every zoo machine, registry order. *)
val default_machines : string list

(** Run the sweep.  Defaults: the full zoo over the whole workload
    suite.  Raises [Invalid_argument] on an unknown machine name and
    [Not_found]-style failure on an unknown workload; validate names
    first when they come from a user. *)
val run :
  ?pool:Lp_util.Domain_pool.t ->
  ?machines:string list ->
  ?workloads:string list ->
  unit -> t

(** Winning config per (workload row, machine column). *)
val crossover_table : t -> Table.t

(** Workloads whose winner differs across machines, with the
    per-machine winners. *)
val crossovers : t -> (string * (string * string) list) list

(** The [lowpower-bench-sweep/1] artifact. *)
val to_json : t -> string
