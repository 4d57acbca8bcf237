(** Power-decision audit report.

    Where {!Obs} records {e where time went}, a [Report.t] records {e why
    the compiler did what it did} and {e where the nanojoules went}: every
    power-relevant decision the pipeline takes (pattern verdicts, gating
    insertions, Sink-N-Hoist merges, DVFS operating-point choices, per-pass
    IR deltas) is emitted as a typed event, and every simulation appends
    its full energy-ledger breakdown.  The report exports as JSON
    ([lpcc run --report FILE]) and as a human-readable audit
    ([lpcc explain]); the schema is documented in docs/OBSERVABILITY.md.

    Like the span recorder, the {!disabled} singleton makes every
    operation a no-op, so emission points cost nothing when no report was
    requested, and all operations are safe from several domains at once
    (the evaluation matrix emits from its whole pool).

    Events deliberately carry no wall-clock timestamps: for a fixed
    (source, machine, options) triple the report is byte-stable, which is
    what makes the golden-report test and the jobs=1 vs jobs=4
    determinism check possible. *)

(** {2 Decision events} *)

type gate_kind = Loop_gate | Entry_gate

type decision =
  | Pattern_verdict of {
      pv_func : string;
      pv_verdict : string;      (** ["accepted"] or ["rejected"] *)
      pv_kind : string option;  (** pattern kind, accepted instances *)
      pv_origin : string option;   (** ["annotated"] / ["inferred"] *)
      pv_reason : string option;   (** rejection reason *)
    }
  | Gating_insert of {
      gi_func : string;
      gi_site : string;         (** ["loop@b<header>"] or ["entry"] *)
      gi_kind : gate_kind;
      gi_components : string list;     (** components actually gated *)
      gi_suppressed : string list;
          (** idle candidates an enclosing loop's gate already covers *)
      gi_below_break_even : string list;
          (** idle candidates whose window is below break-even *)
      gi_est_cycles : float;    (** loop duration estimate; 0 for entry *)
      gi_landings : int;        (** exit landings given a [pg_on] *)
    }
  | Gating_merge of {
      gm_func : string;
      gm_block : int;
      gm_rule : string;
          (** ["cancel-stay-off"], ["drop-short-region"] or
              ["merge-adjacent"] — the three Sink-N-Hoist rules *)
      gm_components : string list;
    }
  | Dvfs_decision of {
      dv_func : string;
      dv_site : string;         (** ["loop@b<header>"] *)
      dv_core_class : string;
          (** core class whose ladder the decision used (class names
              joined with ["+"] when the function runs on several) *)
      dv_ladder : string;       (** that ladder, compactly described *)
      dv_mu : float;            (** measured memory-bound fraction *)
      dv_est_cycles : float;
      dv_chosen : int option;   (** chosen level; [None] = stays nominal *)
      dv_rejected : (string * string) list;
          (** rejected operating points with reasons *)
      dv_reason : string option;   (** why the loop keeps nominal *)
    }
  | Pass_delta of {
      pd_pass : string;
      pd_run : int;             (** 1-based run count of this pass *)
      pd_changes : int;
      pd_instrs_before : int;
      pd_instrs_after : int;
    }

(** Per-simulation record: headline counters plus the full energy-ledger
    breakdown (machine-wide and per-core) as {!Lp_util.Json.t}. *)
type sim_record = {
  sr_duration_ns : float;
  sr_instrs : int;
  sr_implicit_wakeups : int;
  sr_gate_transitions : int;
  sr_dvfs_transitions : int;
  sr_energy : Lp_util.Json.t;        (** machine-wide ledger *)
  sr_core_energy : Lp_util.Json.t list;  (** one ledger per used core *)
  sr_predecode : bool;
      (** whether the compiled stepper produced these numbers
          (false = interpretive reference mode, the
          [--no-sim-predecode] escape hatch) *)
}

type t

(** Every operation is a no-op (and {!enabled} is [false]). *)
val disabled : t

val create : unit -> t
val enabled : t -> bool

(** {2 Scopes}

    A scope labels every event emitted while it is installed — the
    workload (and configuration) a matrix cell is evaluating, the file
    [lpcc run] was given, a fuzzer seed.  Scopes are per-domain (the
    evaluation matrix emits from its whole pool at once). *)

val with_scope : string -> (unit -> 'a) -> 'a

(** The installed scope, [""] outside {!with_scope}. *)
val current_scope : unit -> string

(** {2 Emission} *)

(** Record a decision under the current scope. *)
val add : t -> decision -> unit

(** Record a simulation's energy/counter record under the current
    scope. *)
val add_sim : t -> sim_record -> unit

(** Record a warning (e.g. nonzero implicit wakeups). *)
val warn : t -> string -> unit

(** {2 Inspection} *)

(** All (scope, decision) pairs, oldest first. *)
val decisions : t -> (string * decision) list

val sims : t -> (string * sim_record) list
val warnings : t -> string list

(** Total implicit wakeups over every recorded simulation. *)
val implicit_wakeups : t -> int

(** {2 Export} *)

(** The JSON document (schema [lowpower-power-report/1]).  Events are
    stably sorted by scope, so a report collected over a parallel
    evaluation matrix is deterministic whatever the pool size; within a
    scope, emission order (pipeline order) is preserved. *)
val to_json : t -> Lp_util.Json.t

val to_string : t -> string

(** {!to_string}, written atomically ({!Lp_util.Json.write_file}). *)
val write : t -> path:string -> unit

(** Human-readable audit (the [lpcc explain] view): decisions grouped by
    scope in pipeline order, then the energy breakdown and warnings. *)
val to_text : t -> string
